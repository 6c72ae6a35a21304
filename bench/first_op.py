"""Set-up probe: import neutrocalc in a fresh interpreter and run one operation.

Usage: python3 bench/first_op.py '<operation description as JSON>'
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import neutrocalc  # noqa: E402
import ops  # noqa: E402

ops.prepare(neutrocalc, json.loads(sys.argv[1]))()
