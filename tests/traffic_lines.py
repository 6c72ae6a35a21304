"""List each `src/neutrocalc` line that the benchmark's traffic never runs.

    python tests/traffic_lines.py

Run it from anywhere.  Under the line tracer of `line_recorder`, it runs
one pass of each `bench/workloads.WORKLOADS[w](seed)` corpus at seeds
1-3, each operation built by `bench/ops.prepare` and called once, and
then timed acceptance criteria 1, 2, 4, 7 and 8, the ones
`bench/run.py` times.  A line that none of these runs is off the
traffic, so only plain, checked code belongs there.  It only imports
from `bench/`, and writes no file of its own.

Prints `file:line` for each executable line that never ran, then the
total, and exits 0: it reports only.  Under the tracer criterion 8
exceeds its time budget; a criterion that fails is named and the run
goes on.  pytest does not collect this file, whose name does not start
with `test_`.
"""

import io
import sys
import warnings
from contextlib import redirect_stdout

from line_recorder import ROOT, report, tracing

SEEDS = (1, 2, 3)
CRITERIA = ("01", "02", "04", "07", "08")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from ops import prepare
    from workloads import WORKLOADS

    failed = []
    with tracing(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        import neutrocalc

        for name, corpus in WORKLOADS.items():
            for seed in SEEDS:
                for desc, _ in corpus(seed):
                    call = prepare(neutrocalc, desc)
                    try:
                        call()
                    except Exception:  # the corpora hold inputs the library refuses
                        pass
        import test_acceptance

        for number in CRITERIA:
            (test,) = [n for n in dir(test_acceptance) if n.startswith(f"test_criterion_{number}_")]
            try:
                with redirect_stdout(io.StringIO()):
                    getattr(test_acceptance, test)()
            except AssertionError:
                failed.append(test)
    report(f"criteria failed under the tracer: {', '.join(failed) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
