"""Machine-speed calibration for timings taken on a shared machine.

The speed of a small shared machine drifts by 20% or more from one
second to the next, because other tenants contend for its cores and
caches.  To keep runs comparable, the benchmark interleaves short slices
of fixed calibration work with the workload and scales each timing by the
calibration rate measured around it:

    scaled time = measured time * (calibration rate / NOMINAL_RATE)

so a timing reads as it would on a machine that runs the calibration
work at NOMINAL_RATE units per second.  The calibration work is the
benchmark's own exact reference evaluator (Fraction arithmetic, small
tuples, function calls: the same kind of interpreter work as neutrocalc)
on a fixed corpus; it never calls neutrocalc, so a change to the program
leaves it unchanged.  For the CLI workload, whose calls mostly build
argparse parsers, every fourth unit also builds and runs a small argparse
parser, because Fraction arithmetic alone tracks that work poorly.

Interpreter start-up is mostly unmarshalling, loading and page faults,
which this work does not track well.  Set-up times are instead divided
by the time of a bare interpreter start taken right after each one and
multiplied by NOMINAL_START_S.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from random import Random
from time import perf_counter

import reference as ref
from workloads import random_tree

#: Calibration units per second, without and with the argparse part, on
#: a 2-core x86 container with CPython 3.11.7.  They only fix the scale of
#: reported timings.
NOMINAL_RATE = {False: 5000.0, True: 2500.0}

#: Seconds a bare ``python -I -c pass`` start reads as in set-up times.
NOMINAL_START_S = 0.05


class Calibration:
    def __init__(self, with_argparse: bool = False):
        self.with_argparse = with_argparse
        rng = Random(0)
        self.trees = []
        for _ in range(16):
            leaves = [
                ("lit", ("single", tuple(Fraction(rng.randint(0, 1000), 1000) for _ in range(3))))
                for _ in range(6)
            ]
            self.trees.append(random_tree(rng, leaves))
        self.next = 0

    def unit(self) -> None:
        tree = self.trees[self.next % len(self.trees)]
        self.next += 1
        ref.Evaluator("plith", "product").eval(tree)
        if self.with_argparse and self.next % 4 == 0:
            parser = argparse.ArgumentParser(prog="calibrate")
            sub = parser.add_subparsers(dest="command", required=True)
            for name in ("one", "two", "three"):
                p = sub.add_parser(name)
                p.add_argument("x")
                p.add_argument("--flag", action="store_true")
                p.add_argument("--choice", choices=("a", "b", "c"), default="a")
            parser.parse_args(["two", "0.5", "--choice", "b"])

    def rate(self, seconds: float) -> float:
        """Calibration units per second over a slice of about `seconds`."""
        done = 0
        t0 = perf_counter()
        deadline = t0 + seconds
        while True:
            self.unit()
            done += 1
            t1 = perf_counter()
            if t1 >= deadline:
                return done / (t1 - t0)

    def factor(self, before: float, after: float) -> float:
        """Scale for timings taken between two calibration slices."""
        return (before + after) / 2 / NOMINAL_RATE[self.with_argparse]
