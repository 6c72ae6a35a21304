"""Alternating benchmark pairs: a parent commit against this checkout.

    python tests/bench_pairs.py --workload decorated_order --seed 1 --pairs 10 [--parent HEAD]

Run it from anywhere.  It writes the committed files of `--parent` (by
default HEAD, so that uncommitted work is the change; after a commit give
HEAD~1) into a temporary directory with `git archive`, then runs
`bench/run.py --workload W --seed S --seconds T --trace 0` there and in
this checkout, one after the other, `--pairs` times.  T is the run
length that BENCHMARK.json fixes, its `run_seconds`.  The pairs alternate
which side runs first, so that a drift of the machine during the runs
falls on both sides alike.

For each end-to-end metric of BENCHMARK.json it prints the median of
each side, the interquartile range of the parent's runs, the change's
median gap relative to the parent's median, and in how many pairs the
change was better, in the metric's direction.  A claimed gain holds when
the change wins at least 9 of 10 pairs and its median gap is larger than
the parent's interquartile range.  It prints `attempted` the same way:
`peak_rss_mb` grows with the operations a run attempts.  pytest does
not collect this file, whose name does not start with `test_`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checkout(rev: str, into: Path) -> None:
    """The committed files of rev, written into the directory `into`."""
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """bench/run.py's result, its last line, for one run in root."""
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: {result['failed']} of {result['attempted']} operations failed")
    return result


def _quartiles(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="the git revision to compare against")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": ROOT}
        _checkout(args.parent, roots["parent"])
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(roots[side], args.workload, args.seed, seconds))
            line = ", ".join(
                f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.1f}" for side in order
            )
            print(f"pair {k + 1}: ops_per_s {line}", flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s, "
          f"parent {args.parent}")
    rows = [(m["name"], m["better"], m.get("bound")) for m in metrics]
    rows.append(("attempted", None, None))
    for name, better, bound in rows:
        side = {
            s: [r["attempted"] if name == "attempted" else r["metrics"][name]["value"] for r in rs]
            for s, rs in runs.items()
        }
        parent, change = statistics.median(side["parent"]), statistics.median(side["change"])
        q1, q3 = _quartiles(side["parent"])
        gap = (change - parent) / parent * 100 if parent else float("nan")
        text = (f"{name}: parent median {parent:.6g}, change median {change:.6g} ({gap:+.1f}%), "
                f"parent IQR {q3 - q1:.4g}")
        if better is not None:
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
            beyond = sign * (change - parent) > q3 - q1
            past = sign * gap < -100 * bound
            text += (f", change better in {wins} of {args.pairs} pairs, median gap beyond the "
                     f"IQR: {'yes' if beyond else 'no'}, worse past the {bound:g} bound: "
                     f"{'yes' if past else 'no'}")
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
