"""Run the benchmark once and write what it measured to `BENCH_<N>.json`.

    python tests/bench_snapshot.py --pr N [--seconds 15]
    python tests/bench_snapshot.py --out PATH [--seconds 15]

Run it from anywhere.  It runs `bench/run.py --workload all --seed 1`,
which runs each workload in its own process, once at `--trace 0` (the
end-to-end metrics) and once at `--trace 1` (the per-layer spans,
counts, context and the times of the timed acceptance criteria), and
adds:

- the physical, code and executable lines of each `src/neutrocalc`
  module, as `tests/src_lines.py` counts them;
- how many executable lines the benchmark's traffic runs, from
  `tests/traffic_lines.py`;
- `len(neutrocalc.__all__)`;
- the commit, whether tracked files differ from it, the Python version
  and the number of CPUs this process may run on.

It writes one JSON object to PATH, by default `BENCH_<N>.json` at the
repository root, and prints a summary.  It only reads `bench/`: apart
from PATH, `bench/run.py`'s own traces in the ignored `bench/out/` are
all it leaves.  pytest does not collect this file, whose name does not
start with `test_`.

`peak_rss_mb` is the peak of a whole run, and the run keeps one latency
per attempted operation, so the peak grows with the number of operations
attempted: a faster program reads a higher peak.  Compare it between
snapshots together with each workload's `attempted` count.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from line_recorder import ROOT, SRC
from src_lines import counts

SEED = 1
RSS_NOTE = (
    "peak_rss_mb grows with the number of operations attempted (about 80 bytes each): "
    "bench/run.py keeps one latency per operation for the whole run. Compare it at "
    "equal 'attempted' counts."
)


def _run(*cmd: str) -> str:
    return subprocess.run(
        [sys.executable, *cmd], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout


def _bench(seconds: float, trace: int) -> dict:
    """bench/run.py's last line, the JSON result of every workload."""
    out = _run(
        str(ROOT / "bench" / "run.py"), "--workload", "all", "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", str(trace),
    )
    return json.loads(out.splitlines()[-1])


def _traffic() -> dict:
    """traffic_lines.py's total: "R of E executable lines ran; ..."."""
    last = _run(str(ROOT / "tests" / "traffic_lines.py")).splitlines()[-1]
    words = last.split()
    return {"ran": int(words[0]), "executable": int(words[2]), "report": last}


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _public_names() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import neutrocalc

    return len(neutrocalc.__all__)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="the N of BENCH_<N>.json")
    parser.add_argument("--seconds", type=float, default=15.0, help="per workload and trace level")
    parser.add_argument("--out", type=Path, help="default: BENCH_<N>.json at the repository root")
    args = parser.parse_args(argv)
    if args.pr is None and args.out is None:
        parser.error("give --pr N, --out PATH or both")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        modules[str(path.relative_to(ROOT))] = dict(
            zip(("physical", "code", "executable"), counts(path))
        )
    modules["total"] = {k: sum(m[k] for m in modules.values()) for k in ("physical", "code", "executable")}
    status = _git("status", "--porcelain", "--untracked-files=no")
    snapshot = {
        "pr": args.pr,
        "commit": _git("rev-parse", "HEAD"),
        "tracked_files_changed": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "seconds": args.seconds,
        "public_names": _public_names(),
        "src_lines": modules,
        "traffic_lines": _traffic(),
        "notes": [RSS_NOTE],
        "trace0": _bench(args.seconds, 0),
        "trace1": _bench(args.seconds, 1),
    }
    out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")

    print(f"wrote {out}")
    print(f"src lines {modules['total']}, traffic {snapshot['traffic_lines']['report']}")
    print(f"public names {snapshot['public_names']}, commit {snapshot['commit']}, "
          f"python {snapshot['python']}, nproc {snapshot['nproc']}")
    for name, result in snapshot["trace0"]["workloads"].items():
        metrics = ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, {metrics}")
    print(f"all correct: {snapshot['trace0']['correct'] and snapshot['trace1']['correct']}")
    print(f"note: {RSS_NOTE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
