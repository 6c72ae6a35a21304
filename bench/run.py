"""neutrocalc benchmark: one seeded workload, one client, closed loop.

    python3 bench/run.py --workload formula_mixed --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each operation starts when the previous one returns, on one thread.
Every output is checked against bench/reference.py.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced,
then reports per-layer spans and counts, the tracing overhead, the run
context and the wall time of acceptance criteria 1, 2, 4, 7 and 8.
README.md maps each layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import warnings
from array import array
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import NOMINAL_START_S, Calibration  # noqa: E402
from ops import canonical, prepare  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, distinguishing_pairs, matches  # noqa: E402

TAIL_PERCENTILES = (99.0, 90.0, 50.0)
SETUP_RUNS = 11
WORK_SLICE = 0.1
CAL_SLICE = 0.025
TRACE_CAPACITY = 1_000_000
ACCEPTANCE = ("01", "02", "04", "07", "08")


def load_library():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import neutrocalc
    except ImportError as exc:
        raise SystemExit(f"cannot import neutrocalc from {ROOT / 'src'}: {exc}")
    if Path(neutrocalc.__file__).resolve().parent != ROOT / "src" / "neutrocalc":
        raise SystemExit(f"imported neutrocalc from {neutrocalc.__file__}, not from this checkout")
    clamp_warning = getattr(neutrocalc, "ClampWarning", None)
    if clamp_warning is not None:
        # A warning per clamp would otherwise print each distinct degree.
        warnings.simplefilter("ignore", clamp_warning)
    return neutrocalc


# ----------------------------------------------------------------- checking


def self_check(nc, items) -> list:
    """Ways the checker accepted a wrong result: the program's output for
    another input of the same kind, a CLI result with its exit code or
    last character changed, or an evaluation whose result differs from the
    expected one only in one decoration or in one value by 1e-7.  Correct
    outputs are checked by the timed run itself."""
    problems = []
    sample = items[:60]
    outs = [canonical(nc, d, prepare(nc, d)()) for d, _ in sample]
    for i, (desc, expected) in enumerate(sample):
        for j, (other, other_expected) in enumerate(sample):
            if other["op"] == desc["op"] and other_expected != expected:
                if matches(desc, expected, outs[j]):
                    problems.append(f"accepted the output of {other} for {desc}")
                break
        if desc["op"] == "cli":
            code, out, err = outs[i]
            for wrong in ((code + 1, out, err), (code, out[:-1] + "?", err)):
                if matches(desc, expected, wrong):
                    problems.append(f"accepted a changed CLI result for {desc}")
    for (a, expected_a), (b, _) in distinguishing_pairs():
        if matches(a, expected_a, canonical(nc, b, prepare(nc, b)())):
            problems.append(f"accepted the result of {b['formula']} for {a['formula']}")
    return problems


# --------------------------------------------------------------- measuring


def closed_loop(nc, items, calls, seconds: float, cal: Calibration):
    """Run operations back to back for about `seconds`, in slices of
    WORK_SLICE between calibration slices.  Returns each operation's
    latency, raw and scaled by the calibration rate around its slice, and
    the number of failed operations."""
    raw, scaled = array("d"), array("d")
    failed = 0
    n = len(calls)
    before = cal.rate(CAL_SLICE)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        first = len(raw)
        slice_end = perf_counter() + WORK_SLICE
        while perf_counter() < slice_end:
            i = len(raw) % n
            desc, expected = items[i]
            t0 = perf_counter()
            try:
                out = calls[i]()
            except Exception as exc:  # an unexpected error is a failed operation
                t1 = perf_counter()
                failed += 1
                print(f"error: {type(exc).__name__}: {exc} in {desc}", file=sys.stderr)
            else:
                t1 = perf_counter()
                if not matches(desc, expected, canonical(nc, desc, out)):
                    failed += 1
                    print(f"wrong output for {desc}", file=sys.stderr)
            raw.append(t1 - t0)
        after = cal.rate(CAL_SLICE)
        f = cal.factor(before, after)
        scaled.extend(t * f for t in raw[first:])
        before = after
    return raw, scaled, failed


def tail(latencies):
    """Highest of TAIL_PERCENTILES with at least ten samples above it."""
    s = sorted(latencies)
    n = len(s)
    for p in TAIL_PERCENTILES:
        k = max(0, math.ceil(p / 100 * n) - 1)
        if n - k - 1 >= 10:
            return s[k], p, n - k - 1
    return s[-1], 100.0, 0


def measure_setup(desc) -> float:
    """Median time for a fresh interpreter to import neutrocalc and finish
    this operation, scaled by bare interpreter starts run alternately.
    One unmeasured run first writes the bytecode caches."""
    probe = [sys.executable, "-I", str(HERE / "first_op.py"), json.dumps(desc)]
    bare = [sys.executable, "-I", "-c", "pass"]

    def once(cmd):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return perf_counter() - t0

    once(probe)
    return statistics.median(once(probe) / once(bare) for _ in range(SETUP_RUNS)) * NOMINAL_START_S


def acceptance_times() -> dict:
    """Wall time of the timed acceptance criteria; informational, not gates."""
    sys.path.insert(0, str(ROOT / "tests"))
    module = importlib.import_module("test_acceptance")
    out, failed = {}, 0
    for num in ACCEPTANCE:
        (name,) = [n for n in dir(module) if n.startswith(f"test_criterion_{num}_")]
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                getattr(module, name)()
        except AssertionError:
            failed += 1
        out[f"acceptance.c{num}_s"] = (perf_counter() - t0, "s")
    out["acceptance.failed"] = (failed, "count")
    return out


def context() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (ROOT / "src" / "neutrocalc").rglob("*.py")
    )
    return {
        "context.python_version": (sys.version_info[0] * 100 + sys.version_info[1], "version"),
        "context.nproc": (len(os.sched_getaffinity(0)), "count"),
        "context.src_lines": (src_lines, "lines"),
    }


# -------------------------------------------------------------------- main


def run_one(args) -> dict:
    nc = load_library()
    items = WORKLOADS[args.workload](args.seed)
    problems = self_check(nc, items)
    if problems:
        print("checker self-check failed:\n  " + "\n  ".join(problems[:10]), file=sys.stderr)
        raise SystemExit(3)
    calls = [prepare(nc, desc) for desc, _ in items]
    # Keep garbage collections from scanning the corpus and expectations,
    # which belong to the benchmark, not to the program.
    gc.collect()
    gc.freeze()

    cal = Calibration(with_argparse=args.workload == "cli_oneshot")
    if not args.trace:
        setup_s = measure_setup(items[0][0])
        raw, lat, failed = closed_loop(nc, items, calls, args.seconds, cal)
        tail_s, tail_p, above = tail(lat)
        metrics = {
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_us": (statistics.median(lat) * 1e6, "us"),
            "latency_tail_us": (tail_s * 1e6, "us"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"# {args.workload} seed {args.seed}: {len(lat)} operations, {failed} failed, "
              f"error_share {failed / len(lat)}; latency_tail_us is p{tail_p:g} "
              f"with {above} of {len(lat)} samples above it; unscaled ops_per_s "
              f"{len(raw) / sum(raw):.1f}, latency_p50_us {statistics.median(raw) * 1e6:.1f}")
        return {"attempted": len(lat), "failed": failed, "metrics": metrics}

    half = args.seconds / 2
    _, lat_plain, failed_plain = closed_loop(nc, items, calls, half, cal)
    tracer = Tracer(TRACE_CAPACITY)
    tracer.install(nc)
    traced_calls = [tracer.wrap("op", call) for call in calls]
    try:
        _, lat_traced, failed_traced = closed_loop(nc, items, traced_calls, half, cal)
    finally:
        tracer.uninstall()
    (HERE / "out").mkdir(exist_ok=True)
    tracer.write(HERE / "out" / f"{args.workload}.trace")
    plain_rate = len(lat_plain) / sum(lat_plain)
    traced_rate = len(lat_traced) / sum(lat_traced)
    metrics = tracer.summary()
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((plain_rate / traced_rate - 1) * 100, "%")
    metrics.update(context())
    metrics.update(acceptance_times())
    attempted = len(lat_plain) + len(lat_traced)
    failed = failed_plain + failed_traced
    print(f"# {args.workload} seed {args.seed} traced: {attempted} operations, {failed} failed, "
          f"{metrics['trace.spans'][0]} spans")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process; prints one row per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        results[name] = result
        print("\n".join(lines[:-1]))
        print(f"{name}: error_share {result['failed'] / result['attempted']} (share of attempted)")
        for metric, m in result["metrics"].items():
            print(f"  {metric} {m['value']} {m['unit']}")
    ok = all(r["correct"] for r in results.values())
    return {"correct": ok, "workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result = run_one(args)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
