"""Turn operation descriptions into calls on the neutrocalc public API.

``prepare`` builds every argument object before timing starts and returns
a zero-argument callable that performs exactly one operation.  Library
functions are looked up on their module at call time, so the wrappers the
tracer installs on those modules are seen.  ``canonical`` reduces an
output to the plain form the reference produces.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction


def _number(nc, n):
    value, kind = n
    make = {"L": nc.left, "S": nc.std, "R": nc.right, "B": nc.bimonad}[kind]
    return make(Fraction(value))


def prepare(nc, desc: dict):
    op = desc["op"]
    if op == "evaluate":
        req = nc.EvalRequest(
            formula=desc["formula"],
            config=nc.OperatorConfig(nc.OperatorFamily(desc["family"]), nc.TNormFamily(desc["tnorm"])),
            scale=desc["scale"],
            bounds=nc.OffsetBounds(Fraction(desc["psi"]), Fraction(desc["omega"])),
            bindings={k: nc.parse(v).value for k, v in desc["bindings"].items()},
        )
        return lambda: nc.evaluate(req)
    if op == "compare":
        x, y = _number(nc, desc["x"]), _number(nc, desc["y"])
        return lambda: nc.compare_ns(x, y)
    if op in ("min", "max"):
        xs = [_number(nc, n) for n in desc["xs"]]
        name = "min_ns" if op == "min" else "max_ns"

        def fold():
            step = getattr(nc, name)
            acc = xs[0]
            for x in xs[1:]:
                acc = step(acc, x)
            return acc

        return fold
    if op in ("inf", "sup"):
        xs = [_number(nc, n) for n in desc["xs"]]
        name = "inf_ns_set" if op == "inf" else "sup_ns_set"
        return lambda: getattr(nc, name)(xs)
    if op == "contains":
        interval = nc.NsInterval(_number(nc, desc["lo"]), _number(nc, desc["hi"]))
        probes = [_number(nc, n) for n in desc["probes"]]
        return lambda: [nc.contains(interval, p) for p in probes]
    if op == "anomaly":
        a, b = Fraction(desc["a"]), Fraction(desc["b"])
        probes = [_number(nc, n) for n in desc["probes"]]
        return lambda: nc.anomaly_check(a, b, probes)
    if op == "cli":
        import neutrocalc.cli as cli

        argv = list(desc["argv"])

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return run
    raise ValueError(f"unknown operation {op!r}")


def canonical(nc, desc: dict, result):
    """Plain-data form of an output, comparable with the reference's."""
    op = desc["op"]
    if op == "evaluate":
        shape = {"nonstandard": "ns"}.get(result.shape, result.shape)
        return {"shape": shape, "text": nc.format_triple(result)}
    if op == "compare":
        return result.value
    if op in ("min", "max", "inf", "sup"):
        return str(result)
    if op == "anomaly":
        return {
            "outer": result.outer_notation,
            "inner": result.inner_notation,
            "outer_membership": list(result.outer_membership),
            "inner_membership": list(result.inner_membership),
        }
    return result
