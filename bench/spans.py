"""Span tracing of neutrocalc's public functions, installed from outside.

``Tracer.install`` replaces each traced function on every neutrocalc
module attribute that binds it (``compare_ns`` is bound in ``monads``,
``intervals``, ``cli`` and the package itself), and ``uninstall`` puts
the originals back.  Each call records a span: name, start, end and the
enclosing span.  Calls, inclusive time and self time are summed per
span name for every call; the raw records of the first `capacity` spans
are kept in flat arrays in memory and written out at the end, which
bounds memory however fast the program runs.  The root span of every
operation is ``op``, so all spans of one operation share that root.
Self time is a span's duration minus the durations of its direct
children; calls run on one thread, so children never overlap.

Counts are taken at the same boundaries: exception types leaving a span
(each exception counted once, where it first leaves one), clamped kernel
operands, and hesitant candidate pairs against distinct output values at
the outermost connective call.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from collections import Counter
from importlib import import_module
from time import perf_counter

#: span name -> (module, function) pairs it covers
SPANS = {
    "formula.parse": [("formula", "parse")],
    "formula.evaluate": [("formula", "evaluate")],
    "triples.validate": [("triples", "validate")],
    "triples.component_bounds": [("triples", "component_bounds")],
    "triples.triple_sums": [("triples", "triple_sums")],
    "triples.scale_triple": [("triples", "scale_triple")],
    "connectives.combine": [("connectives", f) for f in ("conj", "disj", "impl", "neg")],
    "connectives.tnorm": [("connectives", "tnorm")],
    "connectives.tconorm": [("connectives", "tconorm")],
    "monads.compare_ns": [("monads", "compare_ns")],
    "monads.min_max": [("monads", "min_ns"), ("monads", "max_ns")],
    "monads.add_ns": [("monads", "add_ns")],
    "monads.as_fraction": [("monads", "as_fraction")],
    "intervals.contains": [("intervals", "contains")],
    "intervals.inf_sup_set": [("intervals", "inf_ns_set"), ("intervals", "sup_ns_set")],
    "intervals.anomaly_check": [("intervals", "anomaly_check")],
    "cli.build_parser": [("cli", "build_parser")],
    "cli.main": [("cli", "main")],
}

#: Counted, not timed: the kernel's operand clamp.  A private helper, so
#: the count reads 0 if it is renamed or inlined.
CLAMP = ("connectives", "_clamped")

ERROR_TYPES = ("FormulaSyntaxError", "BoundsViolation", "NeutroCalcError", "SystemExit")

_TOKEN = re.compile(r"->|-?(?:\d+\.?\d*|\.\d+)|[A-Za-z_]\w*|\S")


class Tracer:
    """Spans of the calls it wraps: aggregated per name for every call, and
    kept as raw records for the first `capacity` calls."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.names = ["op"] + list(SPANS)
        self.name_id = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # One frame per open span: record index, time covered by its
        # children so far, name id.  The bottom frame is a sentinel.
        self.stack = [[-1, 0.0, -1]]
        self.calls = [0] * len(self.names)
        self.total = [0.0] * len(self.names)
        self.own = [0.0] * len(self.names)
        self.counts = Counter()
        self.parsed: list[str] = []
        self._patches = []
        self._combine_id = self.names.index("connectives.combine")

    def wrap(self, name: str, fn, after=None):
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, capacity = self.stack, self.counts, self.capacity
        calls, total, own = self.calls, self.total, self.own

        def traced(*args, **kwargs):
            idx = len(start)
            if idx < capacity:
                name_id.append(nid)
                parent.append(stack[-1][0])
                start.append(0.0)
                end.append(0.0)
            else:
                idx = -1
            frame = [idx, 0.0, nid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not getattr(exc, "_traced", False):
                    exc._traced = True
                    counts["errors." + type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stack[-1][1] += d
                calls[nid] += 1
                total[nid] += d
                own[nid] += d - frame[1]
                if idx >= 0:
                    start[idx] = t0
                    end[idx] = t1
            if after is not None:
                after(stack[-1][2], args, result)
            return result

        return traced

    def install(self, package) -> None:
        hooks = {"formula.parse": self._after_parse, "connectives.combine": self._after_combine}
        replacements = {}
        for span, targets in SPANS.items():
            for mod, fname in targets:
                original = getattr(import_module(f"{package.__name__}.{mod}"), fname)
                replacements[id(original)] = (original, self.wrap(span, original, hooks.get(span)))
        clamp = getattr(import_module(f"{package.__name__}.{CLAMP[0]}"), CLAMP[1], None)
        if clamp is not None:
            replacements[id(clamp)] = (clamp, self._count_clamps(clamp))
        modules = [package] + [
            m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _count_clamps(self, fn):
        counts = self.counts

        def counted(v):
            out = fn(v)
            if out != v:
                counts["connectives.clamps"] += 1
            return out

        return counted

    def _after_parse(self, parent_id, args, result):
        self.parsed.append(args[0])

    def _after_combine(self, parent_id, args, result):
        # Count at the outermost connective call only: impl reaches disj.
        if parent_id == self._combine_id:
            return
        if len(args) < 2 or result.shape != "hesitant":
            return
        x, y = args[0], args[1]
        for part in ("t", "i", "f"):
            self.counts["hesitant.pairs"] += len(getattr(x, part).values) * len(getattr(y, part).values)
            self.counts["hesitant.values"] += len(getattr(result, part).values)

    def summary(self) -> dict:
        """Per-span calls, self time and inclusive time; hesitant and token ratios."""
        calls, total, own = self.calls, self.total, self.own
        out = {}
        for k, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = (calls[k], "count")
            out[f"{name}.self_ms"] = (own[k] * 1e3, "ms")
            out[f"{name}.us_per_call"] = (total[k] / calls[k] * 1e6 if calls[k] else 0.0, "us")
        tokens = sum(len(_TOKEN.findall(text)) for text in self.parsed)
        parse_s = total[self.names.index("formula.parse")]
        out["formula.tokens_per_s"] = (tokens / parse_s if parse_s else 0.0, "1/s")
        for key in ("connectives.clamps", "hesitant.pairs", "hesitant.values"):
            out[key] = (self.counts[key], "count")
        pairs = self.counts["hesitant.pairs"]
        out["hesitant.dedup_ratio"] = (self.counts["hesitant.values"] / pairs if pairs else 0.0, "ratio")
        known = {f"errors.{t}" for t in ERROR_TYPES}
        for t in ERROR_TYPES:
            out[f"errors.{t}"] = (self.counts[f"errors.{t}"], "count")
        out["errors.other"] = (
            sum(v for k, v in self.counts.items() if k.startswith("errors.") and k not in known),
            "count",
        )
        out["trace.spans"] = (sum(calls), "count")
        return out

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "B"], ["parent", "i"], ["start_s", "d"], ["end_s", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
