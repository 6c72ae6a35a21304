"""Exact reference semantics for checking neutrocalc outputs.

Written from the definitions, not from the package: nothing here imports
neutrocalc.  All arithmetic uses Fraction.

Data model
----------
* decorated number: ``(value, kind)`` with kind one of ``"L" "S" "R" "B"``
  (left monad, standard point, right monad, pierced bimonad).
* component: a Fraction (single), ``(lo, hi)`` (interval), a sorted tuple
  of Fractions (hesitant) or a decorated number (nonstandard).
* triple: ``(shape, (t, i, f))`` with shape ``single``, ``interval``,
  ``hesitant`` or ``ns``.
* formula: ``("lit", triple)``, ``("var", name)``, ``("not", a)`` or
  ``(op, a, b)`` with op one of ``and or impl``.

Order.  A decoration is the set of sides of its value it occupies:
below (-1), at (0), above (+1).  Distinct values order strictly whatever
the decorations.  At equal values one side set lies wholly below another
(strict), or both its extremes lie at or below the other's (non-strict),
or neither (incomparable).

Connectives.  Conjunction meets T and joins F, disjunction the reverse;
I follows the T operation (``ti``), the F operation (``if``) or the even
blend of both (``plith``).  Kernels: min/max, product
(ab, a + b - ab) and Lukasiewicz (max(0, a + b - 1), min(1, a + b)),
applied to operands clamped into [0, 1].  Negation swaps T and F;
implication is disj(neg(x), y).  Intervals combine endpointwise (the
kernels are monotone), hesitant sets over all pairs.  Nonstandard
operands use the min/max kernel only, ranked by value first, then
L < S < R.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

ZERO, ONE = Fraction(0), Fraction(1)

SIDES = {"L": (-1,), "S": (0,), "R": (1,), "B": (-1, 1)}
KIND_NAME = {"S": "std", "L": "left", "R": "right", "B": "bimonad"}
AT_MOST = frozenset({"<N", "≤N", "=N"})
AT_LEAST = frozenset({">N", "≥N", "=N"})


# ---------------------------------------------------------------- rendering


def plain(q: Fraction) -> str:
    """Exact decimal when the denominator has only factors 2 and 5, else p/q."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    rest, digits = den, 0
    for p in (2, 5):
        count = 0
        while rest % p == 0:
            rest //= p
            count += 1
        digits = max(digits, count)
    if rest != 1:
        return f"{num}/{den}"
    scaled = str(abs(num) * 10**digits // den).rjust(digits + 1, "0")
    return ("-" if num < 0 else "") + scaled[:-digits] + "." + scaled[-digits:]


def render_number(n) -> str:
    value, kind = n
    return plain(value) if kind == "S" else f"{kind}({plain(value)})"


def render_component(shape: str, c) -> str:
    if shape == "single":
        return plain(c)
    if shape == "interval":
        return f"[{plain(c[0])}, {plain(c[1])}]"
    if shape == "hesitant":
        return "{" + ", ".join(plain(v) for v in c) + "}"
    return render_number(c)


def render_triple(tr) -> str:
    shape, comps = tr
    return "<" + ", ".join(render_component(shape, c) for c in comps) + ">"


# -------------------------------------------------------------------- order


def order(x, y) -> str:
    """Six-valued relation of two decorated numbers, from side-set geometry."""
    if x[0] != y[0]:
        return "<N" if x[0] < y[0] else ">N"
    a, b = SIDES[x[1]], SIDES[y[1]]
    if a == b:
        return "=N"
    if max(a) < min(b):
        return "<N"
    if max(b) < min(a):
        return ">N"
    if min(a) <= min(b) and max(a) <= max(b):
        return "≤N"
    if min(b) <= min(a) and max(b) <= max(a):
        return "≥N"
    return "incomparable"


def min_n(x, y):
    rel = order(x, y)
    if rel == "incomparable":
        raise ValueError("incomparable operands")
    return x if rel in AT_MOST else y


def max_n(x, y):
    rel = order(x, y)
    if rel == "incomparable":
        raise ValueError("incomparable operands")
    return x if rel in AT_LEAST else y


def _bound_kind(present, below: bool) -> str:
    """Meet (below=True) or join of a set of kinds at one value."""
    fits = AT_MOST if below else AT_LEAST
    candidates = [k for k in SIDES if all(order((0, k), (0, p)) in fits for p in present)]
    # The tightest bound is the one every other candidate sits beyond.
    beyond = AT_LEAST if below else AT_MOST
    (best,) = [k for k in candidates if all(order((0, k), (0, c)) in beyond for c in candidates)]
    return best


def inf_set(xs):
    m = min(v for v, _ in xs)
    return (m, _bound_kind({k for v, k in xs if v == m}, below=True))


def sup_set(xs):
    m = max(v for v, _ in xs)
    return (m, _bound_kind({k for v, k in xs if v == m}, below=False))


def contains(lo, hi, x) -> bool:
    return order(lo, x) in AT_MOST and order(x, hi) in AT_MOST


# --------------------------------------------------------------- connectives


def tnorm(a, b, kernel):
    if kernel == "minmax":
        return min(a, b)
    if kernel == "product":
        return a * b
    return max(ZERO, a + b - ONE)


def tconorm(a, b, kernel):
    if kernel == "minmax":
        return max(a, b)
    if kernel == "product":
        return a + b - a * b
    return min(ONE, a + b)


class Evaluator:
    """Folds a formula AST; records every clamped operand in ``clamps``."""

    def __init__(self, family: str, kernel: str, bindings=None, factor=None):
        self.family = family
        self.kernel = kernel
        self.bindings = bindings or {}
        self.factor = factor
        self.clamps: list[Fraction] = []

    def clamp(self, v):
        if v < ZERO or v > ONE:
            self.clamps.append(v)
            return min(max(v, ZERO), ONE)
        return v

    def meet(self, a, b):
        return tnorm(self.clamp(a), self.clamp(b), self.kernel)

    def join(self, a, b):
        return tconorm(self.clamp(a), self.clamp(b), self.kernel)

    def blend(self, a, b):
        return (self.meet(a, b) + self.join(a, b)) / 2

    def combine(self, x, y, is_conj: bool):
        shape = x[0]
        if shape != y[0]:
            raise ValueError("operand shapes differ")
        if shape == "ns":
            if self.kernel != "minmax" or self.family == "plith":
                raise ValueError("nonstandard operands: min/max kernel, ti or if family")
            t_op, f_op = (min_n, max_n) if is_conj else (max_n, min_n)
        else:
            t_op, f_op = (self.meet, self.join) if is_conj else (self.join, self.meet)
        i_op = {"ti": t_op, "if": f_op}.get(self.family, self.blend)
        ops = (t_op, i_op, f_op)
        return (shape, tuple(_map2(shape, op, cx, cy) for op, cx, cy in zip(ops, x[1], y[1])))

    def scaled(self, tr):
        if self.factor is None:
            return tr
        shape, comps = tr
        return (shape, tuple(_scale(shape, c, self.factor) for c in comps))

    def eval(self, node):
        tag = node[0]
        if tag == "lit":
            return self.scaled(node[1])
        if tag == "var":
            return self.scaled(self.bindings[node[1]])
        if tag == "not":
            shape, (t, i, f) = self.eval(node[1])
            return (shape, (f, i, t))
        left, right = self.eval(node[1]), self.eval(node[2])
        if tag == "and":
            return self.combine(left, right, True)
        if tag == "or":
            return self.combine(left, right, False)
        shape, (t, i, f) = left
        return self.combine((shape, (f, i, t)), right, False)


def _map2(shape, op, cx, cy):
    if shape == "interval":
        return (op(cx[0], cy[0]), op(cx[1], cy[1]))
    if shape == "hesitant":
        return tuple(sorted({op(u, v) for u in cx for v in cy}))
    return op(cx, cy)


def _scale(shape, c, q):
    if shape == "single":
        return c * q
    if shape == "interval":
        return (c[0] * q, c[1] * q)
    if shape == "hesitant":
        return tuple(sorted({v * q for v in c}))
    return (c[0] * q, c[1])


# ---------------------------------------------------------------- validation


def component_values(shape, c):
    if shape == "single":
        return [c]
    if shape in ("interval", "hesitant"):
        return list(c)
    return [c[0]]


def validate(tr, psi: Fraction, omega: Fraction) -> list[tuple[str, str]]:
    """Violations as (where, message), in the order the CLI prints them."""
    shape, comps = tr
    out = []
    for where, c in zip("tif", comps):
        for v in component_values(shape, c):
            if v < psi:
                out.append((where, f"value {plain(v)} below lower bound {plain(psi)}"))
            elif v > omega:
                out.append((where, f"value {plain(v)} above upper bound {plain(omega)}"))
    lows = sum(min(component_values(shape, c)) for c in comps)
    highs = sum(max(component_values(shape, c)) for c in comps)
    if lows < 3 * psi:
        out.append(("sum", f"lower sum {plain(lows)} below {plain(3 * psi)}"))
    if highs > 3 * omega:
        out.append(("sum", f"upper sum {plain(highs)} above {plain(3 * omega)}"))
    return out


def classify(t: Fraction, i: Fraction, f: Fraction) -> list[str]:
    """Logics whose defining condition a plain unit-scale triple meets, sorted."""
    n = t + i + f
    labels = []
    if ZERO < n < ONE:
        labels.append("intuitionistic")
    if n == ONE and i == ZERO:
        labels.append("fuzzy")
        if t in (ZERO, ONE) and f in (ZERO, ONE):
            labels.append("boolean")
    if all(ZERO <= v <= ONE for v in (t, i, f)):
        labels.append("multi-valued")
    if n > ONE and t < ONE and f < ONE:
        labels.append("paraconsistent")
    if t == ONE and f == ONE and i == ZERO:
        labels.append("dialetheism")
    if t > ONE:
        labels.append("overtrue")
    return sorted(labels)


# ------------------------------------------------------------- CLI contract


def clamp_note(v: Fraction) -> str:
    return f"degree {float(v)} clamped into [0, 1] for kernel application"


def number_json(n) -> dict:
    return {"kind": KIND_NAME[n[1]], "value": float(n[0])}


def component_json(shape, c) -> dict:
    if shape == "single":
        return {"shape": "single", "kind": "std", "value": float(c)}
    if shape == "interval":
        return {"shape": "interval", "lo": float(c[0]), "hi": float(c[1])}
    if shape == "hesitant":
        return {"shape": "hesitant", "values": [float(v) for v in c]}
    return {"shape": "nonstandard", "members": [number_json(c)]}


def anomaly_members(a: Fraction, b: Fraction, probes: int, seed: int) -> int:
    """Members among the CLI's seeded probes: values drawn on a 1/1000 grid
    over [a - pad, b + pad] with pad = (b - a) / 2, each followed by a draw
    of one of four decorations; rough membership ignores the decoration."""
    rng = Random(seed)
    pad = (b - a) / 2
    lo_k, hi_k = int((a - pad) * 1000), int((b + pad) * 1000)
    members = 0
    for _ in range(probes):
        v = Fraction(rng.randint(lo_k, hi_k), 1000)
        rng.choice("LSRB")
        members += a <= v <= b
    return members
