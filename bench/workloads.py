"""Seeded workload generators.

Each generator takes the seed and returns a list of ``(desc, expected)``
pairs.  ``desc`` is plain JSON data describing one operation (see
ops.py); ``expected`` is its output computed by reference.py.  The mix of
operation types, literal counts and shapes is fixed by index, so every
seed yields the same composition and only values and tree structure
vary; that keeps medians comparable between seeds.

Input-size envelope (kept far inside the recursion and cardinality
limits the evaluator is expected to enforce):

=================  ==========  =============  ===========================
workload           literals    binary ops     hesitant values
=================  ==========  =============  ===========================
formula_mixed      2-16        <= 15          none
hesitant_product   2-4         <= 3           2-4 per literal, <= 256 out
decorated_order    2-8         <= 7           none; 2-8 numbers per set
cli_oneshot        1-6         <= 5           2-3 per literal, <= 27 out
=================  ==========  =============  ===========================

Parentheses nest at most 2n - 1 deep for n literals (one pair per tree edge).
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

import reference as ref
from reference import plain, render_number, render_triple

FAMILIES = ("ti", "if", "plith")
KERNELS = ("minmax", "product", "luk")
SYMBOL = {"and": "&", "or": "|", "impl": "->"}
PREC = {"impl": 1, "or": 2, "and": 3, "not": 4, "lit": 5, "var": 5}


def _spread(rng: Random, total: int, shares: dict) -> list:
    """Exactly round(share * total) copies of each key, shuffled."""
    out = []
    for key, share in shares.items():
        out += [key] * round(share * total)
    out += [next(iter(shares))] * (total - len(out))
    rng.shuffle(out)
    return out[:total]


# ------------------------------------------------------------------ formulas


def random_tree(rng: Random, leaves: list, neg: float = 0.15, impl: float = 0.2,
                balanced: bool = False):
    if len(leaves) == 1:
        node = leaves[0]
    else:
        k = len(leaves) // 2 if balanced else rng.randint(1, len(leaves) - 1)
        r = rng.random()
        op = "impl" if r < impl else ("and" if r < (1 + impl) / 2 else "or")
        node = (op, random_tree(rng, leaves[:k], neg, impl, balanced),
                random_tree(rng, leaves[k:], neg, impl, balanced))
    if rng.random() < neg:
        node = ("not", node)
    return node


def render(rng: Random, node, extra_parens: float = 0.1) -> str:
    """Formula text with the parentheses the grammar needs, plus a few more."""

    def wrap(child, needed: bool) -> str:
        text = render(rng, child, extra_parens)
        return f"({text})" if needed or rng.random() < extra_parens else text

    tag = node[0]
    if tag == "lit":
        return render_triple(node[1])
    if tag == "var":
        return node[1]
    if tag == "not":
        return "!" + wrap(node[1], PREC[node[1][0]] < PREC["not"])
    p, lp, rp = PREC[tag], PREC[node[1][0]], PREC[node[2][0]]
    # -> is right-associative, & and | are left-associative.
    left = wrap(node[1], lp < p or (tag == "impl" and lp == p))
    right = wrap(node[2], rp < p or (tag != "impl" and rp == p))
    return f"{left} {SYMBOL[tag]} {right}"


def _value(rng: Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def _single(draw):
    return ("single", (draw(), draw(), draw()))


def _interval(draw):
    return ("interval", tuple(tuple(sorted((draw(), draw()))) for _ in range(3)))


def _hesitant(rng, draw, lo: int, hi: int, sizes: Random | None = None):
    comps = []
    for _ in range(3):
        size = (sizes or rng).randint(lo, hi)
        vals = set()
        while len(vals) < size:
            vals.add(draw())
        comps.append(tuple(sorted(vals)))
    return ("hesitant", tuple(comps))


def _decorated_literal(rng, draw):
    kinds = [rng.choice("LSR") for _ in range(3)]
    if "S" == kinds[0] == kinds[1] == kinds[2]:
        kinds[rng.randrange(3)] = rng.choice("LR")
    return ("ns", tuple((draw(), k) for k in kinds))


def _evaluate(formula: str, family: str, kernel: str, scale="unit", psi="0", omega="1",
              bindings=None) -> dict:
    return {
        "op": "evaluate",
        "formula": formula,
        "family": family,
        "tnorm": kernel,
        "scale": scale,
        "psi": psi,
        "omega": omega,
        "bindings": {k: render_triple(v) for k, v in (bindings or {}).items()},
    }


def _expected_triple(tree, family, kernel, bindings=None, factor=None):
    result = ref.Evaluator(family, kernel, bindings, factor).eval(tree)
    return {"shape": result[0], "text": render_triple(result)}


def distinguishing_pairs() -> list:
    """Pairs of evaluations whose outputs differ only in one decoration, or
    only in one value by 1e-7; the checker must tell each pair apart."""

    def item(first, second, op, family, kernel):
        tree = (op, ("lit", first), ("lit", second))
        return _evaluate(render(Random(0), tree, 0), family, kernel), _expected_triple(tree, family, kernel)

    q = Fraction
    ns_other = ("ns", ((q(1, 2), "S"), (q(2, 5), "S"), (q(3, 10), "R")))
    single_other = ("single", (q(1, 10), q(1, 10), q(1, 10)))
    return [
        (item(("ns", ((q(1, 2), "L"), (q(1, 5), "S"), (q(3, 10), "R"))), ns_other, "and", "ti", "minmax"),
         item(("ns", ((q(1, 2), "S"), (q(1, 5), "S"), (q(3, 10), "R"))), ns_other, "and", "ti", "minmax")),
        (item(("single", (q(1, 2), q(1, 5), q(3, 10))), single_other, "or", "plith", "product"),
         item(("single", (q(5000001, 10**7), q(1, 5), q(3, 10))), single_other, "or", "plith", "product")),
    ]


def formula_mixed(seed: int, size: int = 1200) -> list:
    """evaluate() over 2-16 literal formulas: 70% single-valued and 30%
    interval-valued formulas, all nine configs in turn; 10% each use
    bindings, percent scale, or bounds [-0.5, 1.5] with offset literals.
    Every 50th item is the largest case, 16 interval-valued literals on
    the percent scale, and the rest have 2-10 literals, so the p99 latency
    falls inside the cluster of largest cases."""
    rng = Random(f"formula_mixed:{seed}")
    shapes = _spread(rng, size, {"single": 0.7, "interval": 0.3})
    variants = _spread(rng, size, {"plain": 0.7, "bind": 0.1, "percent": 0.1, "offset": 0.1})
    items = []
    for idx in range(size):
        family, kernel = FAMILIES[idx % 3], KERNELS[idx // 3 % 3]
        largest = idx % 50 == 0
        n = 16 if largest else 2 + idx % 9
        variant = "percent" if largest else variants[idx]
        if variant == "percent":
            draw = lambda: _value(rng, 0, 1000, 10)
        elif variant == "offset":
            draw = lambda: _value(rng, -500, 1500, 1000) if rng.random() < 0.25 else _value(rng, 0, 1000, 1000)
        else:
            draw = lambda: _value(rng, 0, 1000, 1000)
        make = _interval if largest or shapes[idx] == "interval" else _single
        leaves = [("lit", make(draw)) for _ in range(n)]
        bindings = {}
        if variant == "bind":
            names = [f"x{j}" for j in range(rng.randint(1, min(3, n)))]
            bindings = {name: make(draw) for name in names}
            for j, pos in enumerate(rng.sample(range(n), max(len(names), n // 3))):
                leaves[pos] = ("var", names[j] if j < len(names) else rng.choice(names))
        tree = random_tree(rng, leaves)
        factor = Fraction(1, 100) if variant == "percent" else None
        expected = _expected_triple(tree, family, kernel, bindings, factor)
        desc = _evaluate(
            render(rng, tree), family, kernel,
            scale="percent" if variant == "percent" else "unit",
            psi="-0.5" if variant == "offset" else "0",
            omega="1.5" if variant == "offset" else "1",
            bindings=bindings,
        )
        items.append((desc, expected))
    rng.shuffle(items)
    return items


def hesitant_product(seed: int, size: int = 350) -> list:
    """evaluate() over hesitant literals with product and Lukasiewicz
    kernels under all three families.  Every 50th item is the largest
    case: four literals of four values per component, product kernel,
    balanced tree (256 output values per component).  The rest have 2 or
    3 literals of 2-4 values.  Set sizes depend on the item index only,
    so every seed has the same spread of product sizes, and the p99
    latency falls inside the cluster of largest cases."""
    rng = Random(f"hesitant_product:{seed}")
    draw = lambda: _value(rng, 0, 100, 100)
    items = []
    for idx in range(size):
        largest = idx % 50 == 0
        family = FAMILIES[idx % 3]
        kernel = "product" if largest else ("product", "luk")[idx // 3 % 2]
        sizes = Random(idx)
        leaves = [("lit", _hesitant(rng, draw, 4 if largest else 2, 4, sizes))
                  for _ in range(4 if largest else 2 + idx % 2)]
        tree = random_tree(rng, leaves, balanced=largest)
        expected = _expected_triple(tree, family, kernel)
        items.append((_evaluate(render(rng, tree), family, kernel), expected))
    rng.shuffle(items)
    return items


# ------------------------------------------------------------ decorated order


def _decorated_numbers(rng: Random, count: int, kinds: str, grid: int = 20) -> list:
    """Decorated numbers where each new one reuses an earlier value half the time."""
    out = []
    for _ in range(count):
        if out and rng.random() < 0.5:
            v = rng.choice(out)[0]
        else:
            v = _value(rng, 0, grid, grid)
        out.append((v, rng.choice(kinds)))
    return out


def _num(n) -> list:
    return [str(n[0]), n[1]]


def decorated_order(seed: int, size: int = 2000) -> list:
    """Three fifths direct order queries (about half of the drawn pairs
    share a value, so decorations decide), two fifths evaluate() of
    nonstandard formulas under the ti and if families with the min/max
    kernel."""
    rng = Random(f"decorated_order:{seed}")
    # The median operation falls inside the tight cost cluster of contains
    # batches and the p99 one inside the 2% of large anomaly checks, so
    # neither statistic sits on the edge between two kinds of operation.
    kinds = _spread(rng, size, {
        "evaluate": 0.42, "compare": 0.16, "fold": 0.1, "bound": 0.1,
        "contains": 0.2, "anomaly": 0.02,
    })
    draw = lambda: _value(rng, 0, 20, 20)
    items = []
    evaluated = 0
    for kind in kinds:
        if kind == "evaluate":
            family = ("ti", "if")[evaluated % 2]
            leaves = [("lit", _decorated_literal(rng, draw)) for _ in range(2 + evaluated % 7)]
            evaluated += 1
            tree = random_tree(rng, leaves)
            expected = _expected_triple(tree, family, "minmax")
            items.append((_evaluate(render(rng, tree), family, "minmax"), expected))
        elif kind == "compare":
            x, y = _decorated_numbers(rng, 2, "LSRB")
            items.append(({"op": "compare", "x": _num(x), "y": _num(y)}, ref.order(x, y)))
        elif kind == "fold":
            xs = _decorated_numbers(rng, rng.randint(2, 8), "LSR")
            which = rng.choice(("min", "max"))
            step = ref.min_n if which == "min" else ref.max_n
            acc = xs[0]
            for x in xs[1:]:
                acc = step(acc, x)
            items.append(({"op": which, "xs": [_num(x) for x in xs]}, render_number(acc)))
        elif kind == "bound":
            xs = _decorated_numbers(rng, rng.randint(2, 8), "LSRB")
            which = rng.choice(("inf", "sup"))
            result = ref.inf_set(xs) if which == "inf" else ref.sup_set(xs)
            items.append(({"op": which, "xs": [_num(x) for x in xs]}, render_number(result)))
        elif kind == "contains":
            while True:
                lo, hi = sorted(_decorated_numbers(rng, 2, "LSRB"))
                if ref.order(lo, hi) in ref.AT_MOST:
                    break
            probes = []
            for _ in range(16):
                v = rng.choice((lo[0], hi[0])) if rng.random() < 0.5 else draw()
                probes.append((v, rng.choice("LSRB")))
            expected = [ref.contains(lo, hi, p) for p in probes]
            desc = {"op": "contains", "lo": _num(lo), "hi": _num(hi),
                    "probes": [_num(p) for p in probes]}
            items.append((desc, expected))
        else:
            a, b = sorted(rng.sample(range(21), 2))
            a, b = Fraction(a, 20), Fraction(b, 20)
            probes = [(_value(rng, int(a * 100) - 20, int(b * 100) + 20, 100), rng.choice("LSRB"))
                      for _ in range(200)]
            inside = [a <= v <= b for v, _ in probes]
            expected = {
                "outer": f"]{plain(a)}, R({plain(b)})[",
                "inner": f"]R({plain(a)}), L({plain(b)})[",
                "outer_membership": inside,
                "inner_membership": inside,
            }
            desc = {"op": "anomaly", "a": str(a), "b": str(b), "probes": [_num(p) for p in probes]}
            items.append((desc, expected))
    return items


# --------------------------------------------------------------------- CLI


def _cli(argv, code=0, out="", err=(), err_prefix=None, json_out=None) -> tuple:
    """An expected CLI outcome: exit code, stdout (text, or parsed JSON with
    sorted warnings), and stderr as sorted lines or a required prefix."""
    expected = {
        "code": code,
        "out": json_out if json_out is not None else out,
        "json": json_out is not None,
        "err": sorted(err),
        "err_prefix": err_prefix,
    }
    return {"op": "cli", "argv": argv}, expected


def _cli_eval(rng: Random, idx: int, draw) -> tuple:
    as_json = rng.random() < 0.4
    shape = ("single", "single", "interval", "hesitant", "ns")[idx % 5]
    family = rng.choice(FAMILIES)
    kernel = rng.choice(KERNELS)
    psi, omega = Fraction(0), Fraction(1)
    if shape == "ns":
        family, kernel = rng.choice(("ti", "if")), "minmax"
        make = lambda: _decorated_literal(rng, lambda: _value(rng, 0, 20, 20))
    elif shape == "hesitant":
        make = lambda: _hesitant(rng, draw, 2, 3)
    elif shape == "interval":
        make = lambda: _interval(draw)
    else:
        offset = rng.random() < 0.3
        if offset:
            psi, omega = Fraction(-1, 2), Fraction(3, 2)
            make = lambda: _single(lambda: _value(rng, -500, 1500, 1000))
        else:
            make = lambda: _single(draw)
    n = rng.randint(1, 3) if shape == "hesitant" else rng.randint(1, 6)
    leaves = [("lit", make()) for _ in range(n)]
    bindings = {}
    if rng.random() < 0.2:
        bindings = {"x": make()}
        leaves[0] = ("var", "x")
    tree = random_tree(rng, leaves)
    argv = ["eval", render(rng, tree), "--family", family, "--tnorm", kernel]
    if psi != 0 or omega != 1:
        argv += [f"--psi={plain(psi)}", f"--omega={plain(omega)}"]
    for name, tr in bindings.items():
        argv += ["--bind", f"{name}={render_triple(tr)}"]
    if as_json:
        argv.append("--json")
    ev = ref.Evaluator(family, kernel, bindings)
    result = ev.eval(tree)
    notes = [ref.clamp_note(v) for v in ev.clamps]
    if as_json:
        payload = {
            "result": {k: ref.component_json(result[0], c) for k, c in zip("tif", result[1])},
            "config": {"family": family, "tnorm": kernel, "scale": "unit",
                       "psi": float(psi), "omega": float(omega)},
            "warnings": sorted(notes),
        }
        return _cli(argv, json_out=payload)
    return _cli(argv, out=render_triple(result) + "\n", err=[f"warning: {n}" for n in notes])


def _cli_error(rng: Random, idx: int, draw) -> tuple:
    """Inputs the CLI must reject with a typed error and exit code 1 or 2."""
    lit = lambda: render_triple(_single(draw))
    case = idx % 4
    if case == 0:  # truncated formula: syntax error
        text = f"{lit()} & " + lit()[:-1]
        return _cli(["eval", text], code=2, err_prefix="error: ")
    if case == 1:  # literal outside the unit bounds
        bad = ("single", (Fraction(rng.randint(1001, 1500), 1000), draw(), draw()))
        good = _single(draw)
        violations = ref.validate(bad, Fraction(0), Fraction(1))
        detail = "; ".join(f"{w}: {m}" for w, m in violations)
        msg = f"error: literal {render_triple(bad)} outside active bounds: {detail}"
        return _cli(["eval", f"{render_triple(good)} | {render_triple(bad)}"], code=1, err=[msg])
    if case == 2:  # anomaly demo with a >= b
        a = _value(rng, 10, 20, 20)
        b = a - _value(rng, 0, 10, 20)
        return _cli(["anomaly", "--a", plain(a), "--b", plain(b)], code=1,
                    err=["error: anomaly check requires a < b"])
    return _cli(["eval", lit(), "--family", "bogus"], code=2, err_prefix="usage: neutrocalc eval")


def cli_oneshot(seed: int, size: int = 800) -> list:
    """In-process cli.main(argv) over all eight subcommands, text and --json,
    with about one call in ten an input the CLI must reject."""
    rng = Random(f"cli_oneshot:{seed}")
    # The 2% of anomaly demos with 400 probes are the slowest calls, so the
    # p99 latency falls inside their cluster rather than on its edge.
    commands = _spread(rng, size, {
        "eval": 0.3, "error": 0.1, "compare": 0.1, "rough-compare": 0.1, "interval": 0.1,
        "classify": 0.1, "validate": 0.1, "table": 0.08, "anomaly": 0.02,
    })
    draw = lambda: _value(rng, 0, 1000, 1000)
    items = []
    seen = {"eval": 0, "error": 0}
    for command in commands:
        as_json = rng.random() < 0.4
        flag = ["--json"] if as_json else []
        if command in seen:
            make = _cli_eval if command == "eval" else _cli_error
            items.append(make(rng, seen[command], draw))
            seen[command] += 1
        elif command in ("compare", "rough-compare"):
            x, y = _decorated_numbers(rng, 2, "LSRB")
            if command == "compare":
                rel = ref.order(x, y)
            else:
                rel = "≈" if x[0] == y[0] else ("≲" if x[0] < y[0] else "≳")
            argv = [command, render_number(x), render_number(y)] + flag
            payload = {"x": ref.number_json(x), "y": ref.number_json(y), "relation": rel}
            items.append(_cli(argv, out=rel + "\n", json_out=payload if as_json else None))
        elif command == "interval":
            while True:
                lo, hi = sorted(_decorated_numbers(rng, 2, "LSRB"))
                if ref.order(lo, hi) in ref.AT_MOST:
                    break
            which = rng.choice(("inf", "sup"))
            spell = lambda n: f"{rng.choice((ref.KIND_NAME[n[1]], n[1].lower(), n[1]))}:{plain(n[0])}"
            argv = ["interval", which, "--lo", spell(lo), "--hi", spell(hi)] + flag
            result = lo if which == "inf" else hi
            payload = {"which": which, "result": ref.number_json(result)}
            items.append(_cli(argv, out=render_number(result) + "\n",
                              json_out=payload if as_json else None))
        elif command == "classify":
            percent = rng.random() < 0.3
            grid = rng.choice((4, 10, 1000))
            t, i, f = (_value(rng, 0, int(grid * 1.2), grid) for _ in range(3))
            argv = ["classify"] + [plain(v * 100 if percent else v) for v in (t, i, f)]
            argv += (["--scale", "percent"] if percent else []) + flag
            labels = ref.classify(t, i, f)
            items.append(_cli(argv, out="".join(l + "\n" for l in labels),
                              json_out={"labels": labels} if as_json else None))
        elif command == "validate":
            widened = rng.random() < 0.3
            psi, omega = (Fraction(-1, 2), Fraction(3, 2)) if widened else (Fraction(0), Fraction(1))
            t, i, f = (_value(rng, -300, 1300, 1000) for _ in range(3))
            argv = ["validate", plain(t), plain(i), plain(f)]
            if widened:
                argv += [f"--psi={plain(psi)}", f"--omega={plain(omega)}"]
            argv += flag
            violations = ref.validate(("single", (t, i, f)), psi, omega)
            code = 1 if violations else 0
            if as_json:
                payload = {"ok": not violations,
                           "violations": [{"where": w, "message": m} for w, m in violations]}
                items.append(_cli(argv, code=code, json_out=payload))
            else:
                text = "".join(f"{w}: {m}\n" for w, m in violations) or "pass\n"
                items.append(_cli(argv, code=code, out=text))
        elif command == "table":
            a, b = _decorated_numbers(rng, 2, "S")
            rows = ["kind_a\tkind_b\trelation"] + [
                f"{ref.KIND_NAME[ka]}\t{ref.KIND_NAME[kb]}\t{ref.order((a[0], ka), (b[0], kb))}"
                for ka in "SLRB" for kb in "SLRB"
            ]
            argv = ["table", "inequalities", "--a", plain(a[0]), "--b", plain(b[0])]
            items.append(_cli(argv, out="".join(r + "\n" for r in rows)))
        else:
            a, b = sorted(rng.sample(range(-10, 31), 2))
            a, b = Fraction(a, 20), Fraction(b, 20)
            probes, aseed = 400, rng.randint(0, 10**6)
            members = ref.anomaly_members(a, b, probes, aseed)
            outer, inner = f"]{plain(a)}, R({plain(b)})[", f"]R({plain(a)}), L({plain(b)})["
            argv = ["anomaly", "--a", plain(a), "--b", plain(b), "--probes", str(probes),
                    "--seed", str(aseed)] + flag
            payload = {"outer": outer, "inner": inner, "probes": probes, "members": members,
                       "discrepancies": 0, "memberships_coincide": True}
            text = (
                f"outer interval: {outer}\ninner interval: {inner}\nprobes: {probes}\n"
                f"members of each: {members}\ndiscrepancies: 0\n"
                "membership predicates coincide: the nominally wider and narrower "
                "intervals contain exactly the same probes\n"
            )
            items.append(_cli(argv, out=text, json_out=payload if as_json else None))
    return items


WORKLOADS = {
    "formula_mixed": formula_mixed,
    "hesitant_product": hesitant_product,
    "decorated_order": decorated_order,
    "cli_oneshot": cli_oneshot,
}


def matches(desc: dict, expected, got) -> bool:
    """Compare a canonical program output (ops.canonical) with the reference."""
    if desc["op"] != "cli":
        return got == expected
    code, out, err = got
    if code != expected["code"]:
        return False
    if expected["json"]:
        try:
            out = json.loads(out)
        except ValueError:
            return False
        if isinstance(out, dict) and isinstance(out.get("warnings"), list):
            out["warnings"] = sorted(out["warnings"])
    if out != expected["out"]:
        return False
    if expected["err_prefix"] is not None:
        return err.startswith(expected["err_prefix"])
    return sorted(err.splitlines()) == expected["err"]
