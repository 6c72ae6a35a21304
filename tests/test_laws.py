"""The min/max connective laws of the `ti` and `if` families, decided
exactly on the {0, 1} cube.

Under min/max, T and F of a result depend only on the operands' T and
F, and I only on their I.  The (T, F) pairs form the twist product of
[0, 1] with its dual: conjunction takes the min of T and the max of F,
disjunction the reverse, and negation swaps T and F, so they make a De
Morgan algebra.  The four-element De Morgan algebra, the (T, F) pairs in
{0, 1}², generates the variety of De Morgan algebras (Kalman, "Lattices
with involution", 1958), so an identity holds for every (T, F) pair in
[0, 1]² iff it holds on those four.  Negation fixes I, and the I of a
result is a min/max lattice term in the operands' I; the two-element
lattice generates the distributive lattices, so such an identity holds
on [0, 1] iff it holds on {0, 1}.  The families differ only in which
lattice operation I takes, so laws across them are decided the same
way.  Hence an identity in n variables holds iff it holds with every T,
I and F in {0, 1}: 8ⁿ exact evaluations through the public
connectives.  The plithogenic I, the midpoint of min and max, is not a
lattice term, and its conjunction is not associative; one counterexample
on the cube is pinned.

Stdlib only, and no table of the package is read: each law is written
out here.
"""

from itertools import product

from neutrocalc import (
    NeutroTriple,
    OperatorConfig,
    OperatorFamily,
    TNormFamily,
    conj,
    disj,
    impl,
    neg,
)

CUBE = [NeutroTriple.single(t, i, f) for t, i, f in product((0, 1), repeat=3)]
TI = OperatorConfig(OperatorFamily.T_ALIGNED, TNormFamily.MIN_MAX)
IF = OperatorConfig(OperatorFamily.F_ALIGNED, TNormFamily.MIN_MAX)
PLITH = OperatorConfig(OperatorFamily.PLITHOGENIC, TNormFamily.MIN_MAX)


def _laws(c):
    """name -> (lhs, rhs) of each law under c, as functions of the same
    variables."""

    def a(x, y):
        return conj(x, y, c)

    def o(x, y):
        return disj(x, y, c)

    return {
        "conj commutes": (lambda x, y: a(x, y), lambda x, y: a(y, x)),
        "disj commutes": (lambda x, y: o(x, y), lambda x, y: o(y, x)),
        "conj associates": (lambda x, y, z: a(a(x, y), z), lambda x, y, z: a(x, a(y, z))),
        "disj associates": (lambda x, y, z: o(o(x, y), z), lambda x, y, z: o(x, o(y, z))),
        "conj idempotent": (lambda x: a(x, x), lambda x: x),
        "disj idempotent": (lambda x: o(x, x), lambda x: x),
        "conj absorbs disj": (lambda x, y: a(x, o(x, y)), lambda x, y: x),
        "disj absorbs conj": (lambda x, y: o(x, a(x, y)), lambda x, y: x),
        "conj distributes": (
            lambda x, y, z: a(x, o(y, z)),
            lambda x, y, z: o(a(x, y), a(x, z)),
        ),
        "disj distributes": (
            lambda x, y, z: o(x, a(y, z)),
            lambda x, y, z: a(o(x, y), o(x, z)),
        ),
        "impl is disj of neg": (lambda x, y: impl(x, y, c), lambda x, y: o(neg(x), y)),
    }


def _failures(lhs, rhs, key=lambda r: r):
    """The points of the cube, one per variable of lhs, where key of the
    two sides differs."""
    arity = lhs.__code__.co_argcount
    return [p for p in product(CUBE, repeat=arity) if key(lhs(*p)) != key(rhs(*p))]


def _t_and_f(r):
    return r.t, r.f


def _de_morgan(inner, outer, c, d):
    """The two sides of neg(inner(x, y)) == outer(neg(x), neg(y)), inner
    under c and outer under d."""
    return (lambda x, y: neg(inner(x, y, c))), (lambda x, y: outer(neg(x), neg(y), d))


def test_lattice_laws_and_impl_hold_on_the_cube():
    for c in (TI, IF):
        for name, (lhs, rhs) in _laws(c).items():
            assert not _failures(lhs, rhs), f"{c.family.value}: {name}"


def test_de_morgan_on_t_and_f_within_each_family():
    for c in (TI, IF):
        for inner, outer in ((conj, disj), (disj, conj)):
            failed = _failures(*_de_morgan(inner, outer, c, c), _t_and_f)
            assert not failed, f"{c.family.value}: {inner.__name__}"


def test_de_morgan_across_families_on_every_component():
    for c, d in ((TI, IF), (IF, TI)):
        for inner, outer in ((conj, disj), (disj, conj)):
            failed = _failures(*_de_morgan(inner, outer, c, d))
            assert not failed, f"{c.family.value}: {inner.__name__}"


def test_within_a_family_de_morgan_fails_on_i():
    # Within a family the law holds on T and F only: after the swap, the
    # family's I takes the other lattice operation.
    x, y = NeutroTriple.single(0, 1, 0), NeutroTriple.single(0, 0, 0)
    for c in (TI, IF):
        lhs, rhs = _de_morgan(conj, disj, c, c)
        assert lhs(x, y).i != rhs(x, y).i


def test_plithogenic_conjunction_is_not_associative():
    lhs, rhs = _laws(PLITH)["conj associates"]
    x, y = NeutroTriple.single(0, 1, 0), NeutroTriple.single(0, 0, 0)
    assert (x, y, y) in _failures(lhs, rhs)
    assert str(lhs(x, y, y).i) == "0.25" and str(rhs(x, y, y).i) == "0.5"
