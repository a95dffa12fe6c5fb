"""Structure of the degree-reduction branch decision.

For a class-number-one field the lattice is a free rank-2 module over the
order, so the alternating forms compatible with the standard action form a
rank-2 lattice, and scanning its coefficients classifies every valid
surface with that action up to basis change. On every degree-p^2 class the
kernel p-torsion comes out as a full factor kernel, so the reduction move
always divides: the quotient branches are unreachable on valid input.
Acceptance criterion 4 (test_criterion_4_branch_coverage) asserts the same
structure on the seeded branch corpus: only divide branches, the kernel
equal to the divide element's mod-p kernel, and both factor arms taken at
split primes.

_branch_decision returns the first factor el whose conjugate's action
x + y*A kills the gram mod p, read as x E + y E A in all 16 entries, on a
kernel p-torsion that p exactly dividing the pfaffian shows to be
2-dimensional. Two former decisions are kept here as references:
kill_kernel_branch_decision, the factor whose action kills the row-reduced
kernel p-torsion, and kernel_equality_branch_decision, the factor whose
canonical mod-p kernel basis equals it. All three give the same branch and
element, the division by that element is exact and, at a split prime, the
division by the other factor is not, on every class of the scan, on the
branch corpus, and on scrambled twists and pull-backs at split and
ramified primes in orders of conductor 1, 3 and 9.

Where the kernel splits across two non-associate factor kernels, the
conductor identity f = a1*b1 + a2*b2 always has a solution, on the branch
corpus and in suborders of conductor 3, 5 and 9; degree reduction
therefore does not call bezout_conductor as an existence check.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmlattice as rm
from rmlattice import intmat
from rmlattice.errors import DescentError, InvariantBreach
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.isogeny import divide_by_symmetric
from rmlattice.reduction import _branch_decision, reduce_degree_step, squarefree_reduce
from rmlattice.surface import (
    apply_unimodular,
    canonicalize_orientation,
    eigen_sublattice_pullback,
    polarization_kernel_mod_p,
)
from test_acceptance import branch_corpus  # noqa: F401  (module-scoped fixture)
from test_intmat_oracles import mat_add, mat_mul, scalar_mul, snf_with_transforms


def kernel_equality_branch_decision(surface, p, factors):
    """The former _branch_decision, kept as the reference: the factor, a1
    tried first, whose canonical mod-p kernel basis equals the kernel
    p-torsion's, with the kernel of the gram mod p computed afresh."""
    kernel_p = intmat.kernel_mod_p(intmat.mat_mod(surface.gram, p), p)
    for el in factors:
        ker_el = intmat.kernel_mod_p(intmat.mat_mod(rm.element_action(surface, el), p), p)
        if ker_el == kernel_p:
            if surface.order.discriminant % p == 0:
                return "associate_divide", el
            return "split_divide", el
    raise InvariantBreach(
        f"kernel p-torsion at {p} is not the mod-p kernel of a factor of {p}"
    )


def kill_kernel_branch_decision(surface, p, factors):
    """The former _branch_decision, kept as the second reference: the
    factor, a1 tried first, whose action kills every vector of the
    row-reduced kernel p-torsion K, with K 2-dimensional."""
    kernel_p = polarization_kernel_mod_p(surface, p)
    if len(kernel_p) == 2:
        for el in factors:
            action = rm.element_action(surface, el)
            if all(x % p == 0 for v in kernel_p for x in intmat.mat_vec(action, v)):
                if surface.order.discriminant % p == 0:
                    return "associate_divide", el
                return "split_divide", el
    raise InvariantBreach(
        f"kernel p-torsion at {p} is not the mod-p kernel of a factor of {p}"
    )


def _decide_like_both_references(stable, p, factors):
    """_branch_decision on a squarefree-stable surface, checked against both
    references and against the divisions by each factor: exact by the
    element it picks, and at a split prime not by the other factor."""
    branch, element = _branch_decision(stable, p, factors)
    assert (branch, element) == kernel_equality_branch_decision(stable, p, factors)
    assert (branch, element) == kill_kernel_branch_decision(stable, p, factors)
    divide_by_symmetric(stable, element)
    if branch == "split_divide":
        (other,) = (el for el in factors if el != element)
        with pytest.raises(DescentError, match="does not contain the kernel of the element"):
            divide_by_symmetric(stable, other)
    return branch, element


def symmetric_form_lattice_basis(surface):
    """Integer basis of the antisymmetric forms E with action^T E = E action."""
    a = surface.action
    positions = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rows = []
    for r in range(4):
        for c in range(4):
            row = []
            for (i, j) in positions:
                val = 0
                if c == j:
                    val += a[i][r]
                if c == i:
                    val -= a[j][r]
                if r == i:
                    val -= a[j][c]
                if r == j:
                    val += a[i][c]
                row.append(val)
            rows.append(tuple(row))
    _, snf, v = snf_with_transforms(intmat.freeze(rows))
    basis = []
    for j in range(6):
        divisor = snf[j][j] if j < len(snf) else 0
        if divisor == 0:
            coeffs = tuple(v[i][j] for i in range(6))
            m = [[0] * 4 for _ in range(4)]
            for (i, jj), cval in zip(positions, coeffs):
                m[i][jj] = cval
                m[jj][i] = -cval
            basis.append(intmat.freeze(m))
    return basis


@pytest.mark.parametrize(
    "D,p",
    [(13, 3), (3, 3), (7, 3), (6, 3), (5, 5), (11, 5), (30, 5), (2, 7)],
)
def test_every_degree_p2_class_takes_a_divide_branch(D, p):
    order = rm.make_order(D, 1)
    factors = rm.factor_prime(order, p)
    assert factors is not None
    base = rm.standard_instance(order)
    basis = symmetric_form_lattice_basis(base)
    assert len(basis) == 2
    branches = set()
    classes = 0
    bound = 60
    for c1 in range(-bound, bound + 1):
        for c2 in range(-bound, bound + 1):
            gram = mat_add(
                scalar_mul(c1, basis[0]), scalar_mul(c2, basis[1])
            )
            pf = intmat.pfaffian4(gram)
            if abs(pf) != p:
                continue
            surface = canonicalize_orientation(order, base.action, gram, pf)
            if rm.validate(surface) is not None:
                continue
            stable, _ = squarefree_reduce(surface, p)
            assert rm.degree(stable) == p * p
            branch, element = _decide_like_both_references(stable, p, factors)
            kernel_el = intmat.kernel_mod_p(
                intmat.mat_mod(rm.element_action(stable, element), p), p
            )
            assert kernel_el == polarization_kernel_mod_p(stable, p)
            branches.add(branch)
            classes += 1
    assert classes > 0
    assert branches <= {"split_divide", "associate_divide"}


def _same_branch_decision(surface, p):
    """Whether squarefree reduction leaves p in the degree; if so, assert
    that _branch_decision and both references agree on the result."""
    stable, _ = squarefree_reduce(surface, p)
    if rm.degree(stable) % p:
        return False
    _decide_like_both_references(stable, p, rm.factor_prime(stable.order, p))
    return True


def test_branch_decision_matches_kernel_equality_on_the_branch_corpus(branch_corpus):
    assert sum(_same_branch_decision(c["surface"], c["prime"]) for c in branch_corpus) > 0


@pytest.mark.parametrize("D", [2, 3, 5, 13, 17])
def test_branch_decision_matches_kernel_equality_at_split_and_ramified_primes(D):
    # each factor's twist and, at a split prime, both eigen-sublattice
    # pull-backs, each also under two random changes of basis
    rng = random.Random(D)
    order = rm.make_order(D, 1)
    base = rm.standard_instance(order)
    kinds = set()
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        kind = rm.splitting_type(order, p)
        if kind == "inert":
            continue
        surfaces = [rm.twist_by_element(base, el, norm=el.norm()) for el in rm.factor_prime(order, p)]
        if kind == "split":
            surfaces += [eigen_sublattice_pullback(base, p, i) for i in (0, 1)]
        for s in surfaces:
            for moved in (s, apply_unimodular(s, random_unimodular(rng)),
                          apply_unimodular(s, random_unimodular(rng))):
                if _same_branch_decision(moved, p):
                    kinds.add(kind)
    assert kinds == ({"split"} if D == 2 else {"split", "ramified"})


def _scrambled_cases():
    """(D, f, p, kind, surface) for each factor's twist of the standard
    instance and, at a split prime, both eigen-sublattice pull-backs, in
    orders of conductor 1, 3 and 9 at the primes with a norm +-p element."""
    cases = []
    for D in (2, 3, 5, 13, 17):
        for f in (1, 3, 9):
            order = rm.make_order(D, f)
            base = rm.standard_instance(order)
            for p in (3, 5, 7, 11, 13, 17):
                kind = rm.splitting_type(order, p)
                factors = rm.factor_prime(order, p) if kind in ("split", "ramified") else None
                if factors is None:
                    continue
                surfaces = [rm.twist_by_element(base, el, norm=el.norm()) for el in factors]
                if kind == "split":
                    surfaces += [eigen_sublattice_pullback(base, p, i) for i in (0, 1)]
                cases += [(D, f, p, kind, s) for s in surfaces]
    return cases


SCRAMBLED = _scrambled_cases()


def test_the_scrambled_cases_cover_split_and_ramified_primes_in_every_conductor():
    assert {(f, kind) for _, f, _, kind, _ in SCRAMBLED} == {
        (f, kind) for f in (1, 3, 9) for kind in ("split", "ramified")
    }


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=st.sampled_from(SCRAMBLED), seed=st.integers(0, 2**32 - 1))
def test_branch_decision_matches_both_references_on_scrambled_twists_and_pullbacks(case, seed):
    _, _, p, _, surface = case
    moved = apply_unimodular(surface, random_unimodular(random.Random(seed)))
    assert _same_branch_decision(moved, p)


def _lines(plane, p):
    """A spanning vector of each line of the plane with basis `plane` over Z/p."""
    a, b = plane
    return [tuple((x + t * y) % p for x, y in zip(a, b)) for t in range(p)] + [b]


@pytest.mark.parametrize("D,p", [(13, 3), (5, 5), (2, 7), (17, 13)])
def test_branch_decision_refuses_a_kernel_that_is_no_factor_kernel(D, p):
    # kernel p-torsion of dimension 0 (p prime to the degree), of dimension
    # 4 (the gram 0 mod p), and at a split prime, on grams no valid surface
    # has, spanned by any line of one factor's kernel and any of the
    # other's: every factor kills the first, none the second, and each
    # kills one line of the others; both decisions refuse them all
    order = rm.make_order(D, 1)
    base = rm.standard_instance(order)
    factors = rm.factor_prime(order, p)
    surfaces = [
        base,
        canonicalize_orientation(order, base.action, scalar_mul(p, base.gram), p * p),
    ]
    if rm.splitting_type(order, p) == "split":
        k1, k2 = (
            intmat.kernel_mod_p(intmat.mat_mod(rm.element_action(base, el), p), p)
            for el in factors
        )
        for v in _lines(k1, p):
            for w in _lines(k2, p):
                m = intmat.kernel_mod_p((v, w), p)  # 2 x 4, with kernel span(v, w)
                gram = mat_add(
                    mat_mul(intmat.transpose(m), mat_mul(((0, 1), (-1, 0)), m)),
                    scalar_mul(p, base.gram),
                )
                kernel = intmat.kernel_mod_p(intmat.mat_mod(gram, p), p)
                assert intmat.span_mod_p(kernel, p) == intmat.span_mod_p((v, w), p)
                pf = intmat.pfaffian4(gram)
                surfaces.append(canonicalize_orientation(order, base.action, gram, pf))
    for surface in surfaces:
        for decide in (_branch_decision, kernel_equality_branch_decision):
            with pytest.raises(InvariantBreach, match="is not the mod-p kernel of a factor"):
                decide(surface, p, factors)


def _bezout_where_kernel_splits(stable, p):
    """Solve the conductor identity wherever degree reduction sees a split kernel.

    Where degree reduction's branch decision on the stabilized surface is
    split_divide (non-associate factors, the kernel p-torsion one factor's
    mod-p kernel), bezout_conductor must succeed and satisfy
    conductor = a1*b1 + a2*b2. Returns whether that case arose.
    """
    order = stable.order
    a1, a2 = rm.factor_prime(order, p)
    if _branch_decision(stable, p, (a1, a2))[0] != "split_divide":
        return False
    b1, b2 = rm.bezout_conductor(a1, a2, order)
    assert a1 * b1 + a2 * b2 == order.element(order.conductor, 0)
    return True


def test_conductor_identity_holds_on_the_branch_corpus(branch_corpus):
    checked = 0
    for case in branch_corpus:
        p = case["prime"]
        stable, _ = squarefree_reduce(case["surface"], p)
        checked += _bezout_where_kernel_splits(stable, p)
    assert checked > 0


@pytest.mark.parametrize("f", [3, 5, 9])
def test_conductor_identity_holds_in_suborders(f):
    checked = 0
    for D in (2, 5, 13, 17, 29):
        order = rm.make_order(D, f)
        for p in (3, 5, 7, 11, 13):
            if f % p == 0 or rm.factor_prime(order, p) is None:
                continue  # degree reduction needs a norm +-p element here
            for seed in range(3):
                surface = generate_instance(D, f, [p], seed)
                stable, _ = squarefree_reduce(surface, p)
                if rm.degree(stable) % p == 0:
                    checked += _bezout_where_kernel_splits(stable, p)
                out, steps = reduce_degree_step(surface, p)
                assert rm.degree(out) % p != 0
                assert steps[-1].branch in (None, "split_divide", "associate_divide")
    assert checked > 0
