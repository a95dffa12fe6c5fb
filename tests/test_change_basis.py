"""The change of basis by forward substitution on Hermite bases against the
adjugate route it replaced and against the full-product route, the
unimodular scramble against the adjugate reference, the refusal of any
other basis, and the one elimination mod p (hnf_mod_p, span_mod_p and
rank_mod_p) against sympy.

reference_change_basis is surface.change_basis as it stood before forward
substitution: the closed-form adjugate, two full 4x4 products and an exact
division by the determinant, for any nonsingular basis.
full_product_change_basis is the forward substitution on full products:
the whole congruence basis^T E basis as two generic products divided by the
gram's divisor (div_exact, from test_intmat_oracles), and the whole product A basis, where
change_basis leaves out the basis's zeros and the gram's zero diagonal.
Both return a fresh pfaffian of their gram, against which change_basis's
carried one, det(basis) pf / gram_den^2, is checked.
"""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix

from rmlattice import intmat, make_order
from rmlattice.arith import rational_text
from rmlattice.errors import DescentError, PreconditionError
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.reduction import enlargement_kernel
from rmlattice.surface import (
    PolarizedRMSurface,
    _exact_row,
    _hyperplane_basis,
    apply_unimodular,
    canonicalize_orientation,
    change_basis,
    rebase,
    standard_instance,
)
from test_intmat_oracles import div_exact, mod_p_rows

NOT_HERMITE = "a change of basis needs a lower-triangular basis with a positive diagonal"
PRIMES = (3, 5, 7, 11)


def _congruence(e, basis):
    """basis^T e basis, all sixteen entries, from two generic products."""
    return intmat.mat_mul(intmat.transpose(basis), intmat.mat_mul(e, basis))


def reference_change_basis(surface, basis, gram_den):
    """(action, gram, pf): adj(basis) A basis / det(basis), basis^T E basis
    / gram_den, the gram checked first, and that gram's pfaffian."""
    full = _congruence(surface.gram, basis)
    gram = div_exact(full, gram_den)
    if gram is None:
        i, j = next((i, j) for i in range(4) for j in range(4) if full[i][j] % gram_den)
        raise DescentError(
            "polarization does not descend: pairing of overlattice "
            f"generators {i} and {j} is {rational_text(full[i][j], gram_den)}, "
            "not integral"
        )
    adj = intmat.adjugate(basis)
    d = sum(basis[0][k] * adj[k][0] for k in range(4))  # (basis @ adj)[0][0]
    action = div_exact(intmat.mat_mul(intmat.mat_mul(adj, surface.action), basis), d)
    if action is None:
        raise PreconditionError("order action does not preserve the lattice")
    return action, gram, intmat.pfaffian4(gram)


def full_product_change_basis(surface, basis, gram_den):
    """change_basis by forward substitution on the full products."""
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = basis
    if b01 or b02 or b03 or b12 or b13 or b23 or min(b00, b11, b22, b33) <= 0:
        raise PreconditionError(NOT_HERMITE)
    full = _congruence(surface.gram, basis)
    gram = div_exact(full, gram_den)
    if gram is None:
        i, j = next((i, j) for i in range(4) for j in range(4) if full[i][j] % gram_den)
        raise DescentError(
            "polarization does not descend: pairing of overlattice "
            f"generators {i} and {j} is {rational_text(full[i][j], gram_den)}, "
            "not integral"
        )
    x = intmat.mat_mul(surface.action, basis)
    m = []
    for i in range(4):
        m.append(_exact_row(basis[i][i], *(
            x[i][j] - sum(basis[i][k] * m[k][j] for k in range(i)) for j in range(4)
        )))
    return tuple(m), gram, intmat.pfaffian4(gram)


def reference_apply_unimodular(surface, u):
    if intmat.det(u) not in (1, -1):
        raise PreconditionError("basis change must be unimodular")
    return canonicalize_orientation(surface.order, *reference_change_basis(surface, u, 1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DescentError, PreconditionError) as exc:
        return type(exc), str(exc)


@cache
def _surfaces():
    """Scrambled generated surfaces, with gram entries from 5 bits to past
    2^64 (80 and 408 bits at conductors 3^5 and 3^6), and each scrambled
    again by a product of sixteen random unimodular matrices, which takes
    some action entries past 2^64 too."""
    rng = random.Random(37)
    made = [
        generate_instance(*args)
        for args in [
            (5, 1, [11], 1),
            (5, 9, [11], 1),
            (13, 7, [3], 2),
            (2, 25, [7], 3),
            (17, 1, [13, 19], 4),
            (5, 3**5, [11], 1),
            (5, 3**6, [11, 19], 2),
        ]
    ]
    for s in list(made):
        u = intmat.identity()
        for _ in range(16):
            u = intmat.mat_mul(u, random_unimodular(rng))
        made.append(apply_unimodular(s, u))
    assert max(abs(x) for s in made for row in s.action for x in row) > 2**64
    return tuple(made)


@st.composite
def hermite_bases(draw):
    """(surface, basis, gram_den): a Hermite basis of one of four kinds for a
    prime p, with gram_den 1, p or p^2."""
    surface = draw(st.sampled_from(_surfaces()))
    p = draw(st.sampled_from(PRIMES))
    residues = st.integers(0, p - 1)
    kind = draw(st.sampled_from(("subspace", "hyperplane", "enlargement", "identity")))
    if kind == "subspace":
        vectors = draw(st.lists(st.tuples(residues, residues, residues, residues), max_size=4))
        basis = intmat.hnf_mod_p(vectors, p)
    elif kind == "hyperplane":
        v = list(draw(st.tuples(residues, residues, residues, residues)))
        v[draw(st.integers(0, 3))] = draw(st.integers(1, p - 1))
        basis = _hyperplane_basis(v, p)
    elif kind == "enlargement":
        # the action's columns mod p, which have rank 2 only where p divides
        # the conductor; enlargement_kernel refuses any other rank
        basis = intmat.hnf_mod_p(zip(*surface.action), p)
    else:
        basis = intmat.identity()
    return surface, basis, draw(st.sampled_from((1, p, p * p)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(hermite_bases())
def test_change_basis_matches_the_adjugate_reference(case):
    assert _outcome(change_basis, *case) == _outcome(reference_change_basis, *case)


def test_each_outcome_of_the_reference_is_reached():
    # one kernel that descends, one that does not, and one sublattice the
    # action does not preserve, each the same as the reference's
    s = generate_instance(5, 9, [11], 1)
    line = intmat.hnf_mod_p([(1, 0, 0, 0)], 3)  # Z e_0 + 3 Z^4
    cases = {
        "descends": (s, enlargement_kernel(s, 3).basis, 3),
        "does not descend": (s, line, 9),
        "not preserved": (s, line, 1),
    }
    got = {name: _outcome(change_basis, *case) for name, case in cases.items()}
    assert got == {name: _outcome(reference_change_basis, *case) for name, case in cases.items()}
    # det(basis) 9 (two unit and two diagonal entries 3) times pf 11 over 3^2
    assert got["descends"][2] == 11
    assert got["does not descend"][0] is DescentError
    assert got["not preserved"] == (
        PreconditionError, "order action does not preserve the lattice"
    )


def _random_case(rng):
    """(surface, basis, gram_den) for change_basis with no surface behind it:
    an alternating gram with entries up to 2^200, a lower-triangular basis
    with a positive diagonal (one in ten broken above the diagonal or on
    it), an action that preserves the lattice, misses it by one entry or is
    arbitrary, and gram_den 1, p or p^2. Entries are often 0, p or p^2
    times a random one, so that every pairing can be the first that
    gram_den does not divide."""
    p = rng.choice(PRIMES)

    def entry(bits):
        return rng.choice((0, 0, 1, p, p * p)) * rng.randint(-(2**bits), 2**bits)

    diag = [rng.choice((1, p, p * p, rng.randint(1, 2**20))) for _ in range(4)]
    basis = [
        [diag[i] if i == j else entry(rng.choice((4, 64))) if j < i else 0 for j in range(4)]
        for i in range(4)
    ]
    if rng.random() < 0.1:
        i, j = rng.choice([(i, j) for i in range(4) for j in range(i, 4)])
        basis[i][j] = rng.randint(-3, 0) if i == j else rng.choice((-1, 1)) * rng.randint(1, 9)
    basis = intmat.freeze(basis)
    upper = {(i, j): entry(200) for i in range(4) for j in range(i + 1, 4)}
    gram = intmat.freeze(
        [upper[i, j] if i < j else -upper[j, i] if i > j else 0 for j in range(4)]
        for i in range(4)
    )
    action = [[rng.randint(-(2**200), 2**200) for _ in range(4)] for _ in range(4)]
    kind = rng.choice(("arbitrary", "preserving", "off by one"))
    if kind != "arbitrary" and min(basis[i][i] for i in range(4)) > 0:
        # basis N adj(basis) acts on the lattice by det(basis) N
        action = intmat.mat_mul(intmat.mat_mul(basis, action), intmat.adjugate(basis))
        action = [list(row) for row in action]
        if kind == "off by one":
            action[rng.randrange(4)][rng.randrange(4)] += 1
    surface = PolarizedRMSurface(make_order(5, 1), intmat.freeze(action), gram)
    return surface, basis, rng.choice((1, p, p * p))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_change_basis_matches_the_full_product_route(seed):
    case = _random_case(random.Random(seed))
    assert _outcome(change_basis, *case) == _outcome(full_product_change_basis, *case)


def test_the_random_cases_reach_every_outcome():
    # a success, each of the six pairings as the first non-integral one, an
    # action that does not preserve the lattice and a basis refused, each the
    # same as the full-product route's
    seen = set()
    for seed in range(600):
        case = _random_case(random.Random(seed))
        got = _outcome(change_basis, *case)
        assert got == _outcome(full_product_change_basis, *case)
        if got[0] is DescentError:
            seen.add(got[1][: got[1].index(" is ")])
        else:
            seen.add(got[1] if got[0] is PreconditionError else "changed")
    assert seen == {
        "changed",
        NOT_HERMITE,
        "order action does not preserve the lattice",
        *(
            f"polarization does not descend: pairing of overlattice generators {i} and {j}"
            for i in range(4) for j in range(i + 1, 4)
        ),
    }


@settings(derandomize=True, max_examples=200, deadline=None)
@given(surface=st.sampled_from(_surfaces()), seed=st.integers(0, 2**32))
def test_apply_unimodular_matches_the_reference(surface, seed):
    rng = random.Random(seed)
    u = random_unimodular(rng)
    if rng.random() < 0.5:  # det -1 as well as +1
        u = (u[0], u[1], u[3], u[2])
    assert intmat.det(u) in (1, -1)
    moved = apply_unimodular(surface, u)
    expected = reference_apply_unimodular(surface, u)
    assert moved == expected and moved.pf == expected.pf


def test_apply_unimodular_refuses_a_matrix_of_other_determinant():
    s = standard_instance(make_order(5, 1))
    with pytest.raises(PreconditionError, match="^basis change must be unimodular$"):
        apply_unimodular(s, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


@pytest.mark.parametrize(
    "basis",
    [
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)),  # diag(1, 1, 1, 0)
        ((1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # two equal rows
    ],
)
def test_rebase_refuses_a_singular_basis(basis):
    # the adjugate route divided by det(basis) = 0
    s = generate_instance(5, 9, [11], 1)
    with pytest.raises(ZeroDivisionError):
        reference_change_basis(s, basis, 1)
    with pytest.raises(PreconditionError, match=f"^{NOT_HERMITE}$"):
        rebase(s, basis)


def test_rebase_refuses_a_basis_that_is_no_hermite_form():
    s = generate_instance(5, 9, [11], 1)
    rng = random.Random(3)
    bases = [random_unimodular(rng) for _ in range(20)]
    bases += [
        ((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # upper triangular
        ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # a negative diagonal
    ]
    others = [
        b for b in bases
        if any(b[i][j] for i in range(4) for j in range(i + 1, 4)) or min(b[i][i] for i in range(4)) <= 0
    ]
    assert len(others) >= 20
    for basis in others:
        with pytest.raises(PreconditionError, match=f"^{NOT_HERMITE}$"):
            rebase(s, basis)


# ---------------------------------------------------------------------------
# the one elimination mod p against sympy
# ---------------------------------------------------------------------------


def _sympy_rref(m, p):
    field = GF(p, symmetric=False)
    dm = DomainMatrix([[field(x) for x in row] for row in m], (len(m), len(m[0])), field)
    rref, pivots = dm.rref()
    return tuple(tuple(int(x) for x in row) for row in rref.to_Matrix().tolist()), tuple(pivots)


def _sympy_hnf_mod_p(columns, p):
    """The column Hermite form of columns + p Z^4 in this package's
    convention (lower triangular, reduced to the left of the diagonal):
    sympy's upper-triangular form with the coordinates taken in reverse."""
    gens = [tuple(reversed(c)) for c in columns] + [
        tuple(p if i == j else 0 for i in range(4)) for j in range(4)
    ]
    h = hermite_normal_form(Matrix(4, len(gens), lambda i, j: gens[j][i]))
    return tuple(tuple(int(h[3 - i, 3 - j]) for j in range(4)) for i in range(4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mod_p_rows(ncols=4) | mod_p_rows(ncols=8) | mod_p_rows(ncols=2))
def test_rref_mod_p_matches_sympy(system):
    m, p = system
    rref, pivots = _sympy_rref(m, p)
    assert intmat.span_mod_p(m, p) == rref[: len(pivots)]
    assert intmat.rank_mod_p(m, p) == len(pivots)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mod_p_rows())
def test_hnf_mod_p_matches_sympy(system):
    columns, p = system
    expected = _sympy_hnf_mod_p(columns, p)
    assert intmat.hnf_mod_p(columns, p) == expected
    # the action's columns, read as zip gives them, as enlargement_kernel does
    if len(columns) == 4:
        assert intmat.hnf_mod_p(zip(*intmat.transpose(columns)), p) == expected
