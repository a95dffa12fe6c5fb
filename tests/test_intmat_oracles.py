"""The fraction-free 4x4 core of intmat.py against slow references.

The references below are the routines the integer core replaced, kept
verbatim apart from their names as test-only oracles: the generic
elementwise helpers and the sum-of-products matrix and matrix-vector
products, the exact division by an entry scan and a frozen quotient and
the sixteen-entry congruence b^T e b with its row-order scan for the
first pairing that does not descend, the pairwise antisymmetry test,
the recursive cofactor det and adjugate (any size), the Fraction
inverse, the row reduction over Z/p with a generator pivot search and
every entry reduced again (the former freeze written in), the Hermite
form modulo any d by Euclid's algorithm on residues (reference_hnf_mod,
which the Hermite form modulo a prime replaced), the Euclidean row Hermite
form and the rational column Hermite basis built on it,
Smith divisors from gcds of minors, the general Smith form with
transforms (the conductor Bezout identity now solves its 2x4 system on a
two-row Hermite form), and the surface checks built from them: validate
as a composition of matrix sums and orientation by a permutation matrix.
Other test modules import them from here. sympy is a second, independent
oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from rmlattice import (
    DescentError,
    PreconditionError,
    descend_polarization,
    intmat,
    make_order,
    standard_instance,
    twist_by_element,
    validate,
)
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.isogeny import divide_by_symmetric
from rmlattice.surface import (
    PolarizedRMSurface,
    apply_unimodular,
    canonicalize_orientation,
    element_action,
    kernel_from_subspace,
)


# ---------------------------------------------------------------------------
# the replaced routines
# ---------------------------------------------------------------------------


def zeros(n=4):
    return tuple((0,) * n for _ in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mul(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def mat_mul(a, b):
    bt = intmat.transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(r, v)) for r in a)


def is_antisymmetric(m):
    n = len(m)
    return all(m[i][j] == -m[j][i] for i in range(n) for j in range(n))


def validate_by_composition(surface):
    """surface.validate as matrix sums and two products for the symmetry."""
    e, a = surface.gram, surface.action
    if not is_antisymmetric(e):
        return "gram form is not antisymmetric"
    if e[0][1] * e[2][3] - e[0][2] * e[1][3] + e[0][3] * e[1][2] == 0:
        return "gram form is degenerate"
    t, n = surface.order.trace_omega, surface.order.norm_omega
    lhs = mat_add(
        mat_sub(mat_mul(a, a), scalar_mul(t, a)),
        scalar_mul(n, intmat.identity()),
    )
    if lhs != zeros():
        return "action does not satisfy the order's minimal polynomial"
    if mat_mul(intmat.transpose(a), e) != mat_mul(e, a):
        return "action is not symmetric for the gram form"
    return None


def orient_by_permutation(order, action, gram):
    """surface.canonicalize_orientation with the swap of the last two basis
    vectors done as P A P and P E P."""
    pf = gram[0][1] * gram[2][3] - gram[0][2] * gram[1][3] + gram[0][3] * gram[1][2]
    if pf == 0:
        raise PreconditionError("degenerate gram form")
    if pf < 0:
        perm = intmat.freeze(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]
        )
        action = mat_mul(mat_mul(perm, action), perm)
        gram = mat_mul(mat_mul(perm, gram), perm)
    return PolarizedRMSurface(order, intmat.freeze(action), intmat.freeze(gram))


def det_cofactor(m):
    """Determinant by cofactor expansion; exact for int or Fraction entries."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    sign = 1
    for j in range(n):
        if m[0][j]:
            minor = tuple(tuple(r[k] for k in range(n) if k != j) for r in m[1:])
            total += sign * m[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def adjugate_cofactor(m):
    """Adjugate matrix, satisfying m @ adj(m) = det(m) * I."""
    n = len(m)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != j)
                for r in range(n)
                if r != i
            )
            cof[i][j] = (-1) ** (i + j) * det_cofactor(minor)
    return intmat.transpose(intmat.freeze(cof))


def to_fraction(m):
    return tuple(tuple(Fraction(x) for x in r) for r in m)


def overlattice(kernel):
    """The kernel's overlattice basis / den as a matrix of rationals."""
    return tuple(tuple(Fraction(x, kernel.den) for x in r) for r in kernel.basis)


def inverse(m):
    d = Fraction(det_cofactor(m))
    if d == 0:
        raise ValueError("singular matrix")
    adj = adjugate_cofactor(m)
    return tuple(tuple(Fraction(x) / d for x in r) for r in adj)


def rref_mod_p(m, p):
    """Reduced row echelon form over the field Z/p; returns (rref, pivot columns)."""
    a = [[x % p for x in r] for r in m]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] % p), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(r) for r in a), tuple(pivots)


def hnf_rows(m):
    """Canonical row Hermite normal form of an integer matrix.

    Row-style echelon: pivots move left to right down the rows, pivots are
    positive, entries above each pivot are reduced into [0, pivot), and zero
    rows sink to the bottom. The output is the unique HNF basis of the row
    lattice of m (padded with zero rows to keep the shape).
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # Euclidean elimination below the pivot row in this column.
        while True:
            nz = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][col]), i))
            if i0 != pivot_row:
                rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
            p = rows[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, nrows):
                if rows[i][col] != 0:
                    q = rows[i][col] // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if rows[pivot_row][col] == 0:
            continue
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    return intmat.freeze(rows)


def hnf_column_basis(columns):
    """Canonical basis of the full-rank column lattice spanned by `columns`.

    Accepts rational columns (entries int or Fraction). Returns a 4x4 (or
    n x n) lower triangular matrix of Fractions whose columns span the same
    lattice, in the canonical column Hermite normal form.
    """
    cols = [tuple(Fraction(x) for x in c) for c in columns]
    n = len(cols[0])
    den = 1
    for c in cols:
        for x in c:
            den = lcm(den, x.denominator)
    as_rows = intmat.freeze((int(x * den) for x in c) for c in cols)  # k x n
    h = hnf_rows(as_rows)
    basis_rows = [r for r in h if any(r)]
    if len(basis_rows) != n:
        raise ValueError("columns do not span a full-rank lattice")
    return tuple(
        tuple(Fraction(basis_rows[j][i], den) for j in range(n)) for i in range(n)
    )


def reference_hnf_mod(columns, d: int):
    """Canonical column Hermite form of the lattice spanned by `columns`
    and d * Z^4, for any modulus d >= 2.

    Because d * e_j lies in the lattice, every generator is reduced mod d
    throughout, so no entry exceeds d (the "HNF modulo D" of Cohen, Alg.
    2.4.8). Row i's pivot starts as d * e_i and absorbs each generator's
    i-th entry by Euclid's algorithm on the pair; the remainders, zero in
    coordinates up to i, carry on to the next row.
    """
    gens = [[x % d for x in c] for c in columns]
    pivots = []
    for i in range(4):
        v = [d if k == i else 0 for k in range(4)]
        rest = []
        for w in gens:
            while w[i]:
                q = v[i] // w[i]
                v, w = w, [(x - q * y) % d for x, y in zip(v, w)]
            if any(w):
                rest.append(w)
        pivots.append(v)
        gens = rest
    for i in range(4):
        g = pivots[i][i]
        for k in range(i):
            q = pivots[k][i] // g
            if q:
                pivots[k] = [x - q * y for x, y in zip(pivots[k], pivots[i])]
    return intmat.transpose(pivots)


def snf_divisors(m):
    """Elementary divisors via gcds of k x k minors.

    d_k = D_k / D_{k-1} with D_k the gcd of all k x k minors. Free of the
    entry swell that transform-tracking elimination suffers on large
    entries.
    """
    nrows, ncols = len(m), len(m[0])
    n = min(nrows, ncols)
    divisors = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                minor = tuple(tuple(m[i][j] for j in cols) for i in rows)
                g = gcd(g, det_cofactor(minor))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            divisors.extend([0] * (n - len(divisors)))
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


def snf_with_transforms(m):
    """Return (u, s, v) with u @ m @ v = s in Smith normal form.

    u and v are unimodular; s is diagonal with nonnegative divisors
    d1 | d2 | ... . Works for any rectangular integer matrix.
    """
    a = [list(r) for r in m]
    nrows, ncols = len(a), len(a[0])
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nrows, ncols):
        # Locate a minimal nonzero entry in the trailing block.
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        # Clear the pivot row and column; restart if a remainder appears.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        # Enforce divisibility of the rest of the block by the pivot.
        p = a[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # pulls the offending row into row t
            continue
        if p < 0:
            row_negate(t)
        t += 1
    return intmat.freeze(u), intmat.freeze(a), intmat.freeze(v)


# ---------------------------------------------------------------------------
# the closed forms against the references
# ---------------------------------------------------------------------------


def _random_matrix(rng, bits):
    bound = 1 << bits
    return intmat.freeze(
        [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(4)]
    )


@pytest.mark.parametrize("bits", [3, 30, 200])
def test_det_and_adjugate_match_cofactor_and_sympy(bits):
    rng = random.Random(bits)
    for _ in range(30):
        m = _random_matrix(rng, bits)
        sm = sympy.Matrix(m)
        assert intmat.det(m) == det_cofactor(m) == sm.det()
        adj = intmat.adjugate(m)
        assert adj == adjugate_cofactor(m)
        assert adj == tuple(tuple(int(x) for x in row) for row in sm.adjugate().tolist())


def test_det_and_adjugate_on_fractions():
    rng = random.Random(8)
    for _ in range(30):
        m = intmat.freeze(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(4)]
        )
        assert intmat.det(m) == det_cofactor(m) == sympy.Matrix(m).det()
        assert intmat.adjugate(m) == adjugate_cofactor(m)


def test_det_and_adjugate_on_singular_matrices():
    m = intmat.freeze([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 5, 0]])
    assert intmat.det(m) == 0
    assert intmat.adjugate(m) == adjugate_cofactor(m)


# ---------------------------------------------------------------------------
# the straight-line kernel against the generic references, past the digit limit
# ---------------------------------------------------------------------------

# m * 2^k + r: magnitudes from 0 up to about 2^15000 and either sign, past
# the interpreter's 4300-digit int/str limit, drawn from a few machine words
BIG = st.builds(
    lambda m, k, r: (m << k) + r,
    st.integers(-(1 << 64), 1 << 64),
    st.integers(0, 15000),
    st.integers(-(1 << 64), 1 << 64),
)
MATRICES = st.tuples(*[st.tuples(BIG, BIG, BIG, BIG)] * 4)


@st.composite
def alternating(draw, perturb=True):
    """An antisymmetric matrix, with one entry changed half the time when
    perturb is set."""
    m = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            v = draw(BIG)
            m[i][j], m[j][i] = v, -v
    if perturb and draw(st.booleans()):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        m[i][j] += draw(st.sampled_from((1, -1))) * (1 + abs(draw(BIG)))
    return intmat.freeze(m)


MAYBE_ALTERNATING = st.one_of(MATRICES, alternating())
ORDERS = st.sampled_from([make_order(D, f) for D, f in ((5, 1), (13, 1), (2, 3), (17, 7))])
KERNEL = settings(derandomize=True, max_examples=150, deadline=None)


@KERNEL
@given(MATRICES, MATRICES)
def test_mat_mul_matches_the_generic_product(a, b):
    assert intmat.mat_mul(a, b) == mat_mul(a, b)


@KERNEL
@given(MATRICES, st.tuples(BIG, BIG, BIG, BIG))
def test_mat_vec_matches_the_generic_product(a, v):
    assert intmat.mat_vec(a, v) == mat_vec(a, v)


@KERNEL
@given(MAYBE_ALTERNATING)
def test_is_antisymmetric_and_pfaffian_match_the_pairwise_test(m):
    assert intmat.is_antisymmetric(m) == is_antisymmetric(m)
    if is_antisymmetric(m):
        assert intmat.pfaffian4(m) ** 2 == intmat.det(m)
    else:
        with pytest.raises(ValueError):
            intmat.pfaffian4(m)


@st.composite
def surfaces(draw):
    """Valid surfaces with huge entries, and the same with a random action
    or gram swapped in, so every validate branch is reached."""
    s = standard_instance(draw(ORDERS))
    el = s.order.element(draw(BIG), draw(BIG))
    if el.is_zero():
        el = s.order.one()
    gram = mat_mul(s.gram, element_action(s, el))  # the twist by el
    c = draw(BIG)
    u = ((1, c, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))  # a shear by c
    u_inv = ((1, -c, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    action = mat_mul(mat_mul(u_inv, s.action), u)
    gram = mat_mul(mat_mul(intmat.transpose(u), gram), u)
    kind = draw(st.sampled_from(("valid", "action", "gram", "alternating", "degenerate")))
    if kind == "action":
        action = draw(MATRICES)
    elif kind == "gram":
        gram = draw(MATRICES)
    elif kind == "alternating":
        gram = draw(alternating())
    elif kind == "degenerate":  # rows 1-3 pair to zero among themselves: pf = 0
        (_, e01, e02, e03), _, _, _ = draw(alternating(perturb=False))
        gram = ((0, e01, e02, e03), (-e01, 0, 0, 0), (-e02, 0, 0, 0), (-e03, 0, 0, 0))
    return PolarizedRMSurface(s.order, action, gram)


@KERNEL
@given(surfaces())
def test_validate_matches_the_composition(s):
    assert validate(s) == validate_by_composition(s)


@KERNEL
@given(ORDERS, MATRICES, alternating(perturb=False))
def test_orientation_and_element_action_match_the_permutation_matrices(order, action, gram):
    pf = intmat.pfaffian4(gram)
    try:
        expected = orient_by_permutation(order, action, gram)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            canonicalize_orientation(order, action, gram, pf)
    else:
        out = canonicalize_orientation(order, action, gram, pf)
        assert out == expected
        assert out.pf == intmat.pfaffian4(out.gram) > 0  # the pfaffian it keeps
    s = PolarizedRMSurface(order, action, gram)
    x, y = gram[0][1], gram[2][3]
    assert element_action(s, order.element(x, y)) == mat_add(
        scalar_mul(x, intmat.identity()), scalar_mul(y, action)
    )


def divide_generic(m, d):
    """The former exact division: a scan of every entry, then the quotient
    frozen from generators; None when d does not divide them all."""
    if any(x % d for row in m for x in row):
        return None
    return intmat.freeze((x // d for x in row) for row in m)


def congruence_generic(e, b):
    """The former change of form: all sixteen entries of b^T e b."""
    return mat_mul(mat_mul(intmat.transpose(b), e), b)


def _negative_determinant(b):
    """-|det(b)|: the determinant of b, or of b with its first row negated,
    whichever is negative; 0 for a singular b."""
    return -abs(intmat.det(b))


@st.composite
def exact_divisions(draw):
    """(m, d, kind): d of either sign, small, past 2^64 or the determinant
    of a basis with det < 0; m a multiple of d, that multiple with one
    entry moved off it, or any matrix."""
    d = draw(st.one_of(
        st.integers(-12, 12),
        BIG,
        MATRICES.map(_negative_determinant),
    ))
    if d == 0:
        d = -7
    kind = draw(st.sampled_from(("multiple", "all but one", "any")))
    if kind == "any":
        return draw(MATRICES), d, kind
    m = [[d * x for x in row] for row in draw(MATRICES)]
    if kind == "all but one":
        if abs(d) == 1:
            d, m = 3 * d, [[3 * x for x in row] for row in m]
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        m[i][j] += draw(st.integers(1, abs(d) - 1))
    return intmat.freeze(m), d, kind


@KERNEL
@given(exact_divisions())
def test_div_exact_matches_the_generic_division(case):
    m, d, kind = case
    out = intmat.div_exact(m, d)
    assert out == divide_generic(m, d)
    if kind == "multiple":
        assert out is not None and scalar_mul(d, out) == m
    elif kind == "all but one":
        assert out is None


@KERNEL
@given(alternating(perturb=False), MATRICES)
def test_alternating_congruence_matches_the_generic_product(e, b):
    out = intmat.alternating_congruence(e, b)
    assert out == congruence_generic(e, b)
    assert is_antisymmetric(out)


def descent_message_generic(surface, basis, den):
    """The DescentError text of the former change of basis: the first
    pairing in row order of the full product that den does not divide."""
    gram = congruence_generic(surface.gram, basis)
    for i in range(4):
        for j in range(4):
            if gram[i][j] % den:
                q = Fraction(gram[i][j], den)
                return (
                    "polarization does not descend: pairing of overlattice "
                    f"generators {i} and {j} is {q.numerator}/{q.denominator}, "
                    "not integral"
                )
    return None


# kernels of generate_instance(13, 1, [3, 17], 5) that do not descend, and
# the pairing each names, one per pair above the diagonal but (1, 3)
@pytest.mark.parametrize(
    "p, vectors, pairing",
    [
        (3, [(1, 2, 1, 2)], "0 and 1 is 103/3"),
        (17, [(16, 12, 3, 16), (8, 13, 7, 9)], "0 and 2 is 342/17"),
        (3, [(2, 2, 1, 1), (2, 0, 0, 2)], "0 and 3 is 41/3"),
        (3, [(0, 2, 0, 0)], "1 and 2 is 55/3"),
        (3, [(0, 0, 1, 1)], "2 and 3 is -38/3"),
    ],
)
def test_a_kernel_that_does_not_descend_names_its_first_pairing(p, vectors, pairing):
    s = generate_instance(13, 1, [3, 17], 5)
    with pytest.raises(DescentError) as err:
        descend_polarization(s, kernel_from_subspace(vectors, p))
    assert str(err.value) == (
        f"polarization does not descend: pairing of overlattice generators {pairing}, "
        "not integral"
    )


@KERNEL
@given(
    instance=st.sampled_from([(13, 1, [3, 17], 5), (5, 9, [11], 1), (2, 1, [7], 2)]),
    p=st.sampled_from([3, 7, 11, 17]),
    vectors=st.lists(st.tuples(*[st.integers(0, 16)] * 4), min_size=1, max_size=3),
)
def test_descent_names_the_pairing_the_generic_scan_names(instance, p, vectors):
    s = apply_unimodular(generate_instance(*instance), random_unimodular(random.Random(p)))
    kernel = kernel_from_subspace(vectors, p)
    expected = descent_message_generic(s, kernel.basis, kernel.den**2)
    try:
        descend_polarization(s, kernel)
    except DescentError as exc:
        assert str(exc) == expected
    except PreconditionError:  # the action does not preserve the overlattice
        assert expected is None
    else:
        assert expected is None


# ---------------------------------------------------------------------------
# row reduction over Z/p against the former one
# ---------------------------------------------------------------------------

ODD_PRIMES = [p for p in range(3, 102) if all(p % q for q in range(2, p))]
# machine-word entries of either sign, and small ones, so that zeros,
# units and repeated residues all occur
ENTRIES = st.one_of(st.integers(-(1 << 64), 1 << 64), st.integers(-2, 2))


@st.composite
def mod_p_systems(draw):
    """(m, p): 1-5 rows of 4 or 8 columns, some of them zero and some small
    combinations of earlier rows, so that every rank occurs."""
    p = draw(st.sampled_from(ODD_PRIMES))
    ncols = draw(st.sampled_from((4, 8)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("entries", "zero", "combination")))
        if kind == "zero":
            rows.append((0,) * ncols)
        elif kind == "combination" and rows:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append(tuple(c * x + d * y for x, y in zip(u, v)))
        else:
            rows.append(tuple(draw(ENTRIES) for _ in range(ncols)))
    return tuple(rows), p


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mod_p_systems())
def test_rref_mod_p_matches_the_former_row_reduction(system):
    m, p = system
    assert intmat.rref_mod_p(m, p) == rref_mod_p(m, p)


# ---------------------------------------------------------------------------
# the integer kernel Hermite form against the rational one
# ---------------------------------------------------------------------------


def _spanning_subspace(rng, p, dim):
    basis = []
    while len(basis) < dim:
        v = tuple(rng.randrange(p) for _ in range(4))
        if any(v) and not intmat.subspace_contains(tuple(basis), v, p):
            basis.append(v)
    return tuple(basis)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_hnf_mod_matches_rational_hnf(p):
    rng = random.Random(p)
    torsion = [tuple(p if i == j else 0 for i in range(4)) for j in range(4)]
    cases = [(), tuple(intmat.identity())]
    cases += [_spanning_subspace(rng, p, rng.randint(1, 3)) for _ in range(60)]
    # generators that are neither reduced nor independent mod p
    cases += [
        tuple(tuple(rng.randint(-3 * p, 3 * p) for _ in range(4)) for _ in range(6))
        for _ in range(20)
    ]
    for gens in cases:
        expected = hnf_column_basis(list(gens) + torsion)
        assert to_fraction(intmat.hnf_mod_p(gens, p)) == expected
        # the kernel overlattice (gens + pZ^4) / p, as kernel_from_subspace builds it
        scaled = [tuple(Fraction(x, p) for x in c) for c in gens]
        scaled += list(to_fraction(intmat.identity()))
        h = intmat.hnf_mod_p(gens, p)
        assert tuple(tuple(Fraction(x, p) for x in r) for r in h) == hnf_column_basis(scaled)


def test_hnf_mod_full_and_empty_subspace():
    for p in (3, 5, 7, 11, 13):
        assert intmat.hnf_mod_p((), p) == scalar_mul(p, intmat.identity())
        assert intmat.hnf_mod_p(tuple(intmat.identity()), p) == intmat.identity()


def test_hnf_mod_with_composite_modulus():
    # the dual-lattice case: adj(E) columns modulo pf^2
    rng = random.Random(21)
    for _ in range(30):
        m = _random_matrix(rng, 4)
        d = abs(intmat.det(m))
        if d == 0:
            continue
        cols = intmat.transpose(m)
        torsion = [tuple(d if i == j else 0 for i in range(4)) for j in range(4)]
        expected = hnf_column_basis(list(cols) + torsion)
        assert to_fraction(reference_hnf_mod(cols, d)) == expected


# the primes of the Hermite form modulo a prime: small ones, where every
# residue recurs, and a machine-word and a past-word one
HNF_PRIMES = [3, 5, 7, 11, 13, 65537, 2**61 - 1]


@st.composite
def prime_hermite_systems(draw):
    """(columns, p): 0-6 generators of Z^4, some zero, some multiples of p,
    some small combinations of earlier ones, entries of either sign and not
    reduced mod p, so that every rank from 0 to 4 occurs."""
    p = draw(st.sampled_from(HNF_PRIMES))
    cols = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("entries", "zero", "multiple", "combination", "unit")))
        if kind == "zero":
            cols.append((0,) * 4)
        elif kind == "multiple":
            cols.append(tuple(p * draw(ENTRIES) for _ in range(4)))
        elif kind == "combination" and cols:
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            cols.append(tuple(c * x + d * y for x, y in zip(u, v)))
        elif kind == "unit":
            j = draw(st.integers(0, 3))
            cols.append(tuple(draw(st.integers(-2, 2)) * p + (k == j) for k in range(4)))
        else:
            cols.append(tuple(draw(ENTRIES) for _ in range(4)))
    return tuple(cols), p


@settings(derandomize=True, max_examples=400, deadline=None)
@given(prime_hermite_systems())
def test_hnf_mod_p_matches_the_euclid_reference(system):
    cols, p = system
    h = intmat.hnf_mod_p(cols, p)
    assert h == reference_hnf_mod(cols, p)
    # its unit diagonal entries count the rank of the generators mod p
    rank = intmat.rank_mod_p(cols, p) if cols else 0
    assert [h[i][i] for i in range(4)].count(1) == rank
    assert {h[i][i] for i in range(4)} <= {1, p}


def test_hnf_mod_p_on_full_dependent_and_negative_generators():
    for p in HNF_PRIMES:
        full = tuple(tuple(-p - 1 if i == j else 3 * p for i in range(4)) for j in range(4))
        assert intmat.hnf_mod_p(full, p) == intmat.identity() == reference_hnf_mod(full, p)
        u, v = (1, -2, p + 3, -1), (-p, p - 1, 5, 2 * p)
        dependent = (u, v, tuple(2 * x - 3 * y for x, y in zip(u, v)), (0,) * 4)
        h = intmat.hnf_mod_p(dependent, p)
        assert h == reference_hnf_mod(dependent, p)
        assert [h[i][i] for i in range(4)].count(1) == 2 == intmat.rank_mod_p(dependent, p)


# ---------------------------------------------------------------------------
# alternating divisors against Smith forms
# ---------------------------------------------------------------------------


def test_alternating_divisors_match_smith_forms():
    rng = random.Random(9)
    checked = 0
    while checked < 60:
        scale = rng.choice((1, 1, 2, 3, 9))
        m = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = scale * rng.randint(-12, 12)
                m[i][j], m[j][i] = v, -v
        m = intmat.freeze(m)
        pf = intmat.pfaffian4(m)
        if pf == 0:
            continue
        divisors = intmat.alternating_divisors(m, pf)
        assert divisors == snf_divisors(m)
        smith = smith_normal_form(sympy.Matrix(m))
        assert divisors == tuple(abs(int(smith[i, i])) for i in range(4))
        checked += 1


# ---------------------------------------------------------------------------
# division by the conjugate against the adjugate form
# ---------------------------------------------------------------------------


def test_conjugate_action_is_the_scaled_adjugate():
    for D, f in ((5, 1), (13, 1), (2, 3), (17, 7)):
        s = standard_instance(make_order(D, f))
        for x, y in ((3, 1), (-1, 2), (2, 5), (7, -3), (4, 0)):
            el = s.order.element(x, y)
            adj = adjugate_cofactor(element_action(s, el))
            conj = element_action(s, el.conjugate())
            assert adj == scalar_mul(el.norm(), conj)


def test_divide_matches_adjugate_division():
    for D, coords, by in ((5, (3, 1), (3, 1)), (13, (2, 1), (2, 1)), (5, (9, 0), (3, 0))):
        s = standard_instance(make_order(D, 1))
        twisting = s.order.element(*coords)
        tw = twist_by_element(s, twisting, norm=twisting.norm())
        el = s.order.element(*by)
        det_el = el.norm() ** 2
        gram = intmat.mat_mul(tw.gram, adjugate_cofactor(element_action(tw, el)))
        assert all(x % det_el == 0 for row in gram for x in row)
        expected = intmat.freeze((x // det_el for x in row) for row in gram)
        out = divide_by_symmetric(tw, el)
        if intmat.pfaffian4(expected) < 0:
            expected = tuple(
                tuple(expected[i][j] for j in (0, 1, 3, 2)) for i in (0, 1, 3, 2)
            )
        assert out.gram == expected
