"""Exact linear algebra on small integer and rational matrices.

Everything here is sized for the rank-4 lattices used by the rest of the
package: matrices are tuples of tuples, integers are arbitrary precision,
and rational work uses fractions.Fraction. No floats anywhere.

Conventions:
  * lattices are column lattices (a basis is the tuple of matrix columns);
  * the canonical basis of a column lattice is its column-style Hermite
    normal form: lower triangular, positive diagonal, and every entry to
    the left of a diagonal entry reduced into [0, diagonal);
  * Smith normal form divisors are nonnegative with d1 | d2 | ... .
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

IntMat = tuple[tuple[int, ...], ...]
RatMat = tuple[tuple[Fraction, ...], ...]
IntVec = tuple[int, ...]


def freeze(rows: Iterable[Sequence]) -> tuple:
    return tuple(tuple(r) for r in rows)


def identity(n: int = 4) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(n: int = 4) -> IntMat:
    return tuple((0,) * n for _ in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mul(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(r, v)) for r in a)


def mat_mod(a, m: int):
    return tuple(tuple(x % m for x in r) for r in a)


def is_antisymmetric(m) -> bool:
    n = len(m)
    return all(m[i][j] == -m[j][i] for i in range(n) for j in range(n))


def matrix_content(m) -> int:
    g = 0
    for r in m:
        for x in r:
            g = gcd(g, x)
    return g


def det(m) -> int:
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
            total += sign * m[0][j] * det(minor)
        sign = -sign
    return total


def adjugate(m):
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
            cof[i][j] = (-1) ** (i + j) * det(minor)
    return transpose(freeze(cof))


def pfaffian4(m) -> int:
    """Pfaffian of a 4x4 antisymmetric matrix."""
    if len(m) != 4 or not is_antisymmetric(m):
        raise ValueError("pfaffian requires a 4x4 antisymmetric matrix")
    return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


def to_fraction(m) -> RatMat:
    return tuple(tuple(Fraction(x) for x in r) for r in m)


def inverse(m) -> RatMat:
    d = Fraction(det(m))
    if d == 0:
        raise ValueError("singular matrix")
    adj = adjugate(m)
    return tuple(tuple(Fraction(x) / d for x in r) for r in adj)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def hnf_rows(m) -> IntMat:
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
    return freeze(rows)


def hnf_column_basis(columns) -> RatMat:
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
    as_rows = freeze((int(x * den) for x in c) for c in cols)  # k x n
    h = hnf_rows(as_rows)
    basis_rows = [r for r in h if any(r)]
    if len(basis_rows) != n:
        raise ValueError("columns do not span a full-rank lattice")
    return tuple(
        tuple(Fraction(basis_rows[j][i], den) for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def snf_with_transforms(m) -> tuple[IntMat, IntMat, IntMat]:
    """Return (u, s, v) with u @ m @ v = s in Smith normal form.

    u and v are unimodular; s is diagonal with nonnegative divisors
    d1 | d2 | ... . Works for any rectangular integer matrix.
    """
    a = [list(r) for r in m]
    nrows, ncols = len(a), len(a[0])
    u = [list(r) for r in identity(nrows)]
    v = [list(r) for r in identity(ncols)]

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
    return freeze(u), freeze(a), freeze(v)


def snf_divisors(m) -> tuple[int, ...]:
    """Elementary divisors via gcds of k x k minors.

    d_k = D_k / D_{k-1} with D_k the gcd of all k x k minors. Free of the
    entry swell that transform-tracking elimination suffers on large
    entries.
    """
    from itertools import combinations

    nrows, ncols = len(m), len(m[0])
    n = min(nrows, ncols)
    divisors = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                minor = tuple(tuple(m[i][j] for j in cols) for i in rows)
                g = gcd(g, det(minor))
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


# ---------------------------------------------------------------------------
# Linear algebra over Z/p
# ---------------------------------------------------------------------------


def rref_mod_p(m, p: int) -> tuple[IntMat, tuple[int, ...]]:
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
    return freeze(a), tuple(pivots)


def rank_mod_p(m, p: int) -> int:
    return len(rref_mod_p(m, p)[1])


def inv_mod_p(m, p: int) -> IntMat:
    """Inverse of a matrix over Z/p, via row reduction of [m | I]."""
    n = len(m)
    aug = tuple(tuple(m[i]) + tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    rref, pivots = rref_mod_p(aug, p)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        raise ValueError("matrix is singular mod p")
    return tuple(tuple(r[n:]) for r in rref)


def kernel_mod_p(m, p: int) -> tuple[IntVec, ...]:
    """Canonical basis of the kernel of m acting on (Z/p)^n column vectors."""
    rref, pivots = rref_mod_p(m, p)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(tuple(vec))
    return tuple(basis)


def subspace_contains(basis, vec, p: int) -> bool:
    """Whether vec lies in the span of `basis` over Z/p."""
    if not basis:
        return all(x % p == 0 for x in vec)
    stacked = freeze(list(basis) + [vec])
    return rank_mod_p(stacked, p) == rank_mod_p(freeze(basis), p)


def span_mod_p(vectors, p: int) -> tuple[IntVec, ...]:
    """Canonical (RREF) basis for the span of row vectors over Z/p."""
    vecs = [v for v in vectors if any(x % p for x in v)]
    if not vecs:
        return ()
    rref, pivots = rref_mod_p(freeze(vecs), p)
    return tuple(rref[i] for i in range(len(pivots)))
