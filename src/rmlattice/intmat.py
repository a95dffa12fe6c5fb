"""Exact linear algebra on small integer and rational matrices.

Everything here is sized for the rank-4 lattices used by the rest of the
package: matrices are tuples of tuples, integers are arbitrary precision,
and no floats appear anywhere. The 4x4 core is straight-line and
fraction-free: the product is written out as sixteen sums of four
products, the congruence b^T e b of an alternating e as that product
e b and six more sums above the diagonal, the exact division by an
integer as four divisibility tests and four quotients per row, the
alternating test as six pair comparisons and a zero diagonal, det and
adjugate are closed-form expansions in the twelve 2x2 minors (all exact
on Fraction entries too), a lattice between p*Z^4 and Z^4 for a prime p
is put into Hermite form by one elimination over Z/p (hnf_mod_p), and the
elementary divisors of an alternating form are read off its content and
pfaffian.

Conventions:
  * lattices are column lattices (a basis is the tuple of matrix columns);
  * the canonical basis of a column lattice is its column-style Hermite
    normal form: lower triangular, positive diagonal, and every entry to
    the left of a diagonal entry reduced into [0, diagonal);
  * elementary divisors are listed as in the Smith normal form: positive,
    with d1 | d2 | ... .
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd

IntMat = tuple[tuple[int, ...], ...]
IntVec = tuple[int, ...]


def freeze(rows: Iterable[Sequence]) -> tuple:
    return tuple(map(tuple, rows))


def identity() -> IntMat:
    return ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    """Product of 4x4 matrices, written out: the rows of b are unpacked once
    and each output row is four sums of four products."""
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    rows = []
    for x0, x1, x2, x3 in a:
        rows.append((
            x0 * b00 + x1 * b10 + x2 * b20 + x3 * b30,
            x0 * b01 + x1 * b11 + x2 * b21 + x3 * b31,
            x0 * b02 + x1 * b12 + x2 * b22 + x3 * b32,
            x0 * b03 + x1 * b13 + x2 * b23 + x3 * b33,
        ))
    return tuple(rows)


def mat_vec(a, v):
    """Product of a matrix with rows of length 4 and a vector, written out."""
    v0, v1, v2, v3 = v
    return tuple([x0 * v0 + x1 * v1 + x2 * v2 + x3 * v3 for x0, x1, x2, x3 in a])


def mat_mod(a, m: int):
    return tuple(tuple(x % m for x in r) for r in a)


def div_exact(m, d: int):
    """The 4x4 matrix m / d when the nonzero integer d divides every entry,
    else None; written out one row at a time, four tests then four
    quotients."""
    rows = []
    for x0, x1, x2, x3 in m:
        if x0 % d or x1 % d or x2 % d or x3 % d:
            return None
        rows.append((x0 // d, x1 // d, x2 // d, x3 // d))
    return tuple(rows)


def alternating_congruence(e, b):
    """b^T e b for an alternating 4x4 matrix e, which is alternating too:
    the one product e b, then the six entries above the diagonal, each a
    sum of four products, with the entries below them their negatives."""
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = (
        mat_mul(e, b)
    )
    g01 = b00 * m01 + b10 * m11 + b20 * m21 + b30 * m31
    g02 = b00 * m02 + b10 * m12 + b20 * m22 + b30 * m32
    g03 = b00 * m03 + b10 * m13 + b20 * m23 + b30 * m33
    g12 = b01 * m02 + b11 * m12 + b21 * m22 + b31 * m32
    g13 = b01 * m03 + b11 * m13 + b21 * m23 + b31 * m33
    g23 = b02 * m03 + b12 * m13 + b22 * m23 + b32 * m33
    return (
        (0, g01, g02, g03),
        (-g01, 0, g12, g13),
        (-g02, -g12, 0, g23),
        (-g03, -g13, -g23, 0),
    )


def is_antisymmetric(m) -> bool:
    """Whether the 4x4 matrix m is alternating: a zero diagonal and the six
    pairs below it the negatives of the pairs above."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    return (
        a00 == a11 == a22 == a33 == 0
        and a10 == -a01 and a20 == -a02 and a30 == -a03
        and a21 == -a12 and a31 == -a13 and a32 == -a23
    )


def _wedge(r, s):
    """The six 2x2 minors of rows r, s over column pairs 01, 02, 03, 12, 13, 23."""
    (r0, r1, r2, r3), (s0, s1, s2, s3) = r, s
    return (
        r0 * s1 - r1 * s0, r0 * s2 - r2 * s0, r0 * s3 - r3 * s0,
        r1 * s2 - r2 * s1, r1 * s3 - r3 * s1, r2 * s3 - r3 * s2,
    )


def _cofactors(v, w):
    """The signed 3x3 minors of row v over two rows with 2x2 minors w, one
    per deleted column: a column of the adjugate, up to sign."""
    v0, v1, v2, v3 = v
    w01, w02, w03, w12, w13, w23 = w
    return (
        v1 * w23 - v2 * w13 + v3 * w12,
        -v0 * w23 + v2 * w03 - v3 * w02,
        v0 * w13 - v1 * w03 + v3 * w01,
        -v0 * w12 + v1 * w02 - v2 * w01,
    )


def det(m):
    """Determinant of a 4x4 matrix by Laplace expansion along rows 0-1;
    exact for int or Fraction entries."""
    s01, s02, s03, s12, s13, s23 = _wedge(m[0], m[1])
    c01, c02, c03, c12, c13, c23 = _wedge(m[2], m[3])
    return s01 * c23 - s02 * c13 + s03 * c12 + s12 * c03 - s13 * c02 + s23 * c01


def adjugate(m):
    """Adjugate of a 4x4 matrix, satisfying m @ adj(m) = det(m) * I, from
    the twelve 2x2 minors of rows 0-1 and rows 2-3; exact for int or
    Fraction entries."""
    a, b, c, d = m
    low, high = _wedge(a, b), _wedge(c, d)
    x, y, z, w = _cofactors(b, high), _cofactors(a, high), _cofactors(d, low), _cofactors(c, low)
    return tuple((x[i], -y[i], z[i], -w[i]) for i in range(4))


def pfaffian4(m) -> int:
    """Pfaffian of a 4x4 antisymmetric matrix; ValueError for any other input
    (from is_antisymmetric's unpacking when a row is not 4 entries long)."""
    if len(m) != 4 or not is_antisymmetric(m):
        raise ValueError("pfaffian requires a 4x4 antisymmetric matrix")
    (_, m01, m02, m03), (_, _, m12, m13), (_, _, _, m23), _ = m
    return m01 * m23 - m02 * m13 + m03 * m12


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def hnf_mod_p(columns, p: int) -> IntMat:
    """Canonical column Hermite form of the lattice spanned by `columns`
    and p * Z^4, for a prime p.

    Over the field Z/p the Hermite form is the reduced echelon form of the
    generators: column j is the echelon row whose pivot is j, and p * e_j
    where j is no pivot (the prime case of Cohen's "HNF modulo D", Alg.
    2.4.8). So one rref_mod_p builds it, and the rank of the generators
    mod p is the number of unit diagonal entries.
    """
    basis = [(p, 0, 0, 0), (0, p, 0, 0), (0, 0, p, 0), (0, 0, 0, p)]
    if columns:  # zero generators give no pivot
        rref, pivots = rref_mod_p(columns, p)
        for row, j in zip(rref, pivots):
            basis[j] = row
    return transpose(basis)


def alternating_divisors(m, pf: int) -> tuple[int, int, int, int]:
    """Elementary divisors (c, c, |pf|/c, |pf|/c) of a nondegenerate 4x4
    alternating form m with pfaffian pf, c its content: m / c is primitive,
    and a primitive alternating form has divisors (1, 1, n, n) with n^2 its
    determinant. The content divides pf, so a gcd seeded with pf is c and
    stops joining once it reaches 1."""
    c = gcd(pf, *m[0], *m[1], *m[2], *m[3])
    e = abs(pf) // c
    return (c, c, e, e)


# ---------------------------------------------------------------------------
# Linear algebra over Z/p
# ---------------------------------------------------------------------------


def rref_mod_p(m, p: int) -> tuple[IntMat, tuple[int, ...]]:
    """Reduced row echelon form over the field Z/p; returns (rref, pivot columns).

    Entries are reduced into [0, p) once, on entry, and every row operation
    keeps them there.
    """
    a = [[x % p for x in r] for r in m]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        for pr in range(r, nrows):
            if a[pr][c]:
                break
        else:
            continue
        row = a[pr]
        a[pr] = a[r]
        inv = pow(row[c], -1, p)
        if inv != 1:
            row = [x * inv % p for x in row]
        a[r] = row
        for i in range(nrows):
            f = a[i][c]
            if f and i != r:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, a)), tuple(pivots)


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
    return rank_mod_p([*basis, vec], p) == rank_mod_p(basis, p)


def span_mod_p(vectors, p: int) -> tuple[IntVec, ...]:
    """Canonical (RREF) basis for the span of row vectors over Z/p."""
    vecs = [v for v in vectors if any(x % p for x in v)]
    if not vecs:
        return ()
    rref, pivots = rref_mod_p(vecs, p)
    return tuple(rref[i] for i in range(len(pivots)))
