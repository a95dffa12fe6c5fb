"""Exact linear algebra on small integer matrices.

Everything here is sized for the rank-4 lattices used by the rest of the
package: matrices are tuples of tuples, integers are arbitrary precision,
and no floats appear anywhere. The 4x4 core is straight-line and
fraction-free: the product is written out as sixteen sums of four
products (lower_mat_mul skips a lower-triangular pair's zeros), the
alternating test as six pair comparisons and a zero diagonal, det and
adjugate are closed-form expansions in the twelve 2x2 minors, a lattice
between p*Z^4 and Z^4 for a prime p is put into Hermite form by one
elimination over Z/p (hnf_mod_p), whose pivot rows kernel_mod_p,
span_mod_p and rank_mod_p read in place too, or, when its generators
have rank 2 mod p, as the enlargement's action does, by a written-out
two-vector elimination (hnf_mod_p_rank2), and the elementary divisors of
an alternating form are read off its content and pfaffian.

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


def lower_mat_mul(a, b) -> IntMat:
    """Product of two lower-triangular 4x4 matrices, written out without
    their zeros above the diagonal: 20 products where mat_mul takes 64."""
    (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), (a30, a31, a32, a33) = a
    (b00, _, _, _), (b10, b11, _, _), (b20, b21, b22, _), (b30, b31, b32, b33) = b
    return (
        (a00 * b00, 0, 0, 0),
        (a10 * b00 + a11 * b10, a11 * b11, 0, 0),
        (a20 * b00 + a21 * b10 + a22 * b20, a21 * b11 + a22 * b21, a22 * b22, 0),
        (a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30, a31 * b11 + a32 * b21 + a33 * b31,
         a32 * b22 + a33 * b32, a33 * b33),
    )


def mat_vec(a, v):
    """Product of a matrix with rows of length 4 and a vector, written out."""
    v0, v1, v2, v3 = v
    return tuple([x0 * v0 + x1 * v1 + x2 * v2 + x3 * v3 for x0, x1, x2, x3 in a])


def mat_mod(a, m: int):
    return tuple(tuple(x % m for x in r) for r in a)


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
    """Determinant of a 4x4 integer matrix by Laplace expansion along rows
    0-1."""
    s01, s02, s03, s12, s13, s23 = _wedge(m[0], m[1])
    c01, c02, c03, c12, c13, c23 = _wedge(m[2], m[3])
    return s01 * c23 - s02 * c13 + s03 * c12 + s12 * c03 - s13 * c02 + s23 * c01


def adjugate(m):
    """Adjugate of a 4x4 integer matrix, satisfying m @ adj(m) = det(m) * I,
    from the twelve 2x2 minors of rows 0-1 and rows 2-3."""
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
    2.4.8). So one elimination (_eliminate_mod_p) builds it, reading the
    generators one at a time from any iterable, such as zip(*action) for the
    columns of a matrix, and each pivot row it leaves is written straight
    into the basis; the rank of the generators mod p is the number of unit
    diagonal entries.
    """
    basis = [(p, 0, 0, 0), (0, p, 0, 0), (0, 0, p, 0), (0, 0, 0, p)]
    for j, row in _eliminate_mod_p(columns, p).items():
        basis[j] = row
    return tuple(zip(*basis))


def hnf_mod_p_rank2(columns, p: int) -> IntMat | None:
    """hnf_mod_p(columns, p) when the columns have rank 2 mod p, else None.

    A two-vector Gauss-Jordan over Z/p, written out for vectors of length
    4: the first column nonzero mod p, scaled to a leading 1, is the
    echelon row u with pivot i; the first column after it that u does not
    reduce to 0 mod p, scaled, is v with pivot j, and u is cleared at j.
    Every later column c must then be c_i u + c_j v mod p, four tests
    each. u and v are the reduced echelon rows of the span, so they are
    the Hermite basis columns i and j, and p e_k the other two.
    """
    columns = iter(columns)
    for c0, c1, c2, c3 in columns:
        u = u0, u1, u2, u3 = c0 % p, c1 % p, c2 % p, c3 % p
        if u0:
            i = 0
        elif u1:
            i = 1
        elif u2:
            i = 2
        elif u3:
            i = 3
        else:
            continue
        break
    else:
        return None  # rank 0
    if u[i] != 1:
        inv = pow(u[i], -1, p)
        u = u0, u1, u2, u3 = u0 * inv % p, u1 * inv % p, u2 * inv % p, u3 * inv % p
    for c in columns:
        f = c[i]
        c0, c1, c2, c3 = c
        v = v0, v1, v2, v3 = (c0 - f * u0) % p, (c1 - f * u1) % p, (c2 - f * u2) % p, (c3 - f * u3) % p
        if v0:
            j = 0
        elif v1:
            j = 1
        elif v2:
            j = 2
        elif v3:
            j = 3
        else:
            continue
        break
    else:
        return None  # rank 1
    if v[j] != 1:
        inv = pow(v[j], -1, p)
        v = v0, v1, v2, v3 = v0 * inv % p, v1 * inv % p, v2 * inv % p, v3 * inv % p
    f = u[j]
    if f:
        u = u0, u1, u2, u3 = (u0 - f * v0) % p, (u1 - f * v1) % p, (u2 - f * v2) % p, (u3 - f * v3) % p
    for c in columns:
        f, g = c[i], c[j]
        c0, c1, c2, c3 = c
        if (
            (c0 - f * u0 - g * v0) % p or (c1 - f * u1 - g * v1) % p
            or (c2 - f * u2 - g * v2) % p or (c3 - f * u3 - g * v3) % p
        ):
            return None  # rank 3 or 4
    basis = [(p, 0, 0, 0), (0, p, 0, 0), (0, 0, p, 0), (0, 0, 0, p)]
    basis[i], basis[j] = u, v
    return tuple(zip(*basis))


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


def _eliminate_mod_p(vectors, p: int) -> dict[int, list[int]]:
    """Gauss-Jordan elimination over the field Z/p of the vectors, read one
    at a time: the reduced echelon rows of their span, each a list with
    entries in [0, p), keyed by pivot column in the order they were found.

    A vector read is reduced into [0, p) by its first subtraction of a
    pivot row, or on its own when no pivot row has a nonzero entry in it;
    a new pivot row is scaled to a leading 1 and cleared from the rows
    before it, so the rows kept are always reduced.
    """
    rows: dict[int, list[int]] = {}
    for v in vectors:
        reduced = False
        for c, row in rows.items():
            f = v[c] % p
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
                reduced = True
        if not reduced:
            v = [x % p for x in v]
        lead = next(filter(None, v), 0)
        if not lead:
            continue
        j = v.index(lead)  # the entries before the first nonzero one are 0
        if lead != 1:
            inv = pow(lead, -1, p)
            v = [x * inv % p for x in v]
        for c, row in rows.items():
            f = row[j]
            if f:
                rows[c] = [(x - f * y) % p for x, y in zip(row, v)]
        rows[j] = v
    return rows


def rank_mod_p(m, p: int) -> int:
    return len(_eliminate_mod_p(m, p))


def kernel_mod_p(m, p: int) -> tuple[IntVec, ...]:
    """Canonical basis of the kernel of m acting on (Z/p)^n column vectors:
    for each non-pivot column c of the elimination in increasing order, the
    vector with 1 at c and -row[c] at each pivot row's column."""
    rows = _eliminate_mod_p(m, p)
    ncols = len(m[0])
    basis = []
    for c in range(ncols):
        if c not in rows:
            vec = [0] * ncols
            vec[c] = 1
            for j, row in rows.items():
                vec[j] = -row[c] % p
            basis.append(tuple(vec))
    return tuple(basis)


def span_mod_p(vectors, p: int) -> tuple[IntVec, ...]:
    """Canonical (reduced echelon) basis of the span of row vectors over
    Z/p: the elimination's pivot rows in pivot order."""
    rows = _eliminate_mod_p(vectors, p)
    return tuple(tuple(rows[c]) for c in sorted(rows))
