"""Rank-4 lattice model of a polarized abelian surface with real multiplication.

A surface is a triple (order, action, gram): the lattice is Z^4, `action`
is the integer matrix by which the order generator acts, and `gram` is a
nondegenerate integral alternating form giving the polarization. The four
defining invariants are: gram antisymmetric, gram nondegenerate (pfaffian
nonzero; for a 4x4 alternating form det = pfaffian^2 always holds), action
satisfying the generator's minimal polynomial, and the symmetry identity
action^T * gram = gram * action.

Degree, the one change of lattice basis to a Hermite basis (change_basis,
on integers, and rebase around it), its gram half (descend_gram), the
order enlargement's block form of its action half (enlarge_basis), the
unimodular scramble (apply_unimodular), kernels given by mod-p subspaces,
stabilizer orders and the instance constructors all live here. Every
move that re-expresses the lattice (descent to an overlattice, pull-back
to a sublattice) goes through rebase, except the order enlargement. Each
such basis B is a column Hermite form, lower triangular with a positive
diagonal, and change_basis takes no other: it solves B M = A B for the
new action by forward substitution, one exact division by b_ii per row,
and returns the carried pfaffian det(B) pf / gram_den^2, det(B) the
diagonal's product, so rebase does not derive it. descend_gram requires
an alternating gram, as every caller's validated surface has: it
computes only the six pairings above the diagonal of B^T E B, tests each
for divisibility by the divisor and divides it in place. The products
are written out without the zeros known in advance, B's above its
diagonal and the gram's on its diagonal: of E B only the columns 1-3 the
pairings read (18 products where the full product takes 64), the
pairings themselves from those (17 where the six sums of four take 24),
and A B (40 where the full product takes 64). The order enlargement
divides the action by p on the Hermite form B of a rank-2 kernel mod p
at each of its moves. With its two pivots put first, B = L D for a unit
lower block-triangular L and D = diag(1, 1, p, p), so enlarge_basis
writes the new action out in blocks with no forward substitution (32
products). The enlargement descends its unbuilt twists p^3 E once, as
P^T E P / (p_1 ... p_k) for P the product of its moves' bases
(descend_gram); the pfaffian is unchanged, as det(P) = (p_1 ... p_k)^2.
The generator's scramble U, once per instance and not triangular, is
four full products in apply_unimodular: U^-1 A U as det(U) adj(U) A U,
with no division, and U^T E U.
Everything is a pure function on immutable integer values. A kernel is
its pair (basis, den), which the step record holds as it is and replay
compares as integers; only formats spells it as rationals. Kernels given
by mod-p subspaces take their Hermite form from one elimination over Z/p
(intmat.hnf_mod_p); the eigen-sublattice pull-back's hyperplane, the one
kernel of a single linear form, has its Hermite basis written in closed
form (_hyperplane_basis). standard_instance is kept per order in an
unbounded lru_cache, so generate builds and validates it once per order.

The pfaffian is kept on each surface (`pf`, computed on first use and
then kept in the surface's __dict__ by _kept, functools.cached_property
without its lock; it is not one of the fields, so equality, hashing,
pickling and every serialized form see only order, action and gram);
degree and validation read it. With the gram's content c it gives the
polarization's elementary divisors (c, c, pf/c, pf/c)
(intmat.alternating_divisors), so no dual lattice is ever built.
change_basis, apply_unimodular and twist_by_element carry it by
identity, each stated once (det(B) pf / gram_den^2, det(U) pf, and
norm(el) pf / den^2 with the norm from the caller), and the order
enlargement keeps it; with the enlargement's one descend_gram they are
the only builders of a moved surface's gram, none recomputes the
pfaffian, and no move re-checks its degree. validate checks the minimal polynomial as
A^2 = tA - n, one tuple comparison of the one product A^2 with tA - n
written out, and the symmetry A^T E = E A from the one product E A,
which must be alternating; its verdict is kept on the surface the same
way (`defect`), so the CLI and principalize check an input once, and so
is E A (`gram_action`), which degree reduction reads
its decisions off. The only other thing kept on a surface is its
instance text, which formats.serialize_instance keeps as `text` the same
way. Element actions x*I + y*A, the twist's six pairings
x E_ij + y (E A)_ij (its gram E A_el is alternating on a valid surface)
and the reorientation that swaps the last two basis vectors are written
out rather than built from matrix products.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import itemgetter

from . import intmat
from .arith import int_text, rational_text
from .errors import DescentError, InvariantBreach, PreconditionError
from .intmat import IntMat, IntVec
from .quadratic import (
    SPLIT,
    OrderElement,
    RealQuadraticOrder,
    Record,
    _roots_mod_p,
    make_order,
    splitting_type,
)


class _kept:
    """A value of a surface computed on first use and then kept in its
    __dict__, where every later read finds it without a call: what
    functools.cached_property does, without the lock that Python 3.11's
    takes on each first access."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, surface, owner=None):
        if surface is None:
            return self
        value = surface.__dict__[self.name] = self.compute(surface)
        return value


class PolarizedRMSurface(Record):
    # __dict__ holds pf, defect and the kept instance text, outside the fields
    __slots__ = ("order", "action", "gram", "__dict__")
    _fields = ("order", "action", "gram")

    @_kept
    def pf(self) -> int:
        """Pfaffian of the gram form, computed on first use and then kept.

        Not one of the fields, so equality, hashing, pickling, the
        constructor and every serialized form see only (order, action, gram).
        """
        return intmat.pfaffian4(self.gram)

    @_kept
    def defect(self) -> str | None:
        """None when all invariants hold, else a message naming the first
        failure; computed on first use and then kept, like pf."""
        e, a = self.gram, self.action
        if not intmat.is_antisymmetric(e):
            return "gram form is not antisymmetric"
        if self.pf == 0:
            return "gram form is degenerate"
        t, n = self.order.trace_omega, self.order.norm_omega
        # A^2 = tA - n, one tuple comparison against the one product A^2
        if intmat.mat_mul(a, a) != _scalar_plus(-n, t, a):
            return "action does not satisfy the order's minimal polynomial"
        # E is alternating, so A^T E = -(E A)^T: A^T E = E A exactly when E A
        # is alternating too
        if not intmat.is_antisymmetric(self.gram_action):
            return "action is not symmetric for the gram form"
        return None

    @_kept
    def gram_action(self) -> IntMat:
        """The product E A of the gram and the action, computed on first
        use and then kept, like pf: validate reads it, and degree reduction
        reads each factor's x E + y E A mod p off it. Alternating on a valid
        surface."""
        return intmat.mat_mul(self.gram, self.action)

    def __repr__(self) -> str:
        try:
            deg = int_text(degree(self))
        except (ValueError, PreconditionError):  # not a nondegenerate alternating form
            deg = "invalid"
        return (
            f"PolarizedRMSurface(D={int_text(self.order.D)}, "
            f"conductor={int_text(self.order.conductor)}, degree={deg})"
        )


class KernelSubgroup(Record):
    """A finite subgroup of torsion, stored as its overlattice L' with L <= L'.

    L' is basis / den: basis is the canonical (column Hermite form) basis of
    den * L' in the coordinates of L, an integer matrix, so the group order
    is den^4 / det(basis). A quotient step records the pair as it is.
    """

    __slots__ = _fields = ("basis", "den")

    @property
    def group_order(self) -> int:
        d = intmat.det(self.basis)
        if d <= 0 or self.den**4 % d:
            raise InvariantBreach("overlattice does not contain the base lattice")
        return self.den**4 // d

    def is_trivial(self) -> bool:
        return self.group_order == 1


# ---------------------------------------------------------------------------
# validation and basic invariants
# ---------------------------------------------------------------------------


def validate(surface: PolarizedRMSurface) -> str | None:
    """None when all invariants hold, else a message naming the first
    failure: the surface's kept verdict (PolarizedRMSurface.defect)."""
    return surface.defect


def degree(surface: PolarizedRMSurface) -> int:
    """Polarization degree, the index of the lattice in its dual: pfaffian^2."""
    pf = surface.pf
    if pf == 0:
        raise PreconditionError("degenerate gram form has no degree")
    return pf * pf


def canonicalize_orientation(
    order: RealQuadraticOrder, action: IntMat, gram: IntMat, pf: int
) -> PolarizedRMSurface:
    """Build a surface with positive pfaffian, swapping the last two basis
    vectors when needed. pf is the pfaffian of gram as the caller's move
    carried it, not recomputed here; it becomes the new surface's `pf`,
    negated by the swap (determinant -1). action and gram are taken as
    given, tuples of tuples as every builder makes them, not copied."""
    if pf == 0:
        raise PreconditionError("degenerate gram form")
    if pf < 0:
        action, gram = _swap_last_two(action), _swap_last_two(gram)
    surface = PolarizedRMSurface(order, action, gram)
    surface.__dict__["pf"] = abs(pf)  # where _kept keeps its value
    return surface


def _swap_last_two(m) -> IntMat:
    """P m P for the permutation P exchanging basis vectors 2 and 3."""
    r0, r1, r2, r3 = m
    return tuple((r[0], r[1], r[3], r[2]) for r in (r0, r1, r3, r2))


def change_basis(
    surface: PolarizedRMSurface, basis: IntMat, gram_den: int
) -> tuple[IntMat, IntMat, int]:
    """(action, gram, pf) of the surface in the basis given by the columns
    of basis, a lower-triangular integer matrix with a positive diagonal (a
    column Hermite form, as every kernel and hyperplane basis is), with the
    gram divided by gram_den: basis^-1 A basis, basis^T E basis / gram_den
    (descend_gram), both on integers, and that gram's pfaffian carried by
    identity, det(basis) pf / gram_den^2. The core of rebase.

    The new action M solves basis M = A basis, one row at a time by forward
    substitution: row i is row i of A basis, less b_ik times each row k < i
    of M, divided exactly by b_ii; det(basis) is the diagonal's product.
    Raises PreconditionError for any other basis; then descend_gram's
    DescentError; then PreconditionError when the action does not
    preserve the lattice. The gram is checked first, so a DescentError
    means exactly that the form does not descend.
    """
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = basis
    if b01 or b02 or b03 or b12 or b13 or b23 or min(b00, b11, b22, b33) <= 0:
        raise PreconditionError(
            "a change of basis needs a lower-triangular basis with a positive diagonal"
        )
    gram = descend_gram(surface.gram, basis, gram_den)
    # A B, without B's zeros
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = (
        surface.action
    )
    x00 = a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30
    x01 = a01 * b11 + a02 * b21 + a03 * b31
    x02 = a02 * b22 + a03 * b32
    x03 = a03 * b33
    x10 = a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30
    x11 = a11 * b11 + a12 * b21 + a13 * b31
    x12 = a12 * b22 + a13 * b32
    x13 = a13 * b33
    x20 = a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30
    x21 = a21 * b11 + a22 * b21 + a23 * b31
    x22 = a22 * b22 + a23 * b32
    x23 = a23 * b33
    x30 = a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30
    x31 = a31 * b11 + a32 * b21 + a33 * b31
    x32 = a32 * b22 + a33 * b32
    x33 = a33 * b33
    m0 = m00, m01, m02, m03 = _exact_row(b00, x00, x01, x02, x03)
    m1 = m10, m11, m12, m13 = _exact_row(
        b11, x10 - b10 * m00, x11 - b10 * m01, x12 - b10 * m02, x13 - b10 * m03
    )
    m2 = m20, m21, m22, m23 = _exact_row(
        b22,
        x20 - b20 * m00 - b21 * m10,
        x21 - b20 * m01 - b21 * m11,
        x22 - b20 * m02 - b21 * m12,
        x23 - b20 * m03 - b21 * m13,
    )
    m3 = _exact_row(
        b33,
        x30 - b30 * m00 - b31 * m10 - b32 * m20,
        x31 - b30 * m01 - b31 * m11 - b32 * m21,
        x32 - b30 * m02 - b31 * m12 - b32 * m22,
        x33 - b30 * m03 - b31 * m13 - b32 * m23,
    )
    d = gram_den
    return (m0, m1, m2, m3), gram, b00 * b11 * b22 * b33 * surface.pf // (d * d)


def descend_gram(gram: IntMat, basis: IntMat, den: int) -> IntMat:
    """basis^T gram basis / den for an alternating gram (as on every
    validated surface) and a lower-triangular basis: change_basis's gram,
    and the order enlargement's, once on the product of its bases. Only
    the six pairings above the diagonal are computed (from columns 1-3 of
    gram basis) and divided; the entries below are their negatives.
    Raises DescentError, naming the first pairing that den does not
    divide in row order of the full form.
    """
    (b00, _, _, _), (b10, b11, _, _), (b20, b21, b22, _), (b30, b31, b32, b33) = basis
    # E B, columns 1-3 only (the pairings read no other), without B's zeros
    # and E's zero diagonal
    (_, e01, e02, e03), (e10, _, e12, e13), (e20, e21, _, e23), (e30, e31, e32, _) = gram
    y01 = e01 * b11 + e02 * b21 + e03 * b31
    y11 = e12 * b21 + e13 * b31
    y21 = e21 * b11 + e23 * b31
    y31 = e31 * b11 + e32 * b21
    y02 = e02 * b22 + e03 * b32
    y12 = e12 * b22 + e13 * b32
    y22 = e23 * b32
    y32 = e32 * b22
    y03, y13, y23 = e03 * b33, e13 * b33, e23 * b33
    # the six pairings above the diagonal of B^T (E B), without B's zeros
    g01 = b00 * y01 + b10 * y11 + b20 * y21 + b30 * y31
    g02 = b00 * y02 + b10 * y12 + b20 * y22 + b30 * y32
    g03 = b00 * y03 + b10 * y13 + b20 * y23
    g12 = b11 * y12 + b21 * y22 + b31 * y32
    g13 = b11 * y13 + b21 * y23
    g23 = b22 * y23
    d = den
    if g01 % d or g02 % d or g03 % d or g12 % d or g13 % d or g23 % d:
        # the first in row order of the full form, whose entries below the
        # diagonal are the negatives of those above
        pairings = (0, 1, g01), (0, 2, g02), (0, 3, g03), (1, 2, g12), (1, 3, g13), (2, 3, g23)
        for i, j, g in pairings:
            if g % d:
                raise DescentError(
                    "polarization does not descend: pairing of overlattice "
                    f"generators {i} and {j} is {rational_text(g, d)}, not integral"
                )
    g01, g02, g03, g12, g13, g23 = g01 // d, g02 // d, g03 // d, g12 // d, g13 // d, g23 // d
    return (0, g01, g02, g03), (-g01, 0, g12, g13), (-g02, -g12, 0, g23), (-g03, -g13, -g23, 0)


def _pivots_first(i: int, j: int):
    """(i, j, k, l, unpermute) for pivots i < j and the other two k < l:
    unpermute reads the 16 entries of a matrix, row by row in the order
    i, j, k, l of rows and columns, back into the order 0, 1, 2, 3."""
    order = (i, j, *(r for r in range(4) if r not in (i, j)))
    at = order.index
    return (*order, itemgetter(*(4 * at(r) + at(c) for r in range(4) for c in range(4))))


# keyed by which diagonal entries of a rank-2 kernel's Hermite form are 1
_PIVOTS_FIRST = {
    tuple(r in (i, j) for r in range(4)): _pivots_first(i, j)
    for i in range(4) for j in range(i + 1, 4)
}


def enlarge_basis(action: IntMat, basis: IntMat, p: int) -> IntMat:
    """basis^-1 action basis / p, the action after the order enlargement
    at p, for basis the Hermite form of a rank-2 kernel mod p
    (intmat.hnf_mod_p_rank2): change_basis's action on that basis, then
    divided by p, in block form. The gram is not changed here: the
    enlargement descends it once, on the composite of its bases
    (descend_gram).

    With the pivots i < j put first and the other two k < l after them,
    basis is B = L D for L = [[I, 0], [N, I]] and D = diag(1, 1, p, p), N
    the pivot columns' entries at k and l, and L^-1 = [[I, 0], [-N, I]].
    So A = [[P, Q], [R, S]] in that order becomes
    [[(P + Q N) / p, Q], [(R + S N - N (P + Q N)) / p^2, (S - N Q) / p]]
    (32 products), with no forward substitution, read back into the order
    0, 1, 2, 3. 16 divisibility tests check it, where change_basis and the
    division by p make 32.

    Checks what change_basis's action and the division by p check, in
    their order: PreconditionError when R + S N - N (P + Q N) is not 0
    mod p, as then the action does not preserve the lattice; then
    InvariantBreach when the new action is not divisible by p.
    """
    i, j, k, l, unpermute = _PIVOTS_FIRST[
        basis[0][0] == 1, basis[1][1] == 1, basis[2][2] == 1, basis[3][3] == 1
    ]
    bk, bl = basis[k], basis[l]
    n00, n01, n10, n11 = bk[i], bk[j], bl[i], bl[j]
    ai, aj, ak, al = action[i], action[j], action[k], action[l]
    p00, p01, q00, q01 = ai[i], ai[j], ai[k], ai[l]
    p10, p11, q10, q11 = aj[i], aj[j], aj[k], aj[l]
    r00, r01, s00, s01 = ak[i], ak[j], ak[k], ak[l]
    r10, r11, s10, s11 = al[i], al[j], al[k], al[l]
    x00, x01 = p00 + q00 * n00 + q01 * n10, p01 + q00 * n01 + q01 * n11
    x10, x11 = p10 + q10 * n00 + q11 * n10, p11 + q10 * n01 + q11 * n11
    z00 = r00 + s00 * n00 + s01 * n10 - n00 * x00 - n01 * x10
    z01 = r01 + s00 * n01 + s01 * n11 - n00 * x01 - n01 * x11
    z10 = r10 + s10 * n00 + s11 * n10 - n10 * x00 - n11 * x10
    z11 = r11 + s10 * n01 + s11 * n11 - n10 * x01 - n11 * x11
    if z00 % p or z01 % p or z10 % p or z11 % p:
        raise PreconditionError("order action does not preserve the lattice")
    z00, z01, z10, z11 = z00 // p, z01 // p, z10 // p, z11 // p
    w00, w01 = s00 - n00 * q00 - n01 * q10, s01 - n00 * q01 - n01 * q11
    w10, w11 = s10 - n10 * q00 - n11 * q10, s11 - n10 * q01 - n11 * q11
    if (
        x00 % p or x01 % p or x10 % p or x11 % p or z00 % p or z01 % p or z10 % p or z11 % p
        or w00 % p or w01 % p or w10 % p or w11 % p
    ):
        raise InvariantBreach("enlarged generator does not act integrally")
    m = unpermute((
        x00 // p, x01 // p, q00, q01,
        x10 // p, x11 // p, q10, q11,
        z00 // p, z01 // p, w00 // p, w01 // p,
        z10 // p, z11 // p, w10 // p, w11 // p,
    ))
    return m[:4], m[4:8], m[8:12], m[12:]


def _exact_row(d: int, y0: int, y1: int, y2: int, y3: int) -> IntVec:
    """(y0, y1, y2, y3) / d for a row of change_basis's action, four tests
    then four quotients; PreconditionError when d does not divide it, as
    then the action does not preserve the lattice."""
    if y0 % d or y1 % d or y2 % d or y3 % d:
        raise PreconditionError("order action does not preserve the lattice")
    return y0 // d, y1 // d, y2 // d, y3 // d


def rebase(
    surface: PolarizedRMSurface, basis: IntMat, den: int = 1
) -> PolarizedRMSurface:
    """The same polarized lattice in the basis given by the columns of
    basis / den.

    basis is a lower-triangular integer matrix with a positive diagonal in
    the coordinates of the current lattice, as a column Hermite form is;
    basis / den may span an overlattice or a sublattice. The new gram is
    basis^T E basis / den^2 and the new action basis^-1 A basis
    (change_basis). Raises PreconditionError for any other basis,
    DescentError, naming the first non-integral pairing, when the form is
    not integral on the new lattice, and PreconditionError when the order
    action does not preserve it. The result is canonically oriented, with
    the pfaffian change_basis carries, det(basis) * pf / den^4.
    """
    action, gram, pf = change_basis(surface, basis, den * den)
    return canonicalize_orientation(surface.order, action, gram, pf)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def standard_instance(order: RealQuadraticOrder) -> PolarizedRMSurface:
    """The principal surface on R + R^dual with the trace pairing.

    Basis (1, w) of the first summand and the trace-dual basis of the
    second; the generator acts blockwise by its multiplication matrix and
    the pairing Tr(a*b' - a'*b) has pfaffian exactly 1. A pure function of
    an immutable order, so each order's surface is built and validated
    once per process; a refusal raises and is never kept.
    """
    t, n = order.trace_omega, order.norm_omega
    m = ((0, -n), (1, t))
    action = intmat.freeze(
        [
            (m[0][0], m[0][1], 0, 0),
            (m[1][0], m[1][1], 0, 0),
            (0, 0, m[0][0], m[0][1]),
            (0, 0, m[1][0], m[1][1]),
        ]
    )
    gram = intmat.freeze(
        [
            (0, 0, 0, 1),
            (0, 0, 1, t),
            (0, -1, 0, 0),
            (-1, -t, 0, 0),
        ]
    )
    surface = PolarizedRMSurface(order, action, gram)
    msg = validate(surface)
    if msg is not None:
        raise InvariantBreach(f"standard instance failed validation: {msg}")
    return surface


def element_action(surface: PolarizedRMSurface, el: OrderElement) -> IntMat:
    """Matrix of x + y*w acting on the lattice."""
    if (el.order.D, el.order.conductor) != (
        surface.order.D,
        surface.order.conductor,
    ):
        raise PreconditionError("element belongs to a different order")
    return _scalar_plus(el.x, el.y, surface.action)


def _scalar_plus(x: int, y: int, m) -> IntMat:
    """x*I + y*m for a 4x4 matrix m, written out."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m
    return (
        (x + y * m00, y * m01, y * m02, y * m03),
        (y * m10, x + y * m11, y * m12, y * m13),
        (y * m20, y * m21, x + y * m22, y * m23),
        (y * m30, y * m31, y * m32, x + y * m33),
    )


def twist_by_element(
    surface: PolarizedRMSurface, el: OrderElement, den: int = 1, *, norm: int
) -> PolarizedRMSurface:
    """Compose the polarization with the action of el over den: gram becomes
    gram @ A_el / den, with pfaffian norm * pf / den^2.

    norm, keyword-only, is el's norm, which every caller already holds,
    so none is computed here. The surface must be valid, as every caller's
    is: then E A is alternating (validate checks it), and so is
    gram @ A_el = x E + y E A for el = x + y w. So only its six pairings
    above the diagonal are computed, x E_ij + y (E A)_ij with (E A)_ij
    written out without E's zero diagonal (30 products where the full
    product takes 16 + 64), and only those six are tested for division by
    den. Raises DescentError when den does not divide them.
    """
    if el.is_zero():
        raise PreconditionError("cannot twist by zero")
    if (el.order.D, el.order.conductor) != (surface.order.D, surface.order.conductor):
        raise PreconditionError("element belongs to a different order")
    x, y = el.x, el.y
    (_, e01, e02, e03), (e10, _, e12, e13), (e20, e21, _, e23), _ = surface.gram
    (_, _, a02, a03), (_, a11, a12, a13), (_, a21, a22, a23), (_, a31, a32, a33) = surface.action
    g01 = x * e01 + y * (e01 * a11 + e02 * a21 + e03 * a31)
    g02 = x * e02 + y * (e01 * a12 + e02 * a22 + e03 * a32)
    g03 = x * e03 + y * (e01 * a13 + e02 * a23 + e03 * a33)
    g12 = x * e12 + y * (e10 * a02 + e12 * a22 + e13 * a32)
    g13 = x * e13 + y * (e10 * a03 + e12 * a23 + e13 * a33)
    g23 = x * e23 + y * (e20 * a03 + e21 * a13 + e23 * a33)
    if den != 1:
        if g01 % den or g02 % den or g03 % den or g12 % den or g13 % den or g23 % den:
            raise DescentError(
                "polarization kernel does not contain the kernel of the element"
            )
        g01, g02, g03 = g01 // den, g02 // den, g03 // den
        g12, g13, g23 = g12 // den, g13 // den, g23 // den
    gram = (0, g01, g02, g03), (-g01, 0, g12, g13), (-g02, -g12, 0, g23), (-g03, -g13, -g23, 0)
    pf = norm * surface.pf // (den * den)
    return canonicalize_orientation(surface.order, surface.action, gram, pf)


def apply_unimodular(surface: PolarizedRMSurface, u: IntMat) -> PolarizedRMSurface:
    """Change basis by a unimodular matrix: (A, E) -> (U^-1 A U, U^T E U),
    canonically oriented, with pfaffian det(U) pf. U^-1 is det(U) adj(U),
    as det(U) = +-1, so nothing is divided; both are full products, as U is
    not triangular and the scramble runs once per instance."""
    d = intmat.det(u)
    if d not in (1, -1):
        raise PreconditionError("basis change must be unimodular")
    inverse = _scalar_plus(0, d, intmat.adjugate(u))
    action = intmat.mat_mul(intmat.mat_mul(inverse, surface.action), u)
    gram = intmat.mat_mul(intmat.transpose(u), intmat.mat_mul(surface.gram, u))
    return canonicalize_orientation(surface.order, action, gram, d * surface.pf)


def eigen_sublattice_pullback(
    surface: PolarizedRMSurface, p: int, eigenvalue_index: int
) -> PolarizedRMSurface:
    """Restrict to the index-p sublattice over an action eigen-hyperplane.

    Requires p split and coprime to conductor and degree. The sublattice is
    the preimage of the hyperplane annihilated by the canonical transposed
    eigenvector for the chosen eigenvalue (ascending order), so the output
    is deterministic. Its degree is p^2 times the input degree.
    """
    order = surface.order
    if eigenvalue_index not in (0, 1):
        raise PreconditionError("eigenvalue_index must be 0 or 1")
    if splitting_type(order, p) != SPLIT:
        raise PreconditionError(f"{int_text(p)} is not split in the field")
    if degree(surface) % p == 0:
        raise PreconditionError(f"{int_text(p)} already divides the degree")
    # p is split, so it does not divide disc and the two roots differ
    r = sorted(_roots_mod_p(order, p))[eigenvalue_index]
    at_shift = _scalar_plus(-r, 1, intmat.transpose(surface.action))
    eigvecs = intmat.kernel_mod_p(at_shift, p)
    if not eigvecs:
        raise InvariantBreach("transposed action has an empty eigenspace")
    return rebase(surface, _hyperplane_basis(eigvecs[0], p))


def _hyperplane_basis(v, p: int) -> IntMat:
    """The column Hermite form of {x : v.x = 0 (mod p)} for v nonzero mod p,
    written out: with l the last index where v_l is nonzero mod p, column
    j != l is e_j + (-v_j / v_l mod p) e_l and column l is p e_l. The
    Hermite form is unique, so this is hnf_mod_p(kernel_mod_p([v], p), p)."""
    l = max(j for j in range(4) if v[j] % p)
    scale = -pow(v[l], -1, p)
    last = [v[j] * scale % p for j in range(4)]
    last[l] = p
    rows = list(intmat.identity())
    rows[l] = tuple(last)
    return tuple(rows)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def polarization_kernel_mod_p(surface: PolarizedRMSurface, p: int):
    """The p-torsion of the polarization kernel as a subspace of L/pL."""
    return intmat.kernel_mod_p(surface.gram, p)


def kernel_from_subspace(basis, p: int) -> KernelSubgroup:
    """KernelSubgroup spanned by p-torsion classes with the given mod-p basis."""
    return KernelSubgroup(intmat.hnf_mod_p(basis, p), p)


def stabilizer_order(surface: PolarizedRMSurface) -> RealQuadraticOrder:
    """Largest order (conductor dividing the stored one) acting integrally.

    With generators scaled linearly by the conductor, the conductor-g
    generator acts by (g/f) * action, so integrality is a matrix content
    test. Only gcd(f, content) is needed, so the gcd chain starts from f
    and its running value never exceeds f.
    """
    f = surface.order.conductor
    a = surface.action
    g = f // gcd(f, *a[0], *a[1], *a[2], *a[3])
    return make_order(surface.order.D, g)
