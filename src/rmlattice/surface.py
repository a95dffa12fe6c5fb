"""Rank-4 lattice model of a polarized abelian surface with real multiplication.

A surface is a triple (order, action, gram): the lattice is Z^4, `action`
is the integer matrix by which the order generator acts, and `gram` is a
nondegenerate integral alternating form giving the polarization. The four
defining invariants are: gram antisymmetric, gram nondegenerate (pfaffian
nonzero; for a 4x4 alternating form det = pfaffian^2 always holds), action
satisfying the generator's minimal polynomial, and the symmetry identity
action^T * gram = gram * action.

Degree, the one change of lattice basis (change_basis, on integers, and
rebase around it), kernels given by mod-p subspaces, stabilizer orders and
the instance constructors all live here. Every move that re-expresses the
lattice (descent to an overlattice, pull-back to a sublattice, a
unimodular scramble) goes through rebase, except the order enlargement,
which calls change_basis itself to descend its unbuilt twist p^3 E as
B^T E B / p and divide the action by p before it builds its one surface.
change_basis requires an alternating gram, as every caller's validated
surface has: it computes only the six pairings above the diagonal of
B^T E B (intmat.alternating_congruence). It divides the gram and the
action with the written-out exact division intmat.div_exact, as
twist_by_element divides its gram unless den is 1.
Everything is a pure function on immutable integer values. A kernel is
its pair (basis, den), which the step record holds as it is and replay
compares as integers; only formats spells it as rationals. Kernels given
by mod-p subspaces take their Hermite form from one elimination over Z/p
(intmat.hnf_mod_p); the eigen-sublattice pull-back's hyperplane, the one
kernel of a single linear form, has its Hermite basis written in closed
form (_hyperplane_basis). standard_instance is kept per order in an
unbounded lru_cache, so generate builds and validates it once per order.

The pfaffian is kept on each surface (the cached property `pf`, which is
not one of its fields, so equality, hashing, pickling and every serialized
form see only order, action and gram); degree and validation read it.
With the gram's content c it gives the polarization's elementary divisors
(c, c, pf/c, pf/c) (intmat.alternating_divisors), so no dual lattice is
ever built. rebase, twist_by_element and the enlargement move, the only
builders of a moved surface, carry it by identity (det(B) pf / den^4,
norm(el) pf / den^2 with the norm from the caller, and det(B) pf / p^2)
instead of recomputing it, and no move re-checks its degree. validate
checks the minimal polynomial A^2 - tA + n = 0 from the one product A^2,
and the symmetry A^T E = E A from the one product E A, which must be
alternating; its verdict is kept on the surface the same way (the cached
property `defect`), so the CLI and principalize check an input once.
The only other thing kept on a surface is its instance text, which
formats.serialize_instance keeps as `text` the same way. Element actions
x*I + y*A and the reorientation that swaps the last two basis vectors are
written out rather than built from matrix products.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

from . import intmat
from .arith import int_text, rational_text
from .errors import DescentError, InvariantBreach, PreconditionError
from .intmat import IntMat
from .quadratic import (
    SPLIT,
    OrderElement,
    RealQuadraticOrder,
    Record,
    _roots_mod_p,
    make_order,
    splitting_type,
)


class PolarizedRMSurface(Record):
    # __dict__ holds pf, defect and the kept instance text, outside the fields
    __slots__ = ("order", "action", "gram", "__dict__")
    _fields = ("order", "action", "gram")

    def __init__(self, order: RealQuadraticOrder, action: IntMat, gram: IntMat) -> None:
        self.__setstate__((order, action, gram))

    @cached_property
    def pf(self) -> int:
        """Pfaffian of the gram form, computed on first use and then kept.

        Not one of the fields, so equality, hashing, pickling, the
        constructor and every serialized form see only (order, action, gram).
        """
        return intmat.pfaffian4(self.gram)

    @cached_property
    def defect(self) -> str | None:
        """None when all invariants hold, else a message naming the first
        failure; computed on first use and then kept, like pf."""
        e, a = self.gram, self.action
        if not intmat.is_antisymmetric(e):
            return "gram form is not antisymmetric"
        if self.pf == 0:
            return "gram form is degenerate"
        t, n = self.order.trace_omega, self.order.norm_omega
        # A^2 - tA + n = 0, entry by entry from the one product A^2
        for i, (row2, row) in enumerate(zip(intmat.mat_mul(a, a), a)):
            for j, (x2, x) in enumerate(zip(row2, row)):
                if x2 - t * x + (n if i == j else 0):
                    return "action does not satisfy the order's minimal polynomial"
        # E is alternating, so A^T E = -(E A)^T: A^T E = E A exactly when E A
        # is alternating too
        if not intmat.is_antisymmetric(intmat.mat_mul(e, a)):
            return "action is not symmetric for the gram form"
        return None

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

    def __init__(self, basis: IntMat, den: int) -> None:
        self.__setstate__((basis, den))

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
    surface.__dict__["pf"] = abs(pf)  # where cached_property keeps its value
    return surface


def _swap_last_two(m) -> IntMat:
    """P m P for the permutation P exchanging basis vectors 2 and 3."""
    r0, r1, r2, r3 = m
    return tuple((r[0], r[1], r[3], r[2]) for r in (r0, r1, r3, r2))


def change_basis(
    surface: PolarizedRMSurface, basis: IntMat, gram_den: int
) -> tuple[IntMat, IntMat, int]:
    """(action, gram, det(basis)) of the surface in the basis given by the
    columns of the nonsingular integer matrix basis, with the gram divided
    by gram_den: adj(basis) A basis / det(basis) and basis^T E basis /
    gram_den, both on integers. The core of rebase, and of the enlargement
    move, whose form p^3 E on basis / p^2 is basis^T E basis / p.

    The surface's gram must be alternating, as on every validated surface:
    only the six pairings above the diagonal are computed
    (intmat.alternating_congruence). Raises DescentError, naming the first
    pairing that gram_den does not divide, and then PreconditionError when
    the action does not preserve the lattice. The gram is checked first,
    so a DescentError means exactly that the form does not descend.
    """
    full = intmat.alternating_congruence(surface.gram, basis)
    gram = intmat.div_exact(full, gram_den)
    if gram is None:
        i, j = next((i, j) for i in range(4) for j in range(4) if full[i][j] % gram_den)
        raise DescentError(
            "polarization does not descend: pairing of overlattice "
            f"generators {i} and {j} is {rational_text(full[i][j], gram_den)}, "
            "not integral"
        )
    adj = intmat.adjugate(basis)
    (a0, _, _, _), (a1, _, _, _), (a2, _, _, _), (a3, _, _, _) = adj
    b0, b1, b2, b3 = basis[0]
    d = b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3  # (basis @ adj)[0][0]
    action = intmat.div_exact(intmat.mat_mul(intmat.mat_mul(adj, surface.action), basis), d)
    if action is None:
        raise PreconditionError("order action does not preserve the lattice")
    return action, gram, d


def rebase(
    surface: PolarizedRMSurface, basis: IntMat, den: int = 1
) -> PolarizedRMSurface:
    """The same polarized lattice in the basis given by the columns of
    basis / den.

    basis is a nonsingular integer matrix in the coordinates of the current
    lattice; basis / den may span an overlattice or a sublattice. The new
    gram is basis^T E basis / den^2 and the new action
    adj(basis) A basis / det(basis) (change_basis). Raises DescentError,
    naming the first non-integral pairing, when the form is not integral
    on the new lattice, and PreconditionError when the order action does
    not preserve it. The result is canonically oriented, with pfaffian
    det(basis) * pf / den^4.
    """
    den2 = den * den
    action, gram, d = change_basis(surface, basis, den2)
    return canonicalize_orientation(
        surface.order, action, gram, d * surface.pf // (den2 * den2)
    )


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
    so none is computed here. Raises DescentError when gram @ A_el is not
    divisible by den.
    """
    if el.is_zero():
        raise PreconditionError("cannot twist by zero")
    gram = intmat.mat_mul(surface.gram, element_action(surface, el))
    if den != 1:
        gram = intmat.div_exact(gram, den)
        if gram is None:
            raise DescentError(
                "polarization kernel does not contain the kernel of the element"
            )
    pf = norm * surface.pf // (den * den)
    return canonicalize_orientation(surface.order, surface.action, gram, pf)


def apply_unimodular(surface: PolarizedRMSurface, u: IntMat) -> PolarizedRMSurface:
    """Change basis by a unimodular matrix: (A, E) -> (U^-1 A U, U^T E U),
    canonically oriented."""
    if intmat.det(u) not in (1, -1):
        raise PreconditionError("basis change must be unimodular")
    return rebase(surface, u)


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
