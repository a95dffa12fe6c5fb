"""Isogenies as overlattices: quotients, descent and division of polarizations.

All isogenies are realized in the forward direction as finite-index
overlattices L <= L'. Descending a polarization to L' means expressing the
same form in an L'-basis, which is possible exactly when the form is
integral on L'. Dividing by a symmetric element keeps the lattice and
composes the form with the inverse action. Every primitive returns only
the new surface, canonically oriented, and enforces its exact degree
identity. Twisting a polarization by an element is
surface.twist_by_element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intmat
from .errors import DescentError, InvariantBreach, PreconditionError
from .intmat import IntMat, RatMat
from .quadratic import OrderElement
from .surface import (
    KernelSubgroup,
    PolarizedRMSurface,
    canonicalize_orientation,
    degree,
    element_action,
)

QUOTIENT = "quotient"
DIVIDE = "divide_by_alpha"
SCALE = "scale"
TWIST = "twist"


@dataclass(frozen=True)
class IsogenyStep:
    """One replayable move in an isogeny chain, with its exact degree ledger.

    kind is one of quotient, divide_by_alpha, scale, twist. For scale steps
    `prime` doubles as the scale factor. `kernel_overlattice` is the
    quotient kernel's overlattice, `t` marks the quotient of an
    order-enlargement move (where the action is also divided by the prime),
    and `branch` labels degree-reduction moves. Certificates serialize
    exactly these fields.
    """

    kind: str
    prime: int
    kernel_overlattice: RatMat | None
    alpha: tuple[int, int] | None
    degree_before: int
    degree_after: int
    t: int | None
    branch: str | None


# The pipeline builds steps only through make_step, which enforces the exact
# degree identity of each kind using the element's actual norm.


def make_step(
    *,
    kind: str,
    prime: int,
    kernel: KernelSubgroup | None = None,
    alpha: OrderElement | None = None,
    degree_before: int,
    degree_after: int,
    t: int | None = None,
    branch: str | None = None,
) -> IsogenyStep:
    if kind == QUOTIENT:
        if kernel is None:
            raise InvariantBreach("quotient step requires a kernel")
        k = kernel.group_order
        if degree_after * k * k != degree_before:
            raise InvariantBreach("quotient step violates its degree identity")
    elif kind == DIVIDE:
        if alpha is None:
            raise InvariantBreach("divide step requires an element")
        nm = alpha.norm()
        if degree_after * nm * nm != degree_before:
            raise InvariantBreach("divide step violates its degree identity")
    elif kind == SCALE:
        if degree_before != prime**4 * degree_after:
            raise InvariantBreach("scale step violates its degree identity")
    elif kind == TWIST:
        if alpha is None:
            raise InvariantBreach("twist step requires an element")
        nm = alpha.norm()
        if degree_after != nm * nm * degree_before:
            raise InvariantBreach("twist step violates its degree identity")
    else:
        raise InvariantBreach(f"unknown step kind {kind!r}")
    return IsogenyStep(
        kind=kind,
        prime=prime,
        kernel_overlattice=kernel.overlattice if kernel is not None else None,
        alpha=(alpha.x, alpha.y) if alpha is not None else None,
        degree_before=degree_before,
        degree_after=degree_after,
        t=t,
        branch=branch,
    )


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def quotient_lattice(surface: PolarizedRMSurface, kernel: KernelSubgroup) -> IntMat:
    """The integral action rebased to the overlattice basis of K.

    Raises PreconditionError when the order action does not preserve the
    overlattice, which signals an invalid kernel choice.
    """
    h = kernel.overlattice
    h_inv = intmat.inverse(h)
    if not intmat.is_integral(h_inv):
        raise PreconditionError("overlattice does not contain the base lattice")
    rebased = intmat.mat_mul(intmat.mat_mul(h_inv, surface.action), h)
    if not intmat.is_integral(rebased):
        raise PreconditionError("order action does not preserve the kernel")
    return intmat.to_int(rebased)


def can_descend(surface: PolarizedRMSurface, kernel: KernelSubgroup) -> bool:
    """Whether the gram form is integral on the kernel's overlattice."""
    h = kernel.overlattice
    rebased = intmat.mat_mul(
        intmat.mat_mul(intmat.transpose(h), intmat.to_fraction(surface.gram)), h
    )
    return intmat.is_integral(rebased)


def descend_polarization(
    surface: PolarizedRMSurface, kernel: KernelSubgroup
) -> PolarizedRMSurface:
    """Express the polarization on the overlattice, or raise DescentError.

    On success the result is the surface on L' with rebased integral gram
    and action, canonically oriented.
    """
    action_new = quotient_lattice(surface, kernel)
    h = kernel.overlattice
    gram_frac = intmat.mat_mul(
        intmat.mat_mul(intmat.transpose(h), intmat.to_fraction(surface.gram)), h
    )
    if not intmat.is_integral(gram_frac):
        for i in range(4):
            for j in range(4):
                if Fraction(gram_frac[i][j]).denominator != 1:
                    raise DescentError(
                        "polarization does not descend: pairing of overlattice "
                        f"generators {i} and {j} is {gram_frac[i][j]}, not integral"
                    )
    gram_new = intmat.to_int(gram_frac)
    out = canonicalize_orientation(surface.order, action_new, gram_new)
    k = kernel.group_order
    if degree(out) * k * k != degree(surface):
        raise InvariantBreach("descended degree does not match the kernel order")
    return out


def divide_by_symmetric(
    surface: PolarizedRMSurface, el: OrderElement
) -> PolarizedRMSurface:
    """Divide the polarization by a symmetric non-unit element.

    Succeeds exactly when gram @ A_el^-1 is integral (the polarization
    kernel contains the element's kernel); the degree drops by norm(el)^2.
    """
    if el.is_zero():
        raise PreconditionError("cannot divide by zero")
    if el.is_unit():
        raise PreconditionError("dividing by a unit is the identity; not a step")
    a_el = element_action(surface, el)
    a_inv = intmat.inverse(a_el)
    gram_frac = intmat.mat_mul(intmat.to_fraction(surface.gram), a_inv)
    if not intmat.is_integral(gram_frac):
        raise DescentError(
            "polarization kernel does not contain the kernel of the element"
        )
    gram_new = intmat.to_int(gram_frac)
    out = canonicalize_orientation(surface.order, surface.action, gram_new)
    nm = el.norm()
    if degree(out) * nm * nm != degree(surface):
        raise InvariantBreach("division degree bookkeeping failed")
    return out


def scale_polarization(surface: PolarizedRMSurface, c: int) -> PolarizedRMSurface:
    """Divide the gram form by the integer c > 1 (all entries must divide)."""
    if c <= 1:
        raise PreconditionError("scale factor must exceed 1")
    if any(x % c for row in surface.gram for x in row):
        raise DescentError(f"gram form is not divisible by {c}")
    gram_new = intmat.freeze(tuple(x // c for x in row) for row in surface.gram)
    out = canonicalize_orientation(surface.order, surface.action, gram_new)
    if degree(surface) != c**4 * degree(out):
        raise InvariantBreach("scale degree bookkeeping failed")
    return out

