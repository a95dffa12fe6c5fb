"""Isogenies as lattice moves: descent along a kernel and division of
polarizations, plus the replayable step record.

All isogenies are realized in the forward direction as finite-index
overlattices L <= L'. Descending a polarization to L' is the basis change
surface.rebase to the kernel's integer pair (basis, den), which succeeds
exactly when the form is integral on L'. Dividing by a symmetric element
keeps the lattice and twists the form by the conjugate over the norm
(surface.twist_by_element), since the inverse action is the conjugate's
action divided by the norm; dividing by the integer p is the scale move.
Each primitive returns only the new surface, canonically oriented, with
the pfaffian that rebase or twist_by_element carried by identity.
"""

from __future__ import annotations

from .errors import PreconditionError
from .quadratic import OrderElement, Record
from .surface import (
    KernelSubgroup,
    PolarizedRMSurface,
    rebase,
    twist_by_element,
)

QUOTIENT = "quotient"
DIVIDE = "divide_by_alpha"
SCALE = "scale"
TWIST = "twist"


class IsogenyStep(Record):
    """One replayable move in an isogeny chain, with the degree it starts
    and ends at.

    kind is one of quotient, divide_by_alpha, scale, twist. For scale steps
    `prime` doubles as the scale factor. `kernel_overlattice` is the
    quotient kernel itself, its integer pair (basis, den), whose
    overlattice is basis / den; `alpha` the (x, y) coordinates of the
    twisting or dividing element, `t` marks the quotient of an
    order-enlargement move (where the action is also divided by the prime),
    and `branch` labels degree-reduction moves. Certificates serialize
    exactly these fields.
    """

    __slots__ = _fields = (
        "kind", "prime", "kernel_overlattice", "alpha", "degree_before", "degree_after", "t", "branch"
    )

    def __init__(
        self,
        *,
        kind: str,
        prime: int,
        kernel_overlattice: KernelSubgroup | None = None,
        alpha: tuple[int, int] | None = None,
        degree_before: int,
        degree_after: int,
        t: int | None = None,
        branch: str | None = None,
    ) -> None:
        self.__setstate__(
            (kind, prime, kernel_overlattice, alpha, degree_before, degree_after, t, branch)
        )


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def descend_polarization(
    surface: PolarizedRMSurface, kernel: KernelSubgroup
) -> PolarizedRMSurface:
    """Express the polarization on the kernel's overlattice.

    Raises DescentError when the form is not integral there and
    PreconditionError when the order action does not preserve the
    overlattice. The degree drops by the square of the kernel order.
    """
    return rebase(surface, kernel.basis, kernel.den)


def divide_by_symmetric(
    surface: PolarizedRMSurface, el: OrderElement
) -> PolarizedRMSurface:
    """Divide the polarization by a symmetric non-unit element.

    Succeeds exactly when gram @ A_el^-1 is integral (the polarization
    kernel contains the element's kernel), and raises DescentError
    otherwise; the degree drops by norm(el)^2. The action satisfies
    A^2 - tA + n = 0, so A_el @ A_conj(el) = norm(el) and
    A_el^-1 = A_conj(el) / norm(el): the division is the twist by the
    conjugate over the norm, an exact integer one.
    """
    if el.is_zero():
        raise PreconditionError("cannot divide by zero")
    n = el.norm()
    if abs(n) == 1:
        raise PreconditionError("dividing by a unit is the identity; not a step")
    return twist_by_element(surface, el.conjugate(), n, norm=n)
