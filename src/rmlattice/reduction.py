"""The three reduction moves, the principalization pipeline and its record.

Each move takes a surface and a prime and returns (surface, steps).
squarefree_reduce shrinks the p-part of the polarization kernel until its
elementary divisors at p are squarefree; once the gram's content is prime
to p, the carried pfaffian alone says whether a quotient move is left, so
the loop stops without another pass over the gram. enlarge_order_step
enlarges the acting order by one conductor prime without changing the
degree, building one surface per move: its twist by p^3 is recorded from
the scalar identities, not built, and the descent and the division of the
action by p are one change of basis (surface.change_basis); its quotient
step records the rank invariant t of the old generator mod p (always 2 on
valid input), read off the kernel's Hermite form, so a move row-reduces
mod p once. reduce_degree_step removes a reducible prime from the degree
by dividing by the norm +-p factor whose mod-p kernel is the kernel
p-torsion K, and records the branch on its last step. It finds that factor
as the first whose action kills K, with K 2-dimensional: p does not divide
the conductor and the factor's norm is +-p, so its mod-p kernel always has
dimension 2 (for split and for ramified p), and a 2-dimensional K inside
it is all of it. K is row-reduced once per step, by the branch decision:
the squarefree loop stops on the pfaffian without asking for it.
principalize chains the moves, conductor primes first, and returns the
final surface with its CertificateData; it is the only code that chains
moves, and replay re-runs it. The moves carry the pfaffian by identity and
check no degree identity of their own; principalize's closing check
validates the result, compares its carried pfaffian with a fresh one and
requires it principal with a maximal acting order.
"""

from __future__ import annotations

from math import gcd

from . import intmat
from .arith import factorize, int_text, require_odd_prime
from .errors import DescentError, InvariantBreach, PreconditionError
from .isogeny import (
    DIVIDE,
    QUOTIENT,
    SCALE,
    TWIST,
    IsogenyStep,
    descend_polarization,
    divide_by_symmetric,
)
from .quadratic import Record, factor_prime, make_order
from .surface import (
    KernelSubgroup,
    PolarizedRMSurface,
    canonicalize_orientation,
    change_basis,
    degree,
    element_action,
    kernel_from_subspace,
    polarization_kernel_mod_p,
    stabilizer_order,
    validate,
)

SPLIT_DIVIDE = "split_divide"
ASSOCIATE_DIVIDE = "associate_divide"


class CertificateData(Record):
    """Replayable record of a principalization run: the steps from the
    input surface and the final surface they reach."""

    __slots__ = _fields = ("steps", "final")

    def __init__(self, steps: tuple[IsogenyStep, ...], final: PolarizedRMSurface) -> None:
        self.__setstate__((steps, final))


# ---------------------------------------------------------------------------
# squarefree reduction of the kernel at one prime
# ---------------------------------------------------------------------------


def order_p_squared_subspace(surface: PolarizedRMSurface, p: int):
    """Mod-p classes of p * (kernel p^2-torsion), as a basis of their span.

    These classes are exactly the reductions of lattice vectors x with
    gram x = 0 mod p^2, computed by lifting the mod-p kernel: a kernel
    vector b lifts iff (gram b)/p lands in the image of gram mod p, which
    is a linear condition on mod-p coefficients: (gram b)/p must pair to
    zero with the mod-p kernel, since the gram is alternating and its
    image is the kernel's annihilator. No big-integer elimination is
    involved. The basis is not canonical: kernel_from_subspace's Hermite
    form makes the kernel so.
    """
    base = polarization_kernel_mod_p(surface, p)
    if not base:
        return ()
    carries = [
        tuple((x // p) % p for x in intmat.mat_vec(surface.gram, b)) for b in base
    ]
    conditions = [[sum(u[i] * w[i] for i in range(4)) % p for w in carries] for u in base]
    return tuple(
        tuple(sum(c[i] * base[i][k] for i in range(len(base))) % p for k in range(4))
        for c in intmat.kernel_mod_p(conditions, p)
    )


def squarefree_reduce(
    surface: PolarizedRMSurface, p: int
) -> tuple[PolarizedRMSurface, tuple[IsogenyStep, ...]]:
    """Scale and quotient until the p-part of the kernel divisors is (1, p) or (1, 1).

    Move (a): when the whole gram form vanishes mod p, divide it by p.
    Move (b): when the kernel has a point of order p^2, quotient by p times
    the p^2-torsion of the kernel; descent always succeeds there. By the
    carried identities the scale move takes the pfaffian to pf/p^2 and a
    quotient by a k-dimensional subspace to pf/p^k, so each move strictly
    lowers the p-valuation of the degree. Once the gram's content c is
    prime to p, the divisors (c, c, pf/c, pf/c) put (Z/p^v)^2 in the
    kernel, v the p-valuation of the carried pf, so move (b) is taken
    exactly when p^2 divides pf; finding no p^2-torsion there is an
    invariant breach.
    """
    require_odd_prime(p)
    steps: list[IsogenyStep] = []
    current = surface
    while True:
        deg_before = degree(current)
        if all(x % p == 0 for row in current.gram for x in row):
            new_surface = divide_by_symmetric(current, current.order.element(p, 0))
            steps.append(
                IsogenyStep(
                    kind=SCALE,
                    prime=p,
                    degree_before=deg_before,
                    degree_after=degree(new_surface),
                )
            )
        elif current.pf % (p * p) == 0:
            subspace = order_p_squared_subspace(current, p)
            if not subspace:
                v, n = 0, current.pf
                while n % p == 0:
                    n //= p
                    v += 1
                raise InvariantBreach(
                    "squarefree reduction left divisor p-parts "
                    f"(1, {int_text(p**v)}) at {int_text(p)}"
                )
            kernel = kernel_from_subspace(subspace, p)
            try:
                new_surface = descend_polarization(current, kernel)
            except (DescentError, PreconditionError) as exc:
                raise InvariantBreach(
                    f"guaranteed squarefree descent failed at {int_text(p)}: {exc}"
                ) from exc
            steps.append(
                IsogenyStep(
                    kind=QUOTIENT,
                    prime=p,
                    kernel_overlattice=kernel,
                    degree_before=deg_before,
                    degree_after=degree(new_surface),
                )
            )
        else:
            return current, tuple(steps)
        current = new_surface


# ---------------------------------------------------------------------------
# enlarging the acting order at one conductor prime
# ---------------------------------------------------------------------------


def enlargement_kernel(surface: PolarizedRMSurface, p: int) -> KernelSubgroup:
    """The canonical kernel (1/p)L + (1/p^2)(action)L of the enlargement move:
    (pL + (action)L) / p^2, whose Hermite form is one elimination of the
    action's columns mod p; its unit diagonal entries count their rank."""
    return KernelSubgroup(intmat.hnf_mod_p(intmat.transpose(surface.action), p), p * p)


def enlarge_order_step(
    surface: PolarizedRMSurface, p: int
) -> tuple[PolarizedRMSurface, tuple[IsogenyStep, IsogenyStep]]:
    """One conductor-prime enlargement: twist the gram by p^3, quotient by the
    canonical kernel of order p^6, divide the action by p.

    The twist is recorded, not built: a twist by the scalar p^3 keeps the
    action and multiplies the gram by p^3 and the pfaffian by p^6, so its
    step (alpha (p^3, 0), degree deg -> deg * p^12) follows from those
    identities. The kernel (enlargement_kernel) depends on the action
    alone, and the descent of p^3 E to kernel.basis / p^2 is
    kernel.basis^T E kernel.basis / p, which change_basis computes with
    the action in one pass; the action is divided by p before the one
    canonicalize_orientation. Preserves the degree exactly; t, recorded
    on the quotient step, is the rank of the action mod p, read off the
    kernel's Hermite form (its unit diagonal entries), so each move row-
    reduces mod p once; any value other than 2 is an invariant breach,
    never something to continue past.
    """
    require_odd_prime(p)
    order = surface.order
    f = order.conductor
    if f % p != 0:
        raise PreconditionError(
            f"{int_text(p)} does not divide the conductor {int_text(f)}"
        )
    if stabilizer_order(surface).conductor % p != 0:
        raise PreconditionError(
            f"an order of conductor prime to {int_text(p)} already acts on the "
            "lattice"
        )
    deg = degree(surface)
    if deg % p == 0:
        raise PreconditionError(f"{int_text(p)} divides the degree {int_text(deg)}")
    if surface.pf < 0:  # the twisted surface is canonically oriented
        surface = canonicalize_orientation(order, surface.action, surface.gram, surface.pf)
    # t, the action's rank mod p (which the reorientation keeps), is the
    # number of unit diagonal entries of the kernel's Hermite form
    kernel = enlargement_kernel(surface, p)
    basis = kernel.basis
    t = (basis[0][0], basis[1][1], basis[2][2], basis[3][3]).count(1)
    if t != 2:
        raise InvariantBreach(f"enlargement rank invariant is {int_text(t)}, expected 2")
    p3 = p**3
    twisted_deg = deg * p3**4
    twist_step = IsogenyStep(
        kind=TWIST, prime=p, alpha=(p3, 0), degree_before=deg, degree_after=twisted_deg
    )
    try:
        action, gram, d = change_basis(surface, basis, p)
    except (DescentError, PreconditionError) as exc:
        raise InvariantBreach(f"guaranteed enlargement descent failed: {exc}") from exc
    pf = d * surface.pf // (p * p)  # det(basis) * p^6 pf / p^8
    quotient_step = IsogenyStep(
        kind=QUOTIENT,
        prime=p,
        kernel_overlattice=kernel,
        degree_before=twisted_deg,
        degree_after=pf * pf,
        t=t,
    )
    action = intmat.div_exact(action, p)
    if action is None:
        raise InvariantBreach("enlarged generator does not act integrally")
    out = canonicalize_orientation(make_order(order.D, f // p), action, gram, pf)
    return out, (twist_step, quotient_step)


# ---------------------------------------------------------------------------
# removing one reducible prime from the degree
# ---------------------------------------------------------------------------


def _branch_decision(surface: PolarizedRMSurface, p: int, factors):
    """Decide the degree-reduction move on a squarefree-stable surface.

    factors is the factor_prime pair of p in the surface's order. Returns
    (branch, element): element is the first factor, a1 tried first, whose
    action kills every vector of the kernel p-torsion K, and the branch is
    associate exactly when p divides the discriminant. That is the factor
    whose mod-p kernel is K: with p prime to the conductor the lattice is
    locally free of rank 2 at p, and an element of norm +-p has a kernel of
    dimension 1 on O/p, so its mod-p kernel on L/pL always has dimension 2;
    K of dimension 2 inside it is all of it. Such a factor always exists;
    its absence, or a K of another dimension, is an invariant breach.
    """
    kernel_p = polarization_kernel_mod_p(surface, p)
    if len(kernel_p) == 2:
        for el in factors:
            action = element_action(surface, el)
            if all(x % p == 0 for v in kernel_p for x in intmat.mat_vec(action, v)):
                if surface.order.discriminant % p == 0:
                    return ASSOCIATE_DIVIDE, el
                return SPLIT_DIVIDE, el
    raise InvariantBreach(
        f"kernel p-torsion at {int_text(p)} is not the mod-p kernel of a "
        f"factor of {int_text(p)}"
    )


def reduce_degree_step(
    surface: PolarizedRMSurface, p: int
) -> tuple[PolarizedRMSurface, tuple[IsogenyStep, ...]]:
    """Remove the prime p from the degree at a prime not dividing the conductor.

    Runs squarefree reduction at p first; if p still divides the degree,
    divides by the norm +-p factor that _branch_decision picks. The last
    step carries the branch label, unless squarefree reduction alone
    cleared p.
    """
    require_odd_prime(p)
    order = surface.order
    if order.conductor % p == 0:
        raise PreconditionError(f"{int_text(p)} divides the conductor")
    if degree(surface) % p != 0:
        raise PreconditionError(f"{int_text(p)} does not divide the degree")
    factors = factor_prime(order, p)
    if factors is None:
        raise PreconditionError(f"{int_text(p)} is not reducible in the order")
    # squarefree_reduce keeps the order, so the factors stay valid.
    current, steps = squarefree_reduce(surface, p)
    if degree(current) % p != 0:
        return current, steps
    branch, divide_el = _branch_decision(current, p, factors)
    try:
        new_surface = divide_by_symmetric(current, divide_el)
    except DescentError as exc:
        raise InvariantBreach(
            f"guaranteed division failed at {int_text(p)}: {exc}"
        ) from exc
    move = IsogenyStep(
        kind=DIVIDE,
        prime=p,
        alpha=(divide_el.x, divide_el.y),
        degree_before=degree(current),
        degree_after=degree(new_surface),
        branch=branch,
    )
    return new_surface, steps + (move,)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def principal_defect(surface: PolarizedRMSurface) -> str | None:
    """None if valid and principal with a maximal acting order, else what
    is not. A fresh pfaffian of the gram must equal the carried one, so a
    wrong carrying identity fails every run."""
    msg = validate(surface)
    if msg is not None:
        return f"with an invalid surface: {msg}"
    pf = intmat.pfaffian4(surface.gram)
    if pf != surface.pf:
        return f"with pfaffian {int_text(pf)}, not the carried {int_text(surface.pf)}"
    deg = degree(surface)
    if deg != 1:
        return f"at degree {int_text(deg)}"
    # The stabilizer conductor divides the stored one, so 1 here means the
    # maximal order acts.
    if surface.order.conductor != 1:
        return "with a non-maximal acting order"
    return None


def principalize(
    surface: PolarizedRMSurface,
) -> tuple[PolarizedRMSurface, CertificateData]:
    """Produce a principal surface with a maximal acting order, with certificate.

    Hypotheses: odd degree, odd conductor, coprime, and the stored conductor
    equal to the acting (stabilizer) conductor. Conductor primes are
    processed in increasing order with multiplicity, then degree primes in
    increasing order. Failure of reducibility at a degree prime raises
    PreconditionError naming the prime.
    """
    msg = validate(surface)
    if msg is not None:
        raise PreconditionError(f"invalid surface: {msg}")
    deg = degree(surface)
    f = surface.order.conductor
    if deg % 2 == 0:
        raise PreconditionError(f"degree {int_text(deg)} must be odd")
    if f % 2 == 0:
        raise PreconditionError(f"conductor {int_text(f)} must be odd")
    if gcd(deg, f) != 1:
        raise PreconditionError(
            f"degree {int_text(deg)} and conductor {int_text(f)} share a factor"
        )
    stab = stabilizer_order(surface)
    if stab.conductor != f:
        raise PreconditionError(
            f"stored conductor {int_text(f)} is not tight: the order of conductor "
            f"{int_text(stab.conductor)} already acts"
        )
    steps: list[IsogenyStep] = []
    current = surface
    for p, mult in sorted(factorize(f).items()):
        for _ in range(mult):
            current, pair = enlarge_order_step(current, p)
            steps.extend(pair)
    degree_primes = sorted(factorize(abs(surface.pf)))
    for p in degree_primes:
        current, more = reduce_degree_step(current, p)
        steps.extend(more)
    msg = principal_defect(current)
    if msg is not None:
        raise InvariantBreach(f"pipeline ended {msg}")
    return current, CertificateData(steps=tuple(steps), final=current)
