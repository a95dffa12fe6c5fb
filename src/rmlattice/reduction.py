"""The three reduction moves and the principalization pipeline.

Each move takes a surface and a prime and returns (surface, steps).
squarefree_reduce shrinks the p-part of the polarization kernel until its
elementary divisors at p are squarefree; once the gram's content is prime
to p, the carried pfaffian alone says whether a quotient move is left, and
its kernel is the mod-p kernel of the gram, since the kernel's p-part is
then (Z/p^v)^2 with v >= 2, whose p-torsion is p times its p^2-torsion.
enlarge_order_step enlarges the acting order by one conductor prime
without changing the degree, building one surface per move: its twist by
p^3 is recorded from the scalar identities, not built; its kernel's
Hermite form comes from the two reduced echelon rows of the action mod p
(intmat.hnf_mod_p_rank2), as the action has rank t = 2 mod p on valid
input, and the generic elimination runs only to name another t in the
invariant breach; the descent and the division of the action by p are
one change of basis in block form (surface.enlarge_basis), which keeps
the pfaffian.
Degree reduction divides by the norm +-p factor el whose mod-p kernel is
the kernel p-torsion K, recording the branch, and row-reduces nothing mod
p: K is 2-dimensional exactly when p | pf and the gram is not 0 mod p,
and ker(A_el) = im(A_conj(el)) on L/pL, so el kills K exactly when
gram A_conj(el) = x E + y E A is 0 mod p, for conj(el) = x + y w
(_branch_decision). A divide step keeps the lattice and the divisions
commute, so one pass over all the degree primes (_reduce_degree) decides
each factor mod p on the surface built so far, records its step from the
pfaffian ledger, squaring each carried pfaffian once, and makes one
exact division by the product of the factors before each squarefree
reduction and at the end; it asks for p's factors only where squarefree
reduction leaves p in the degree, so a p that scale moves clear needs
none. reduce_degree_step is that pass over one prime.
principalize chains the moves, conductor primes first, and returns the
final surface with its CertificateData; it is the only code that chains
moves, and replay re-runs it. The moves carry the pfaffian by identity and
check no degree identity of their own; principalize's closing check
validates the result, compares its carried pfaffian with a fresh one and
requires it principal with a maximal acting order.
"""

from __future__ import annotations

from math import gcd, prod

from . import intmat
from .arith import factorize, int_text, require_odd_prime
from .errors import DescentError, InvariantBreach, PreconditionError
from .isogeny import (
    ASSOCIATE_DIVIDE,
    DIVIDE,
    QUOTIENT,
    SCALE,
    SPLIT_DIVIDE,
    TWIST,
    CertificateData,
    IsogenyStep,
    descend_polarization,
    divide_by_symmetric,
)
from .quadratic import factor_prime, make_order
from .surface import (
    KernelSubgroup,
    PolarizedRMSurface,
    canonicalize_orientation,
    degree,
    enlarge_basis,
    kernel_from_subspace,
    polarization_kernel_mod_p,
    stabilizer_order,
    validate,
)

# ---------------------------------------------------------------------------
# squarefree reduction of the kernel at one prime
# ---------------------------------------------------------------------------


def squarefree_reduce(
    surface: PolarizedRMSurface, p: int
) -> tuple[PolarizedRMSurface, tuple[IsogenyStep, ...]]:
    """Scale and quotient until the p-part of the kernel divisors is (1, p) or (1, 1).

    Move (a): when the whole gram form vanishes mod p, divide it by p.
    Move (b): otherwise, when p^2 divides the carried pfaffian, quotient by
    the kernel p-torsion, ker(gram mod p); descent always succeeds there.
    The gram's content c is then prime to p, so the divisors (c, c, pf/c,
    pf/c) put (Z/p^v)^2 in the kernel, v >= 2 the p-valuation of pf: its
    p-torsion is p times its p^2-torsion, and ker(gram mod p) is that
    2-dimensional subspace (an alternating form mod p has even rank). By
    the carried identities either move takes the pfaffian to pf/p^2, so
    each strictly lowers the p-valuation of the degree, and the loop stops
    once p^2 no longer divides pf.
    """
    require_odd_prime(p)
    return _squarefree_reduce(surface, p, degree(surface))


def _squarefree_reduce(
    current: PolarizedRMSurface, p: int, deg: int
) -> tuple[PolarizedRMSurface, tuple[IsogenyStep, ...]]:
    """squarefree_reduce on a surface of degree deg, which degree reduction
    passes from its ledger: each carried pfaffian is squared once, so a
    step's degree_after is the next step's degree_before."""
    steps: list[IsogenyStep] = []
    while True:
        kernel = None
        if all(x % p == 0 for row in current.gram for x in row):
            kind, new_surface = SCALE, divide_by_symmetric(current, current.order.element(p, 0))
        elif current.pf % (p * p) == 0:
            kind, kernel = QUOTIENT, kernel_from_subspace(polarization_kernel_mod_p(current, p), p)
            try:
                new_surface = descend_polarization(current, kernel)
            except (DescentError, PreconditionError) as exc:
                raise InvariantBreach(
                    f"guaranteed squarefree descent failed at {int_text(p)}: {exc}"
                ) from exc
        else:
            return current, tuple(steps)
        deg_after = degree(new_surface)
        steps.append(
            IsogenyStep(
                kind=kind,
                prime=p,
                kernel_overlattice=kernel,
                degree_before=deg,
                degree_after=deg_after,
            )
        )
        current, deg = new_surface, deg_after


# ---------------------------------------------------------------------------
# enlarging the acting order at one conductor prime
# ---------------------------------------------------------------------------


def enlargement_kernel(surface: PolarizedRMSurface, p: int) -> KernelSubgroup:
    """The canonical kernel (1/p)L + (1/p^2)(action)L of the enlargement move:
    (pL + (action)L) / p^2, whose Hermite form is built from the two
    reduced echelon rows of the action's columns mod p (intmat.hnf_mod_p_rank2),
    read as zip(*action) gives them. The action has rank t = 2 mod p on
    valid input; any other t is an invariant breach, which the generic
    elimination (intmat.hnf_mod_p) names by its unit diagonal entries."""
    basis = intmat.hnf_mod_p_rank2(zip(*surface.action), p)
    if basis is None:
        h = intmat.hnf_mod_p(zip(*surface.action), p)
        t = (h[0][0], h[1][1], h[2][2], h[3][3]).count(1)
        raise InvariantBreach(f"enlargement rank invariant is {int_text(t)}, expected 2")
    return KernelSubgroup(basis, p * p)


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
    kernel.basis^T E kernel.basis / p, which surface.enlarge_basis computes
    in block form with the action divided by p, before the one
    canonicalize_orientation. Preserves the degree exactly: det(basis) =
    p^2, so the pfaffian det(basis) p^6 pf / p^8 is pf. t, recorded on the
    quotient step, is the rank of the action mod p, which the kernel
    checks is 2; any other value is an invariant breach, never something
    to continue past.
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
    kernel = enlargement_kernel(surface, p)
    p3 = p**3
    twisted_deg = deg * p3**4
    twist_step = IsogenyStep(
        kind=TWIST, prime=p, alpha=(p3, 0), degree_before=deg, degree_after=twisted_deg
    )
    try:
        action, gram = enlarge_basis(surface, kernel.basis, p)
    except (DescentError, PreconditionError) as exc:
        raise InvariantBreach(f"guaranteed enlargement descent failed: {exc}") from exc
    quotient_step = IsogenyStep(
        kind=QUOTIENT,
        prime=p,
        kernel_overlattice=kernel,
        degree_before=twisted_deg,
        degree_after=deg,
        t=2,
    )
    out = canonicalize_orientation(make_order(order.D, f // p), action, gram, surface.pf)
    return out, (twist_step, quotient_step)


# ---------------------------------------------------------------------------
# removing one reducible prime from the degree
# ---------------------------------------------------------------------------


def _branch_decision(surface: PolarizedRMSurface, p: int, factors):
    """Decide the degree-reduction move at p on a squarefree-stable surface.

    factors is the factor_prime pair of p in the surface's order. Returns
    (branch, el) for the first factor, a1 tried first, by which the
    division is exact; the branch is associate exactly when p divides the
    discriminant. That factor kills the kernel p-torsion K: an alternating
    form mod p has even rank, so K is 2-dimensional exactly when p | pf and
    the gram is not 0 mod p, and with p prime to the conductor ker(A_el) =
    im(A_conj(el)) on L/pL, both 2-dimensional, so A_el kills K exactly
    when gram A_conj(el) = x E + y E A = 0 mod p, for conj(el) = x + y w:
    all 16 entries, read off the gram and its kept product with the action
    (gram_action), and exactly when the division by el is exact. Such a
    factor always exists; its absence, or a K of another dimension, is an
    invariant breach.
    """
    (e00, e01, e02, e03), (e10, e11, e12, e13), (e20, e21, e22, e23), (e30, e31, e32, e33) = (
        surface.gram
    )
    if surface.pf % p == 0 and (
        e00 % p or e01 % p or e02 % p or e03 % p or e10 % p or e11 % p or e12 % p or e13 % p
        or e20 % p or e21 % p or e22 % p or e23 % p or e30 % p or e31 % p or e32 % p or e33 % p
    ):
        (f00, f01, f02, f03), (f10, f11, f12, f13), (f20, f21, f22, f23), (f30, f31, f32, f33) = (
            surface.gram_action
        )
        t = surface.order.trace_omega
        for el in factors:
            # conj(x + y w) = (x + t y) - y w
            x, y = (el.x + t * el.y) % p, -el.y % p
            if not (
                (x * e00 + y * f00) % p or (x * e01 + y * f01) % p
                or (x * e02 + y * f02) % p or (x * e03 + y * f03) % p
                or (x * e10 + y * f10) % p or (x * e11 + y * f11) % p
                or (x * e12 + y * f12) % p or (x * e13 + y * f13) % p
                or (x * e20 + y * f20) % p or (x * e21 + y * f21) % p
                or (x * e22 + y * f22) % p or (x * e23 + y * f23) % p
                or (x * e30 + y * f30) % p or (x * e31 + y * f31) % p
                or (x * e32 + y * f32) % p or (x * e33 + y * f33) % p
            ):
                branch = ASSOCIATE_DIVIDE if surface.order.discriminant % p == 0 else SPLIT_DIVIDE
                return branch, el
    raise InvariantBreach(
        f"kernel p-torsion at {int_text(p)} is not the mod-p kernel of a "
        f"factor of {int_text(p)}"
    )


def _divide(surface: PolarizedRMSurface, chosen: list) -> PolarizedRMSurface:
    """The one division of the surface by the product of the chosen
    factors; an inexact one means a wrong decision, an invariant breach."""
    if not chosen:
        return surface
    try:
        return divide_by_symmetric(surface, prod(chosen[1:], start=chosen[0]))
    except DescentError as exc:
        raise InvariantBreach(f"division by the chosen degree factors is not exact: {exc}") from exc


def _reduce_degree(
    surface: PolarizedRMSurface, primes
) -> tuple[PolarizedRMSurface, tuple[IsogenyStep, ...]]:
    """Remove each of primes, in increasing order, from the degree: the one
    definition of degree reduction, which principalize makes over all its
    degree primes and reduce_degree_step over one.

    Each prime is checked as it comes (odd prime, prime to the conductor,
    dividing the degree). Where p^2 divides the carried pfaffian (as it
    does when the gram is 0 mod p) squarefree reduction runs on the surface
    built so far. Only a p left in the degree then needs a factor of norm
    +-p, so an inert p that scale moves clear is no refusal: the factor el
    of p is decided mod p on that surface (_branch_decision) and kept, and
    its divide step is recorded from the pfaffian ledger, pf -> pf / p.
    The ledger squares each carried pfaffian once, so each step's
    degree_after is the next step's degree_before. The kept factors are
    divided out in one exact division by their product, before the next
    squarefree reduction and at the end. This
    gives the same surface as dividing by each in turn: a divide step
    never changes the lattice, A_x A_y = A_xy, for q != p the action of a
    factor of q and its norm are invertible mod p, so the decisions and
    the squarefree tests read the same off the undivided surface, and the
    orientation swap commutes with every twist, its parity the sign of the
    product of the norms.
    """
    steps: list[IsogenyStep] = []
    current = surface
    pf = surface.pf
    deg = pf * pf
    chosen: list = []
    for p in primes:
        require_odd_prime(p)
        order = current.order
        if order.conductor % p == 0:
            raise PreconditionError(f"{int_text(p)} divides the conductor")
        if pf % p != 0:
            raise PreconditionError(f"{int_text(p)} does not divide the degree")
        if pf % (p * p) == 0:
            # p^2 | pf, so this makes at least one move; it keeps the order
            current, more = _squarefree_reduce(_divide(current, chosen), p, deg)
            chosen = []
            steps.extend(more)
            pf, deg = current.pf, more[-1].degree_after
            if pf % p != 0:
                continue
        factors = factor_prime(order, p)
        if factors is None:
            raise PreconditionError(f"{int_text(p)} is not reducible in the order")
        branch, el = _branch_decision(current, p, factors)
        chosen.append(el)
        pf //= p
        deg_after = pf * pf
        steps.append(
            IsogenyStep(
                kind=DIVIDE,
                prime=p,
                alpha=(el.x, el.y),
                degree_before=deg,
                degree_after=deg_after,
                branch=branch,
            )
        )
        deg = deg_after
    return _divide(current, chosen), tuple(steps)


def reduce_degree_step(
    surface: PolarizedRMSurface, p: int
) -> tuple[PolarizedRMSurface, tuple[IsogenyStep, ...]]:
    """Remove the prime p from the degree at a prime not dividing the
    conductor: degree reduction (_reduce_degree) over the one prime.

    Runs squarefree reduction at p first when p^2 divides the degree's
    pfaffian; if p still divides it, divides by the factor of p that kills
    the 2-dimensional kernel p-torsion, decided mod p, and refuses a p with
    no such factor. The divide step, if taken, is last and carries the
    branch.
    """
    return _reduce_degree(surface, (p,))


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
    increasing order. A degree prime that squarefree reduction leaves in
    the degree and that has no element of norm +-p in the order raises
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
    current, more = _reduce_degree(current, sorted(factorize(abs(surface.pf))))
    steps.extend(more)
    msg = principal_defect(current)
    if msg is not None:
        raise InvariantBreach(f"pipeline ended {msg}")
    return current, CertificateData(steps=tuple(steps), final=current)
