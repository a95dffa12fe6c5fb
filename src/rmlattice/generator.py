"""Seeded construction of polarized instances with prescribed degree primes.

Starting from the principal standard instance, each requested prime raises
the degree by p^2, either by twisting with a norm +-p element of the order
or by restricting to an eigen-sublattice (split primes only), chosen by the
seeded generator, which draws a move before building it, so a pull-back
builds no unit power. A final seeded unimodular basis change scrambles the
presentation without touching any invariant: eight shears, each drawn as
rng.sample(range(4), 2) and rng.choice((-2, -1, 1, 2)) would draw it, each
_randbelow(n) of theirs written out as getrandbits(n.bit_length()) with the
same rejection loop, so every seed gives the same matrix and leaves the
generator in the same state as those calls. The standard instance comes
from its per-order cache (surface.py), and each requested prime is proven
once per process (arith.require_odd_prime).
"""

from __future__ import annotations

import random
from collections import Counter

from . import intmat
from .arith import int_text, require_odd_prime
from .errors import InvariantBreach, PreconditionError
from .quadratic import (
    SPLIT,
    factor_prime,
    humbert_holds,
    make_order,
    norm_solvable,
    prime_norm,
    splitting_type,
)
from .surface import (
    PolarizedRMSurface,
    apply_unimodular,
    degree,
    eigen_sublattice_pullback,
    stabilizer_order,
    standard_instance,
    twist_by_element,
    validate,
)


def random_unimodular(rng: random.Random) -> intmat.IntMat:
    """A 4x4 determinant-one integer matrix built from eight random shears."""
    u = [list(r) for r in intmat.identity()]
    # the draws rng.sample(range(4), 2) and rng.choice((-2, -1, 1, 2)) make,
    # without sample's type checks, list copies and _randbelow calls: the
    # same values and the same generator state afterwards
    bits = rng.getrandbits
    for _ in range(8):
        i = j = k = 4
        while i >= 4:
            i = bits(3)
        while j >= 3:
            j = bits(2)
        if j == i:  # sample's pool moved its last entry into i's place
            j = 3
        while k >= 4:
            k = bits(3)
        c = (-2, -1, 1, 2)[k]
        for r in range(4):
            u[r][i] += c * u[r][j]
    return intmat.freeze(u)


def generate_instance(
    D: int, conductor: int, degree_primes, seed: int
) -> PolarizedRMSurface:
    """Build a valid instance of degree prod(p^2) over the requested primes.

    Requires an odd conductor, odd primes coprime to it, and each prime
    reducible in the maximal order; raises PreconditionError otherwise
    (for example for an inert prime, which no valid instance can carry in
    its degree).
    """
    order = make_order(D, conductor)  # refuses a conductor below 1 first
    if conductor % 2 == 0:
        raise PreconditionError("conductor must be odd")
    maximal = make_order(D, 1)
    primes = list(degree_primes)
    for p in primes:
        try:
            require_odd_prime(p)  # proven once per process, as splitting_type asks again
        except PreconditionError:
            raise PreconditionError(f"degree prime {int_text(p)} must be an odd prime") from None
        if conductor % p == 0:
            raise PreconditionError(f"degree prime {int_text(p)} divides the conductor")
        if factor_prime(maximal, p) is None:
            raise PreconditionError(
                f"{int_text(p)} is not reducible in the maximal order of Q(sqrt({int_text(D)}))"
            )
    rng = random.Random(seed)
    surface = standard_instance(order)
    for p in primes:
        surface = _raise_degree(surface, p, rng)
        # a pull-back in the next move (surface.change_basis) computes only
        # the alternating half of its gram, so it would hide a twist that
        # broke alternation from the validate below
        if not intmat.is_antisymmetric(surface.gram):
            raise InvariantBreach("generated instance invalid: gram form is not antisymmetric")
    surface = apply_unimodular(surface, random_unimodular(rng))
    msg = validate(surface)
    if msg is not None:
        raise InvariantBreach(f"generated instance invalid: {msg}")
    if stabilizer_order(surface).conductor != conductor:
        raise InvariantBreach("generated instance lost its acting order")
    # Each move multiplies |pf| by its prime and the scramble only flips its
    # sign, so the requested primes are the factorization of |pf|. The test
    # fails for a repeated ramified prime, whose two twists compose to a
    # scalar: no surface of that polarization type exists, so it is refused.
    if not humbert_holds(order.discriminant, Counter(primes)):
        raise PreconditionError(
            "requested degree profile fails the Humbert congruence "
            f"(discriminant {int_text(order.discriminant)}, pfaffian {int_text(surface.pf)})"
        )
    return surface


def _raise_degree(
    surface: PolarizedRMSurface, p: int, rng: random.Random
) -> PolarizedRMSurface:
    """Raise the degree by p^2 by one move, drawn as rng.choice draws from a
    list before it is built: two twists if the order has a norm +-p element,
    then two pull-backs if p splits and does not divide the degree."""
    order = surface.order
    twists = 2 if norm_solvable(order, p) else 0
    n = twists + (2 if splitting_type(order, p) == SPLIT and degree(surface) % p else 0)
    if not n:
        raise PreconditionError(
            f"cannot realize degree prime {int_text(p)} at conductor "
            f"{int_text(order.conductor)}: no norm ±{int_text(p)} element "
            "in the order and no split eigen-sublattice available"
        )
    i = rng.choice(range(n))
    if i >= twists:
        return eigen_sublattice_pullback(surface, p, i - twists)
    # both factors have the norm of the first: a2 = +-conj(a1)
    factors = factor_prime(order, p)
    return twist_by_element(surface, factors[i], norm=prime_norm(factors[0], p))
