"""generate_instance against the generator it replaced, byte for byte.

The reference below is the generator as it was written before its fast
paths: shears drawn with rng.sample and rng.choice, the pull-back's
hyperplane basis from two eliminations mod p (kernel_mod_p, then
hnf_mod_p), a standard instance built and validated afresh on every call,
and every requested prime tested with the uncached is_prime. The fast
generator must give the same instance text, the same refusal message and
the same generator state on every input.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import intmat
from rmlattice.arith import int_text, is_prime, require_odd_prime
from rmlattice.errors import InvariantBreach, PreconditionError
from rmlattice.formats import serialize_instance
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.quadratic import (
    SPLIT,
    _roots_mod_p,
    factor_prime,
    humbert_holds,
    make_order,
    prime_norm,
    splitting_type,
)
from rmlattice.surface import (
    _hyperplane_basis,
    _scalar_plus,
    apply_unimodular,
    degree,
    rebase,
    stabilizer_order,
    standard_instance,
    twist_by_element,
    validate,
)

# ---------------------------------------------------------------------------
# the reference generator
# ---------------------------------------------------------------------------


def reference_random_unimodular(rng: random.Random) -> intmat.IntMat:
    """A 4x4 determinant-one integer matrix built from eight random shears."""
    u = [list(r) for r in intmat.identity()]
    for _ in range(8):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-2, -1, 1, 2))
        for r in range(4):
            u[r][i] += c * u[r][j]
    return intmat.freeze(u)


def reference_eigen_sublattice_pullback(surface, p: int, eigenvalue_index: int):
    """eigen_sublattice_pullback with its hyperplane basis from two
    eliminations mod p and its roots computed afresh."""
    order = surface.order
    if eigenvalue_index not in (0, 1):
        raise PreconditionError("eigenvalue_index must be 0 or 1")
    if splitting_type(order, p) != SPLIT:
        raise PreconditionError(f"{int_text(p)} is not split in the field")
    if degree(surface) % p == 0:
        raise PreconditionError(f"{int_text(p)} already divides the degree")
    r = sorted(_roots_mod_p.__wrapped__(order, p))[eigenvalue_index]
    at_shift = _scalar_plus(-r, 1, intmat.transpose(surface.action))
    eigvecs = intmat.kernel_mod_p(at_shift, p)
    if not eigvecs:
        raise InvariantBreach("transposed action has an empty eigenspace")
    v = eigvecs[0]
    hyperplane = intmat.kernel_mod_p([v], p)
    return rebase(surface, intmat.hnf_mod_p(hyperplane, p))


def _reference_raise_degree(surface, p: int, rng: random.Random):
    options = []
    factors = factor_prime(surface.order, p)
    if factors is not None:
        norm = prime_norm(factors[0], p)
        options += [partial(twist_by_element, surface, el, norm=norm) for el in factors]
    if splitting_type(surface.order, p) == SPLIT and degree(surface) % p != 0:
        options += [
            partial(reference_eigen_sublattice_pullback, surface, p, i) for i in (0, 1)
        ]
    if not options:
        raise PreconditionError(
            f"cannot realize degree prime {int_text(p)} at conductor "
            f"{int_text(surface.order.conductor)}: no norm ±{int_text(p)} element "
            "in the order and no split eigen-sublattice available"
        )
    return rng.choice(options)()


def reference_generate_instance(D: int, conductor: int, degree_primes, seed: int):
    """generate_instance as written before its fast paths."""
    order = make_order(D, conductor)
    if conductor % 2 == 0:
        raise PreconditionError("conductor must be odd")
    maximal = make_order(D, 1)
    primes = list(degree_primes)
    for p in primes:
        if p == 2 or not is_prime(p):
            raise PreconditionError(f"degree prime {int_text(p)} must be an odd prime")
        if conductor % p == 0:
            raise PreconditionError(f"degree prime {int_text(p)} divides the conductor")
        if factor_prime(maximal, p) is None:
            raise PreconditionError(
                f"{int_text(p)} is not reducible in the maximal order of Q(sqrt({int_text(D)}))"
            )
    rng = random.Random(seed)
    surface = standard_instance.__wrapped__(order)
    for p in primes:
        surface = _reference_raise_degree(surface, p, rng)
        if not intmat.is_antisymmetric(surface.gram):
            raise InvariantBreach("generated instance invalid: gram form is not antisymmetric")
    surface = apply_unimodular(surface, reference_random_unimodular(rng))
    msg = validate(surface)
    if msg is not None:
        raise InvariantBreach(f"generated instance invalid: {msg}")
    if stabilizer_order(surface).conductor != conductor:
        raise InvariantBreach("generated instance lost its acting order")
    if not humbert_holds(order.discriminant, Counter(primes)):
        raise PreconditionError(
            "requested degree profile fails the Humbert congruence "
            f"(discriminant {int_text(order.discriminant)}, pfaffian {int_text(surface.pf)})"
        )
    return surface


def _outcome(generate, D, f, primes, seed):
    """The instance text, or ("refused", message) for a PreconditionError,
    and the state each random.Random the call made ends in."""
    made = []

    class Recording(random.Random):
        def __init__(self, x):
            super().__init__(x)
            made.append(self)

    with mock.patch.object(random, "Random", Recording):
        try:
            out = serialize_instance(generate(D, f, primes, seed))
        except PreconditionError as exc:
            out = ("refused", str(exc))
    return out, [rng.getstate() for rng in made]


def _assert_same(cases) -> Counter:
    """Both generators agree on every (D, f, primes, seed), in output and in
    their generator's final state; returns how many of the cases each gave
    an instance and a refusal."""
    seen = Counter()
    for D, f, primes, seed in cases:
        want = _outcome(reference_generate_instance, D, f, primes, seed)
        got = _outcome(generate_instance, D, f, primes, seed)
        assert got == want, (D, f, primes, seed)
        seen["refused" if isinstance(want[0], tuple) else "built"] += 1
    return seen


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------

FIELDS = (2, 3, 5, 13, 17, 29, 41, 46)
SEEDS = (1, 7)


def _reducible_primes(D: int, low: int, count: int) -> list[int]:
    """The first count primes >= low that are not inert in Q(sqrt(D))."""
    maximal = make_order(D, 1)
    out = []
    p = sympy.nextprime(max(low, 3) - 1)
    while len(out) < count:
        if splitting_type(maximal, p) != "inert":
            out.append(p)
        p = sympy.nextprime(p)
    return out


def _prime_sets(D: int) -> list[list[int]]:
    small = _reducible_primes(D, 3, 6)
    singles = [[p] for p in small[:3]]
    for low in (1000, 10**4, 10**5, 299_000):
        singles += [_reducible_primes(D, low, 1)]
    pairs = [
        small[3:5],
        [small[4], small[4]],
        _reducible_primes(D, 30, 1) + _reducible_primes(D, 1990, 1),
    ]
    sets = [small[:3], small[1:5], small[:5], [3, 5, 7]]
    return singles + pairs + sets


def test_generator_bytes_over_fields_and_prime_sets():
    cases = [
        (D, f, primes, seed)
        for D in FIELDS
        for f in (1, 3, 9)
        for primes in _prime_sets(D)
        for seed in SEEDS
    ]
    seen = _assert_same(cases)
    assert seen["built"] > 300 and seen["refused"] > 20


def _smooth_conductors(limit: int) -> list[int]:
    out = []
    for a in range(10):
        for b in range(7):
            for c in range(6):
                f = 3**a * 5**b * 7**c
                if f <= limit:
                    out.append(f)
    return sorted(out)


def test_generator_bytes_over_conductors():
    conductors = _smooth_conductors(2 * 10**4)
    assert len(conductors) > 50 and max(conductors) <= 2 * 10**4
    cases = []
    for k, f in enumerate(conductors):
        D = FIELDS[k % len(FIELDS)]
        for primes in ([], _reducible_primes(D, 11, 1), _reducible_primes(D, 13, 2)):
            cases += [(D, f, primes, seed) for seed in SEEDS]
    # prime conductors, where n0 is near f and a twist's unit power is large:
    # the generator decides a twist without building it, and builds it only
    # when it draws one
    for f in (sympy.nextprime(10**5), sympy.nextprime(10**6)):
        cases += [(5, f, [11], seed) for seed in range(4)]
    seen = _assert_same(cases)
    assert seen["built"] > 200 and seen["refused"] > 5


def test_generator_refusals_match():
    # inert 3 in Q(sqrt 5), then 9, 2, and 3 dividing the conductor 9
    cases = [
        (5, 1, [3], 1),
        (5, 1, [9], 1),
        (5, 1, [11, 2], 1),
        (13, 9, [3], 1),
        (5, 4, [11], 1),
    ]
    seen = _assert_same(cases)
    assert seen == Counter(refused=5)


# ---------------------------------------------------------------------------
# the two kernels
# ---------------------------------------------------------------------------


def test_random_unimodular_draws_as_sample_and_choice_did():
    for seed in range(1200):
        fast, slow = random.Random(seed), random.Random(seed)
        assert random_unimodular(fast) == reference_random_unimodular(slow)
        assert fast.getrandbits(64) == slow.getrandbits(64)


_PRIMES = (3, 5, 7, 11, 13, 65537, 2**61 - 1)


@st.composite
def _forms(draw):
    """(v, p) with v nonzero mod p: any vector, one with trailing zeros, or
    one with a single nonzero entry."""
    p = draw(st.sampled_from(_PRIMES))
    entry = st.integers(0, p - 1)
    shape = draw(st.sampled_from(("any", "trailing", "single")))
    if shape == "single":
        v = [0, 0, 0, 0]
        v[draw(st.integers(0, 3))] = draw(st.integers(1, p - 1))
    else:
        v = draw(st.lists(entry, min_size=4, max_size=4))
        if shape == "trailing":
            for j in range(draw(st.integers(1, 3)), 4):
                v[j] = 0
    if not any(v):
        v[0] = 1
    return tuple(v), p


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_forms())
def test_hyperplane_basis_is_the_hermite_form_of_the_kernel(form):
    v, p = form
    assert _hyperplane_basis(v, p) == intmat.hnf_mod_p(intmat.kernel_mod_p([v], p), p)


# ---------------------------------------------------------------------------
# the caches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("D, f", [(5, 1), (13, 9), (46, 3)])
def test_standard_instance_is_kept_and_left_unchanged(D, f):
    order = make_order(D, f)
    s = standard_instance(order)
    assert standard_instance(make_order(D, f)) is s
    fresh = standard_instance.__wrapped__(order)
    generate_instance(D, f, _reducible_primes(D, 7, 2), 3)
    assert standard_instance(order) is s
    assert s.order is order
    assert (s.action, s.gram, s.pf) == (fresh.action, fresh.gram, 1)


REFUSED = [
    ([3], "3 is not reducible in the maximal order of Q(sqrt(5))"),
    ([1], "degree prime 1 must be an odd prime"),
    ([9], "degree prime 9 must be an odd prime"),
    (
        [318665857834031151167461],
        "degree prime 318665857834031151167461 must be an odd prime",
    ),
]


def test_refusals_on_a_cold_and_a_warm_prime_cache():
    require_odd_prime.cache_clear()
    for warmth in ("cold", "warm"):
        for primes, message in REFUSED:
            with pytest.raises(PreconditionError) as caught:
                generate_instance(5, 1, primes, 1)
            assert str(caught.value) == message, warmth
    assert require_odd_prime.cache_info().hits >= 1  # the inert 3, proven once
    want = serialize_instance(reference_generate_instance(5, 1, [11, 19], 1))
    assert serialize_instance(generate_instance(5, 1, [11, 19], 1)) == want
