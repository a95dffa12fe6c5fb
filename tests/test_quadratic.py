"""Quadratic order arithmetic against independent brute-force oracles."""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from rmlattice import (
    PreconditionError,
    are_associates_in_maximal,
    bezout_conductor,
    enlarge_order_step,
    factor_prime,
    fundamental_unit,
    humbert_holds,
    make_order,
    principalize,
    reduce_degree_step,
    solve_norm,
    splitting_type,
    standard_instance,
    twist_by_element,
)
from rmlattice import arith, quadratic
from rmlattice.arith import factorize, int_text
from rmlattice.generator import generate_instance
from rmlattice.oracle import check_symmetric_rank_even, verify_certificate
from rmlattice.quadratic import OrderElement
from test_numtheory_oracles import embeds_above_one


def box_norm_targets(order, targets, bound=200):
    """Independent exhaustive oracle: which values of `targets` arise as |norm|
    over the box |x|, |y| <= bound."""
    t, n = order.trace_omega, order.norm_omega
    wanted = set(targets)
    seen = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            v = abs(x * x + t * x * y + n * y * y)
            if v in wanted:
                seen.add(v)
    return seen


# ---------------------------------------------------------------------------
# orders and elements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "D,f,disc,t,n",
    [
        (5, 1, 5, 1, -1),
        (5, 3, 45, 3, -9),
        (2, 1, 8, 0, -2),
        (13, 9, 13 * 81, 9, -3 * 81),
        (17, 7, 17 * 49, 7, -4 * 49),
    ],
)
def test_make_order_values(D, f, disc, t, n):
    o = make_order(D, f)
    assert o.discriminant == disc
    assert (o.trace_omega, o.norm_omega) == (t, n)
    assert o.trace_omega**2 - 4 * o.norm_omega == o.discriminant
    assert o.discriminant == f * f * o.fundamental_discriminant


@pytest.mark.parametrize("D,f", [(12, 1), (1, 1), (0, 2), (5, 0), (18, 3)])
def test_make_order_rejects(D, f):
    with pytest.raises(PreconditionError):
        make_order(D, f)


@pytest.mark.parametrize("D,f", [(5.0, 1), (5, 1.0), (5, True), (5.0, True), (13, 3.0)])
def test_make_order_refuses_arguments_that_are_not_ints(D, f):
    # before and after make_order(5, 1) is kept, so the refusal does not
    # depend on which call came first
    make_order.cache_clear()
    with pytest.raises(PreconditionError, match="must be integers"):
        make_order(D, f)
    make_order(5, 1)
    make_order(13, 3)
    with pytest.raises(PreconditionError, match="must be integers"):
        make_order(D, f)


def test_element_arithmetic_properties():
    rng = random.Random(11)
    for D, f in [(5, 1), (5, 3), (2, 1), (13, 9), (3, 7)]:
        o = make_order(D, f)
        for _ in range(50):
            a = o.element(rng.randint(-20, 20), rng.randint(-20, 20))
            b = o.element(rng.randint(-20, 20), rng.randint(-20, 20))
            assert (a * b).norm() == a.norm() * b.norm()
            # a plus its conjugate is its trace, 2x + ty
            assert a + a.conjugate() == o.element(2 * a.x + o.trace_omega * a.y, 0)
            assert a * a.conjugate() == o.element(a.norm(), 0)
            assert a.conjugate().conjugate() == a


def test_a_negative_power_is_refused_at_once():
    # k >>= 1 never reaches 0 from a negative k, so the powering loop ran
    # until it was killed; only k >= 0 is a power in the order
    u = make_order(5, 1).element(1, 1)
    for k in (-1, -2, -(2**70)):
        start = time.perf_counter()
        with pytest.raises(PreconditionError) as info:
            u**k
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"exponent k = {int_text(k)} must be >= 0"
    assert u**0 == u.order.one() and u**3 == u * u * u


def test_elements_of_different_orders_do_not_mix():
    a = make_order(5, 1).element(1, 1)
    b = make_order(5, 3).element(1, 1)
    with pytest.raises(PreconditionError):
        _ = a + b


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def split_oracle(d_f: int, p: int) -> str:
    if d_f % p == 0:
        return "ramified"
    squares = {x * x % p for x in range(1, p)}
    return "split" if d_f % p in squares else "inert"


@pytest.mark.parametrize(
    "D,f,p,expected",
    [(5, 1, 11, "split"), (5, 1, 3, "inert"), (5, 3, 3, "divides_conductor")],
)
def test_splitting_examples(D, f, p, expected):
    assert splitting_type(make_order(D, f), p) == expected


def test_splitting_matches_residue_scan():
    for D in (2, 3, 5, 13, 17):
        o = make_order(D, 1)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            assert splitting_type(o, p) == split_oracle(o.fundamental_discriminant, p)


def test_splitting_rejects_two_and_composites():
    o = make_order(5, 1)
    for p in (2, 9, 15):
        with pytest.raises(PreconditionError):
            splitting_type(o, p)


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "D,x,y,nm", [(5, 0, 1, -1), (2, 1, 1, -1), (3, 2, 1, 1)]
)
def test_fundamental_unit_values(D, x, y, nm):
    u = fundamental_unit(make_order(D, 1))
    assert (u.x, u.y) == (x, y)
    assert u.norm() == nm


def test_fundamental_unit_minimality_certificate():
    # No unit above 1 exists with a smaller y coordinate (unit y coordinates
    # are minimized by the fundamental unit), and none at the same y is
    # smaller in the real embedding. Only feasible for small units.
    for D, f in [(5, 1), (2, 1), (3, 1), (13, 1), (3, 7), (5, 3)]:
        o = make_order(D, f)
        u = fundamental_unit(o)
        assert abs(u.norm()) == 1 and embeds_above_one(u)
        assert u.y <= 200, "test assumes a small fundamental unit"
        for y in range(1, u.y):
            for x in range(-10 * (abs(u.x) + 1), 10 * (abs(u.x) + 1)):
                el = o.element(x, y)
                if abs(el.norm()) == 1:
                    assert not embeds_above_one(el), (D, f, x, y)


def test_the_unit_walk_is_charged_one_step_per_rho_step(monkeypatch):
    # Q(sqrt 94) reaches its unit in 16 rho steps: a budget of 16 walks
    # there, one of 15 stops with the limit named. The kept unit is
    # bypassed, so the walk runs each time.
    order = make_order(94, 1)
    unit = fundamental_unit(order)
    monkeypatch.setattr(quadratic, "_WALK_BUDGET", 16)
    assert fundamental_unit.__wrapped__(order) == unit
    monkeypatch.setattr(quadratic, "_WALK_BUDGET", 15)
    with pytest.raises(PreconditionError) as info:
        fundamental_unit.__wrapped__(order)
    assert str(info.value) == (
        "the walk along reduced forms of Q(sqrt(94)) passed its budget of 15 rho steps"
    )


def test_fundamental_unit_of_suborder_is_a_power():
    o = make_order(17, 9)
    u = fundamental_unit(o)
    assert abs(u.norm()) == 1
    base = fundamental_unit(make_order(17, 1))
    # express u in maximal coordinates and divide out powers of the base
    ux, uy = u.maximal_coords()
    maximal = make_order(17, 1)
    cur = maximal.element(1, 0)
    target = maximal.element(ux, uy)
    for _ in range(200):
        cur = cur * base
        if cur == target:
            return
    raise AssertionError("suborder unit is not a power of the field unit")


def test_a_suborder_unit_past_the_bit_budget_is_refused_unbuilt():
    # u**n0 with n0 = 100000008 would have about 6.9*10^7 bits and took
    # past 30 s to build; its size is read from the embeddings instead.
    # Neither refusal is kept, so the second call is refused again.
    order = make_order(5, 100000007)
    for _ in range(2):
        start = time.perf_counter()
        with pytest.raises(PreconditionError) as info:
            fundamental_unit(order)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "the fundamental unit of the conductor 100000007 order of Q(sqrt(5)) is the "
            "maximal order's unit to the power 100000008, past the budget of 8388608 bits"
        )


def test_the_suborder_unit_budget_is_charged_its_bit_size(monkeypatch):
    # Q(sqrt 94)'s unit has about 22.03 bits and n0 = 10 at conductor 25, so
    # the power has about 220.3 bits (its x has 220): a budget of 221 builds
    # it, one of 220 refuses it. The kept unit is bypassed, so the check runs
    # each time.
    order = make_order(94, 25)
    unit = fundamental_unit(order)
    assert unit.x.bit_length() == 220
    monkeypatch.setattr(quadratic, "_POWER_BITS", 221)
    assert fundamental_unit.__wrapped__(order) == unit
    monkeypatch.setattr(quadratic, "_POWER_BITS", 220)
    with pytest.raises(PreconditionError) as info:
        fundamental_unit.__wrapped__(order)
    assert str(info.value) == (
        "the fundamental unit of the conductor 25 order of Q(sqrt(94)) is the "
        "maximal order's unit to the power 10, past the budget of 220 bits"
    )


# ---------------------------------------------------------------------------
# norm equations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,expected", [(11, (3, 1)), (5, (2, 1)), (3, None)]
)
def test_solve_norm_examples(p, expected):
    o = make_order(5, 1)
    sol = solve_norm(o, p)
    if expected is None:
        assert sol is None
    else:
        assert (sol.x, sol.y) == expected
        assert abs(sol.norm()) == p


def test_solve_norm_canonical_is_associate_of_any_solution():
    o = make_order(5, 1)
    sol = solve_norm(o, 5)
    assert are_associates_in_maximal(sol, o.element(-1, 2))  # -1 + 2w = sqrt(5)


def test_solve_norm_completeness_against_box():
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for D in (2, 3, 5):
        o = make_order(D, 1)
        reachable = box_norm_targets(o, primes)
        for p in primes:
            sol = solve_norm(o, p)
            assert (sol is not None) == (p in reachable), (D, p)
            if sol is not None:
                assert abs(sol.norm()) == p


def test_solve_norm_rejects_conductor_divisors():
    with pytest.raises(PreconditionError):
        solve_norm(make_order(5, 3), 3)


def test_solve_norm_suborders_agree_with_direct_box():
    # the unit-orbit search through the maximal order must agree with a
    # direct exhaustive box over suborder coordinates
    for D, f in [(5, 3), (13, 9), (3, 7), (17, 7), (2, 9), (33, 5)]:
        o = make_order(D, f)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if f % p == 0:
                continue
            sol = solve_norm(o, p)
            brute = box_norm_targets(o, (p,), bound=60)
            if p in brute:
                assert sol is not None, (D, f, p)
            if sol is not None:
                assert abs(sol.norm()) == p


def test_solve_norm_handles_large_suborder_units():
    # suborders whose unit is a high power of the field unit must not blow
    # up the search (previously pathological)
    sol = solve_norm(make_order(33, 15), 29)
    assert sol is not None and abs(sol.norm()) == 29
    assert solve_norm(make_order(33, 9), 17) is None


def test_suborder_search_at_a_ten_million_conductor():
    # n0 = 2500030 here: a walk of n0 steps per box seed took about 15 s
    # in generate; the discrete log takes O(sqrt(n0)) steps per seed
    start = time.perf_counter()
    assert solve_norm(make_order(5, 10000121), 11) is None
    s = generate_instance(5, 10000121, [11], 1)
    result, certificate = principalize(s)
    assert verify_certificate(s, certificate) == (
        True, "certificate replays to an identical surface"
    )
    assert time.perf_counter() - start < 5.0


def test_generate_solves_each_degree_prime_once():
    # Over conductor 1 the precondition check and the degree raise ask for
    # the same solve, and a repeated prime asks again; solve_norm's memo
    # answers every repeat, so each distinct (order, p) is one cache miss.
    for f, primes, solved in (
        (1, [11, 19, 11], [(1, 11), (1, 19)]),
        (3, [11, 11], [(1, 11), (3, 11)]),
    ):
        solve_norm.cache_clear()
        generate_instance(5, f, primes, 3)
        assert solve_norm.cache_info().misses == len(solved)
        # and the misses were these pairs: each is kept now
        for conductor, p in solved:
            solve_norm(make_order(5, conductor), p)
        assert solve_norm.cache_info().misses == len(solved)


SQUAREFREE_D = [D for D in range(2, 200) if all(D % (q * q) for q in range(2, 15))]
ODD_PRIMES = [p for p in range(3, 200) if all(p % q for q in range(2, p))]


def test_kept_solve_norm_and_make_order_equal_the_functions_they_wrap():
    for D in SQUAREFREE_D:
        for f in (1, 3, 9, 25):
            order = make_order(D, f)
            assert order == make_order.__wrapped__(D, f)
            assert make_order(D, f) is order
            for p in ODD_PRIMES:
                if f % p:
                    el = solve_norm(order, p)
                    assert el == solve_norm.__wrapped__(order, p), (D, f, p)
                    assert solve_norm(order, p) is el


def test_a_refusal_is_not_kept():
    order = make_order(5, 3)
    solves, orders = solve_norm.cache_info().currsize, make_order.cache_info().currsize
    for _ in range(2):
        with pytest.raises(PreconditionError, match="divides the conductor"):
            solve_norm(order, 3)
        with pytest.raises(PreconditionError, match="is not an odd prime"):
            solve_norm(order, 9)
        with pytest.raises(PreconditionError, match="squarefree"):
            make_order(12, 1)
    assert solve_norm.cache_info().currsize == solves
    assert make_order.cache_info().currsize == orders


def test_principalize_and_verify_after_generate_solve_no_norm_equation():
    s = generate_instance(13, 1, [3, 17], 10)
    misses = solve_norm.cache_info().misses
    _, cert = principalize(s)
    assert verify_certificate(s, cert)[0]
    assert solve_norm.cache_info().misses == misses


# ---------------------------------------------------------------------------
# factorization of primes
# ---------------------------------------------------------------------------


def test_factor_prime_examples():
    o = make_order(5, 1)
    a1, a2 = factor_prime(o, 11)
    assert ((a1.x, a1.y), (a2.x, a2.y)) == ((3, 1), (4, -1))
    assert a1 * a2 == o.element(11, 0)
    b1, b2 = factor_prime(o, 5)
    assert b1 * b2 == o.element(5, 0)
    assert are_associates_in_maximal(b1, b2)
    assert factor_prime(o, 3) is None


def test_factor_prime_norms():
    for D in (2, 3, 5, 13, 17):
        o = make_order(D, 1)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            out = factor_prime(o, p)
            if out is None:
                continue
            a1, a2 = out
            assert abs(a1.norm()) == p and abs(a2.norm()) == p
            assert a1 * a2 == o.element(p, 0)
            assert splitting_type(o, p) in ("split", "ramified")


@pytest.mark.parametrize("D,el,p", [(5, (3, 1), 11), (2, (1, 2), 7)])
def test_factor_prime_takes_no_norm_and_no_product(monkeypatch, D, el, p):
    # norm +11 and norm -7: the cofactor is conj(a1), or its negative, by a
    # sign read mod 4
    order = make_order(D, 1)
    a1 = order.element(*el)
    monkeypatch.setattr(quadratic, "solve_norm", lambda order, p: a1)
    calls = []
    real_norm, real_mul = OrderElement.norm, OrderElement.__mul__

    def norm(self):
        calls.append("norm")
        return real_norm(self)

    def mul(self, other):
        calls.append("mul")
        return real_mul(self, other)

    monkeypatch.setattr(OrderElement, "norm", norm)
    monkeypatch.setattr(OrderElement, "__mul__", mul)
    out = factor_prime(order, p)
    assert calls == []
    monkeypatch.undo()
    assert out[0] == a1 and out[0] * out[1] == order.element(p, 0)


def test_factor_prime_reads_the_sign_of_the_norm_mod_4():
    signs = set()
    for D in SQUAREFREE_D:
        for f in (1, 3, 9, 25):
            order = make_order(D, f)
            for p in ODD_PRIMES:
                if f % p == 0:
                    continue
                out = factor_prime(order, p)
                if out is None:
                    continue
                a1, a2 = out
                n = a1.norm()
                assert abs(n) == p, (D, f, p)
                assert a2 == (a1.conjugate() if n > 0 else -a1.conjugate()), (D, f, p)
                signs.add(n > 0)
    assert signs == {True, False}


def test_odd_prime_checks_share_one_message():
    order = make_order(5, 1)
    checks = (
        lambda p: splitting_type(order, p),
        lambda p: solve_norm(order, p),
        lambda p: check_symmetric_rank_even(p, 1),
        lambda p: enlarge_order_step(standard_instance(make_order(5, 3)), p),
    )
    kept = arith.require_odd_prime.cache_info().currsize
    for p in (2, 9, 10**5000):
        for check in checks:
            for _ in range(2):  # a refusal is not kept, so it repeats
                with pytest.raises(PreconditionError) as info:
                    check(p)
                assert str(info.value) == f"{int_text(p)} is not an odd prime"
    assert arith.require_odd_prime.cache_info().currsize == kept


def test_each_prime_is_proven_once(monkeypatch):
    tested = Counter()
    real = arith.is_prime

    def counting(n):
        tested[n] += 1
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    s = standard_instance(make_order(5, 1))
    el = factor_prime(s.order, 11)[0]
    twisted = twist_by_element(s, el, norm=el.norm())
    arith.require_odd_prime.cache_clear()
    tested.clear()
    reduce_degree_step(twisted, 11)
    assert tested == {11: 1}
    instance = generate_instance(5, 1, [11, 19, 29], seed=1)
    arith.require_odd_prime.cache_clear()
    tested.clear()
    principalize(instance)
    assert tested == {11: 1, 19: 1, 29: 1}


def test_refusals_print_integers_past_the_digit_limit():
    # Each message once raised the interpreter's int/str digit-limit
    # ValueError in place of its PreconditionError.
    big = 10**5000
    refusals = (
        (lambda: make_order(big), f"D = {int_text(big)} must be a squarefree integer >= 2"),
        (lambda: make_order(5, -big), f"conductor must be >= 1, got {int_text(-big)}"),
        (
            lambda: solve_norm(make_order(5, 3**10000), 3),
            f"3 divides the conductor {int_text(3**10000)}",
        ),
        (lambda: humbert_holds(-big, factorize(1)), f"invalid discriminant {int_text(-big)}"),
    )
    for refusal, message in refusals:
        with pytest.raises(PreconditionError) as info:
            refusal()
        assert str(info.value) == message


def test_split_but_irreducible_prime_exists():
    # 3 splits in Q(sqrt(10)) but the primes above it are non-principal
    # (class number 2), so reducibility is strictly stronger than splitting.
    o = make_order(10, 1)
    assert splitting_type(o, 3) == "split"
    assert factor_prime(o, 3) is None


# ---------------------------------------------------------------------------
# associates
# ---------------------------------------------------------------------------


def test_associate_examples():
    o = make_order(5, 1)
    a1, a2 = o.element(3, 1), o.element(4, -1)
    assert not are_associates_in_maximal(a1, a2)
    s5 = o.element(-1, 2)
    assert are_associates_in_maximal(s5, s5)
    w = o.omega()
    assert are_associates_in_maximal(a1, w * a1)
    with pytest.raises(PreconditionError):
        are_associates_in_maximal(o.element(0, 0), a1)


# ---------------------------------------------------------------------------
# the conductor identity
# ---------------------------------------------------------------------------


def test_bezout_worked_value():
    o = make_order(5, 1)
    b1, b2 = bezout_conductor(o.element(3, 1), o.element(4, -1), o)
    assert (b1.x, b1.y) == (1, -1)
    assert (b2.x, b2.y) == (0, 1)


def test_bezout_unit_cofactor():
    for D, f in [(5, 3), (13, 9), (3, 7)]:
        o = make_order(D, f)
        a1 = o.omega()  # norm -9 f^2-ish, never a unit
        assert not a1.is_unit()
        b1, b2 = bezout_conductor(a1, o.one(), o)
        assert b1.is_zero() and b2 == o.element(f, 0)
        assert a1 * b1 + o.one() * b2 == o.element(f, 0)


def test_bezout_rejects_associates():
    o = make_order(5, 1)
    s5 = o.element(-1, 2)
    with pytest.raises(PreconditionError):
        bezout_conductor(s5, s5, o)


def test_bezout_identity_across_orders():
    for D, f in [(5, 1), (5, 3), (13, 1), (2, 9), (17, 7), (3, 7)]:
        o = make_order(D, f)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if f % p == 0:
                continue
            out = factor_prime(o, p)
            if out is None or are_associates_in_maximal(*out):
                continue
            a1, a2 = out
            b1, b2 = bezout_conductor(a1, a2, o)
            assert a1 * b1 + a2 * b2 == o.element(f, 0), (D, f, p)


# ---------------------------------------------------------------------------
# the Humbert congruence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("disc,d,expected", [(5, 1, True), (5, 2, False), (8, 2, True)])
def test_humbert_examples(disc, d, expected):
    assert humbert_holds(disc, factorize(d)) is expected


def test_humbert_rejects_bad_discriminants():
    for disc in (-4, 0, 3, 6):
        with pytest.raises(PreconditionError):
            humbert_holds(disc, factorize(1))


def test_the_requested_primes_factor_the_generated_pfaffian():
    # generate decides the Humbert congruence on Counter(primes): each twist
    # or pull-back multiplies |pf| by its prime, repeats included
    rng = random.Random(7)
    checked = 0
    for D, f in ((5, 1), (5, 3), (13, 1), (13, 7), (17, 1), (21, 1), (29, 9)):
        maximal = make_order(D, 1)
        eligible = [p for p in (3, 5, 7, 11, 13, 17, 19, 29) if f % p and factor_prime(maximal, p)]
        for seed in range(6):
            primes = [rng.choice(eligible) for _ in range(rng.randrange(4))]
            try:
                s = generate_instance(D, f, primes, seed)
            except PreconditionError:
                continue
            assert factorize(abs(s.pf)) == Counter(primes), (D, f, primes, seed)
            checked += 1
    assert checked >= 30


def test_generate_does_not_factor_its_pfaffian(monkeypatch):
    calls = []
    real = arith.factorize

    def recording(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(quadratic, "factorize", recording)
    monkeypatch.setattr(arith, "factorize", recording)
    s = generate_instance(5, 1, [11, 19, 29], seed=1)
    assert abs(s.pf) == 11 * 19 * 29
    assert abs(s.pf) not in calls


def test_generate_refuses_a_profile_that_fails_the_humbert_congruence():
    # two twists at the ramified prime 5 compose to the scalar 5
    with pytest.raises(PreconditionError) as info:
        generate_instance(5, 1, [5, 5], seed=0)
    assert str(info.value) == (
        "requested degree profile fails the Humbert congruence (discriminant 5, pfaffian 25)"
    )
