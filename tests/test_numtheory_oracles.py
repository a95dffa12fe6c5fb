"""The number theory in quadratic.py and arith.py against slow references.

The scans below are the value-linear algorithms that fundamental_unit,
solve_norm and humbert_holds replaced, kept verbatim apart from their
names (and the walk calling the old unit scan) as test-only references,
with the exact real-embedding test embeds_above_one that the unit scan
needs. box_solve_norm is the norm-equation box scan that the cycle of
reduced forms (ideal_generator) replaced: it scans the rows |y| = 1, 2, ...
of a box that holds a unit multiple of every solution, and in a suborder
lifts every box solution by the discrete log _unit_log. orbit_hit and
walk_unit_index are the unit-orbit walks modulo the conductor that the
discrete log _unit_log and the group-order _unit_index replaced.
cf_fundamental_unit is the continued-fraction unit (Cohen, Alg. 5.7.2)
that the walk around the principal cycle of reduced forms replaced, and
snf_bezout_conductor the conductor identity solved on a general Smith
form, which the two-row Hermite form replaced. reference_factorize is the
factorization that re-tested the whole cofactor for primality after each
factor it found, which one trial pass and a rho worklist replaced.
reference_reduced_cycle is the walk that carried a basis element through
every rho step while its two callers, the unit and the ideal generator,
filtered what it yielded; ideal_generator, which keeps only the quotients
and builds the generator once it is found, replaced it.
sympy is a second, independent oracle, and the only one for sqrt_mod.
Hypothesis runs derandomized, so every run checks the same cases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import ceil, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint, is_quad_residue, isprime, nextprime, prevprime, primerange
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod
from sympy.solvers.diophantine.diophantine import diop_DN

from rmlattice import arith, intmat, quadratic
from rmlattice.arith import factorize, is_prime, is_squarefree, sqrt_mod
from rmlattice.errors import InvariantBreach, PreconditionError
from rmlattice.generator import generate_instance
from rmlattice.quadratic import (
    OrderElement,
    _canonical_key,
    _reduce_bezout,
    _unit_index,
    _unit_log,
    are_associates_in_maximal,
    bezout_conductor,
    factor_prime,
    fundamental_unit,
    humbert_holds,
    ideal_generator,
    make_order,
    solve_norm,
)
from test_intmat_oracles import snf_with_transforms

ORACLE = settings(derandomize=True, deadline=None, max_examples=200)
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# ---------------------------------------------------------------------------
# the replaced scans
# ---------------------------------------------------------------------------


def sqrt_upper(n: int, scale: int = 10**8) -> Fraction:
    """A rational upper bound on sqrt(n), tight to about 1/scale."""
    return Fraction(isqrt(n * scale * scale) + 1, scale)


def sqrt_lower(n: int, scale: int = 10**8) -> Fraction:
    """A rational lower bound on sqrt(n)."""
    return Fraction(isqrt(n * scale * scale), scale)


def sqrt_upper_frac(q: Fraction, scale: int = 10**8) -> Fraction:
    """A rational upper bound on sqrt(q) for a nonnegative rational q."""
    n, d = q.numerator, q.denominator
    return Fraction(isqrt(n * d * scale * scale) + 1, d * scale)


def norm_solutions_for_y(order, y: int, target: int):
    """Integer x with norm(x + y*w) == target, by the quadratic formula."""
    t, n = order.trace_omega, order.norm_omega
    disc = t * t * y * y - 4 * (n * y * y - target)
    if disc < 0:
        return []
    r = isqrt(disc)
    if r * r != disc:
        return []
    out = []
    for root in {r, -r}:
        num = -t * y + root
        if num % 2 == 0:
            out.append(order.element(num // 2, y))
    return out


def norm_search_bound(order, p: int) -> int:
    """The |y| bound below which a solution must appear if any exists.

    Any element of norm +-p has a unit multiple whose two real embeddings
    lie in [-B, B] for B = sqrt(p * u0), u0 the fundamental unit value, so
    a solution exists iff one exists with |y| <= 2B/sqrt(disc).
    """
    u0 = fundamental_unit(order)
    disc, t = order.discriminant, order.trace_omega
    w_hi, s_lo = (t + sqrt_upper(disc)) / 2, sqrt_lower(disc)
    u0_hi = u0.x + u0.y * w_hi  # u0.y > 0, so this bounds the unit value above
    bound = sqrt_upper_frac(Fraction(p) * u0_hi)
    return ceil(2 * bound / s_lo) + 1


def box_norm_rows(maximal, p: int):
    """The norm +-p elements of the maximal order inside the search box,
    one list per non-empty row |y| = 1, 2, ...; up to sign and unit
    multiples they represent every solution."""
    row = []
    for ay in range(1, norm_search_bound(maximal, p) + 1):
        for y in (ay, -ay):
            for target in (p, -p):
                row += norm_solutions_for_y(maximal, y, target)
        if row:
            yield row
            row = []


def box_solve_norm(order, p):
    if order.conductor == 1:
        row = next(box_norm_rows(order, p), None)
        return None if row is None else min(row, key=_canonical_key)
    f = order.conductor
    maximal = make_order(order.D, 1)
    unit = fundamental_unit(maximal)
    seeds = [el for row in box_norm_rows(maximal, p) for el in row]
    candidates = []
    for seed in seeds:
        k = _unit_log(order, seed)
        if k is not None:
            hit = seed * unit**k
            candidates.append(order.element(hit.x, hit.y // f))
    return min(candidates, key=_canonical_key) if candidates else None


def _sign_plus_root(a: int, b: int, disc: int) -> int:
    """Sign of a + b*sqrt(disc) for integers a, b and disc > 0 non-square."""
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1 if (a or b) else 0
    if b > 0:  # a < 0
        return 1 if b * b * disc > a * a else -1
    return 1 if a * a > b * b * disc else -1  # a > 0, b < 0


def embeds_above_one(el) -> bool:
    """Whether x + y*w > 1 in the embedding sending sqrt(D) to the positive root."""
    t, disc = el.order.trace_omega, el.order.discriminant
    # x + y*(t + sqrt(disc))/2 > 1  <=>  (2x + y*t - 2) + y*sqrt(disc) > 0
    return _sign_plus_root(2 * el.x + el.y * t - 2, el.y, disc) > 0


@lru_cache(maxsize=None)
def scan_fundamental_unit(order):
    if order.conductor > 1:
        maximal = make_order(order.D, 1)
        u = scan_fundamental_unit(maximal)
        f = order.conductor
        power = u
        for _ in range(10**6):
            if power.y % f == 0:
                return order.element(power.x, power.y // f)
            power = power * u
        raise InvariantBreach("unit power lift did not terminate")
    y = 0
    while True:
        y += 1
        if y > 10**7:  # unreachable for sane inputs; guards the loop
            raise InvariantBreach("fundamental unit search did not terminate")
        candidates = [
            el
            for target in (1, -1)
            for el in norm_solutions_for_y(order, y, target)
            if embeds_above_one(el)
        ]
        if candidates:
            return min(candidates, key=lambda el: el.x)


def cf_fundamental_unit(order):
    """The fundamental unit of a maximal order, by the continued fraction of
    a0 = (b + sqrt(disc))/2: over the first period of length k the unit is
    q_{k-1}*a0 + q_{k-2}, q the convergent denominators."""
    disc = order.discriminant
    s = isqrt(disc)
    b = s if (disc - s) % 2 == 0 else s - 1
    p_num, q_den = b, 2  # a_i = (p_num + sqrt(disc)) / q_den
    q_prev, q_prev2 = 0, 1  # q_{i-1}, q_{i-2}
    while True:
        a = (p_num + s) // q_den
        q_prev, q_prev2 = a * q_prev + q_prev2, q_prev
        p_num = a * q_den - p_num
        q_den = (disc - p_num * p_num) // q_den
        if (p_num, q_den) == (b, 2):
            break
    # a0 = w + c with c = (b - trace_omega)/2, an integer: b, disc and the
    # trace share a parity.
    c = (b - order.trace_omega) // 2
    return order.element(q_prev * c + q_prev2, q_prev)


def reference_reduced_cycle(order, a: int, b: int):
    """Yield (form, alpha) along the rho steps from the ideal with Hermite
    basis (a, b + w), through one full cycle of reduced forms, alpha the
    coordinates of the first basis element; stop after yielding the first
    reduced form again."""
    t, disc = order.trace_omega, order.discriminant
    s = isqrt(disc)
    (ax, ay), (bx, by) = (a, 0), (b, 1)
    form = (a, 2 * b + t, (b * b + t * b + order.norm_omega) // a)
    first = None
    for steps in count():
        yield form, (ax, ay)
        A, B, C = form
        if 0 < B <= s < B + 2 * abs(A) and 2 * abs(A) - B <= s:  # reduced
            if first is None:
                first = form
            elif form == first:
                return
        if steps == quadratic._WALK_BUDGET:
            raise PreconditionError(
                f"the walk along reduced forms of Q(sqrt({order.D})) "
                f"passed its budget of {steps} rho steps"
            )
        c2 = 2 * abs(C)
        if abs(C) > s:
            r = -B % c2
            if r > abs(C):
                r -= c2
        else:
            r = s - (s + B) % c2
        q = (B + r) // (2 * C)
        (ax, ay), (bx, by) = (bx, by), (q * bx - ax, q * by - ay)
        form = (C, r, (r * r - disc) // (4 * C))


def reference_ideal_generator(order, a: int, b: int):
    for (A, _, _), (x, y) in reference_reduced_cycle(order, a, b):
        if abs(A) == 1:
            return order.element(x, y)
    return None


def reference_fundamental_unit(order):
    """The unit of a maximal order from the walk of its principal form."""
    t, disc = order.trace_omega, order.discriminant
    s = isqrt(disc)
    b = s if (disc - s) % 2 == 0 else s - 1
    cycle = reference_reduced_cycle(order, 1, (b - t) // 2)
    next(cycle)  # the principal form itself, with the basis element 1
    x, y = next(el for (A, _, _), el in cycle if abs(A) == 1)
    a = 2 * x + t * y
    return order.element((abs(a) - t * abs(y)) // 2, abs(y))


def snf_bezout_conductor(a1, a2, order):
    f = order.conductor
    if a1.is_unit():
        return (a1.inverse_unit() * f, order.element(0, 0))
    if a2.is_unit():
        return (order.element(0, 0), a2.inverse_unit() * f)
    w = order.omega()
    gens = [a1, a1 * w, a2, a2 * w]
    g = intmat.freeze([[el.x for el in gens], [el.y for el in gens]])
    u, s, v = snf_with_transforms(g)
    target = (f, 0)
    ut = (
        u[0][0] * target[0] + u[0][1] * target[1],
        u[1][0] * target[0] + u[1][1] * target[1],
    )
    yvec = [0, 0, 0, 0]
    for i in range(2):
        d = s[i][i]
        if d == 0:
            if ut[i] != 0:
                raise PreconditionError(
                    "conductor is not in the span of the factors (associate factors)"
                )
        else:
            if ut[i] % d:
                raise PreconditionError(
                    "conductor is not in the span of the factors (associate factors)"
                )
            yvec[i] = ut[i] // d
    c = [sum(v[r][k] * yvec[k] for k in range(4)) for r in range(4)]
    # Relation lattice: columns of v beyond the rank (s has rank <= 2 here).
    rank = sum(1 for i in range(2) if s[i][i] != 0)
    if rank < 2:
        raise PreconditionError(
            "conductor is not in the span of the factors (associate factors)"
        )
    k1 = [v[r][2] for r in range(4)]
    k2 = [v[r][3] for r in range(4)]
    c = _reduce_bezout(c, k1, k2)
    b1 = order.element(c[0], c[1])
    b2 = order.element(c[2], c[3])
    assert a1 * b1 + a2 * b2 == order.element(f, 0)
    return b1, b2


def walk_solve_norm(order, p):
    if order.conductor == 1:
        y_max = norm_search_bound(order, p)
        for ay in range(1, y_max + 1):
            solutions = [
                el
                for y in (ay, -ay)
                for target in (p, -p)
                for el in norm_solutions_for_y(order, y, target)
            ]
            if solutions:
                return min(solutions, key=_canonical_key)
        return None
    f = order.conductor
    maximal = make_order(order.D, 1)
    unit = scan_fundamental_unit(maximal)
    candidates = []
    for seed in (el for row in box_norm_rows(maximal, p) for el in row):
        current = seed
        seen = set()
        while (current.x % f, current.y % f) not in seen:
            seen.add((current.x % f, current.y % f))
            if current.y % f == 0:
                candidates.append(order.element(current.x, current.y // f))
                break
            current = current * unit
    if not candidates:
        return None
    return min(candidates, key=_canonical_key)


def walk_unit_index(order):
    """The least n0 >= 1 with u**n0 in the order, u the maximal order's unit.

    The orbit of u modulo f is purely periodic because u is invertible, so
    it returns to 1 within |(O_F/f)^*| < f^2 steps, and 1 lies in the order.
    """
    maximal = make_order(order.D, 1)
    u = fundamental_unit(maximal)
    f = order.conductor
    return orbit_hit(maximal, u, u, f, f * f) + 1


def orbit_hit(maximal, seed, unit, f, steps):
    """The least k < steps with f | y(seed * unit**k), or None.

    Walks the orbit on residues modulo f, so each step costs the same
    however large seed * unit**k has grown.
    """
    # (x + y*w)(ux + uy*w) with w^2 = t*w - n
    ux, uy = unit.x % f, unit.y % f
    yx, yy = -maximal.norm_omega * uy % f, (ux + maximal.trace_omega * uy) % f
    x, y = seed.x % f, seed.y % f
    for k in range(steps):
        if y == 0:
            return k
        x, y = (x * ux + y * yx) % f, (x * uy + y * yy) % f
    return None


def reference_factorize(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # n has no prime factor below f, so below f^2 it is 1 or a prime and
    # needs no test.
    cofactor_prime = n >= 25 and arith.is_prime(n)
    f = 5
    while not cofactor_prime and f <= arith._TRIAL_BOUND and f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
                cofactor_prime = n > p * p and arith.is_prime(n)
        f += 6
    if cofactor_prime or 1 < n < f * f:
        out[n] = 1
    elif n > 1:
        _reference_factor_composite(n, out)
    return out


def _reference_factor_composite(n: int, out: dict[int, int]) -> None:
    d = arith._brent_divisor(n)
    for m in (d, n // d):
        if arith.is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            _reference_factor_composite(m, out)


def scan_humbert_nonempty(disc, d):
    m = 4 * d
    return any((x * x - disc) % m == 0 for x in range(m))


def pell_unit(D):
    """(t, u) of the fundamental unit (t + u*sqrt(disc))/2, from sympy.

    Units of the maximal order are the solutions of t^2 - disc*u^2 = +-4;
    the fundamental unit is the one with the least u > 0, then least t > 0.
    """
    disc = D if D % 4 == 1 else 4 * D
    sols = {
        (abs(t), abs(u)) for n in (4, -4) for t, u in diop_DN(disc, n) if u != 0
    }
    return min(sols, key=lambda s: (s[1], s[0]))


def unit_as_pell(el):
    """(t, u) with el = (t + u*sqrt(disc))/2: u = y and t = trace(el)."""
    return 2 * el.x + el.order.trace_omega * el.y, el.y


SQUAREFREE = [D for D in range(2, 401) if is_squarefree(D)]


# ---------------------------------------------------------------------------
# fundamental units
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("D", [D for D in SQUAREFREE if D <= 100])
def test_fundamental_unit_matches_scan(D):
    order = make_order(D, 1)
    assert fundamental_unit(order) == scan_fundamental_unit(order)


def test_fundamental_unit_matches_sympy_pell():
    for D in SQUAREFREE:
        order = make_order(D, 1)
        assert unit_as_pell(fundamental_unit(order)) == pell_unit(D), D


@pytest.mark.parametrize("D", [139, 166, 211, 331])
def test_fundamental_unit_of_large_unit_fields(D):
    # The y-scan took 16 s for D=139 and gave up with InvariantBreach on
    # the other three (D=166 has y = 132015642).
    order = make_order(D, 1)
    u = fundamental_unit(order)
    assert abs(u.norm()) == 1 and embeds_above_one(u)
    assert unit_as_pell(u) == pell_unit(D)


def test_fundamental_unit_matches_the_continued_fraction():
    # every squarefree D below 2000, the large-unit fields named explicitly
    fields = {D for D in range(2, 2000) if is_squarefree(D)}
    for D in sorted(fields | {94, 139, 166, 211, 331, 409, 1621}):
        order = make_order(D, 1)
        assert fundamental_unit(order) == cf_fundamental_unit(order), D


def test_fundamental_unit_matches_the_reduced_cycle_reference():
    for D in range(2, 3000):
        if is_squarefree(D):
            order = make_order(D, 1)
            assert fundamental_unit(order) == reference_fundamental_unit(order), D


@ORACLE
@given(st.sampled_from([2, 3, 5, 13, 17, 33, 46, 94]), st.integers(1, 149))
def test_suborder_unit_matches_power_scan(D, half):
    order = make_order(D, 2 * half + 1)  # odd conductors 3 to 299
    assert fundamental_unit(order) == scan_fundamental_unit(order)


# ---------------------------------------------------------------------------
# norm equations
# ---------------------------------------------------------------------------


@ORACLE
@given(
    st.sampled_from([2, 3, 5, 13, 17, 33]),
    st.integers(0, 149),
    st.sampled_from(ODD_PRIMES),
)
def test_solve_norm_matches_exact_walk(D, half, p):
    f = 2 * half + 1  # odd conductors 1 to 299
    assume(f % p)
    order = make_order(D, f)
    assert solve_norm(order, p) == walk_solve_norm(order, p)


@ORACLE
@given(
    st.sampled_from([2, 3, 5, 13, 17, 33, 46, 94]),
    st.integers(1, 2499),
    st.sampled_from(ODD_PRIMES),
)
def test_unit_logs_and_unit_index_match_the_walks(D, half, p):
    f = 2 * half + 1  # odd conductors 3 to 4999
    assume(f % p)
    order = make_order(D, f)
    maximal = make_order(D, 1)
    unit = fundamental_unit(maximal)
    n0 = walk_unit_index(order)
    assert _unit_index(order) == n0
    seeds = [el for row in box_norm_rows(maximal, p) for el in row]
    walks = [orbit_hit(maximal, seed, unit, f, n0) for seed in seeds]
    assert [_unit_log(order, seed) for seed in seeds] == walks


@pytest.mark.parametrize(
    "D,f,p",
    [
        # orbits of 900-1815 steps: two suborders with a norm +-p element,
        # and two without, one of them the ramified D=13, f=1925, p=13
        (13, 441, 17), (2, 3375, 31), (3, 6655, 13), (13, 1925, 13),
        # the canonical element is a hit on the last step before n0
        (46, 3, 5), (94, 3, 5), (94, 183, 47),
    ],
)
def test_solve_norm_matches_exact_walk_on_fixed_cases(D, f, p):
    order = make_order(D, f)
    assert solve_norm(order, p) == walk_solve_norm(order, p)


SMALL_PRIMES = [p for p in range(3, 200, 2) if all(p % q for q in range(3, p, 2))]


@pytest.mark.parametrize("D", [D for D in SQUAREFREE if D <= 60] + [94, 139])
def test_solve_norm_matches_box_scan_on_maximal_orders(D):
    order = make_order(D, 1)
    for p in SMALL_PRIMES:
        assert solve_norm(order, p) == box_solve_norm(order, p), p


def test_ideal_generator_matches_the_reduced_cycle_reference():
    # both primes above each p that does not stay inert, over the grid of
    # the box-scan test above; the non-principal ones give None
    missing = 0
    for D in [D for D in SQUAREFREE if D <= 60] + [94, 139]:
        order = make_order(D, 1)
        for p in SMALL_PRIMES:
            if arith.legendre(order.discriminant, p) == -1:
                continue
            for r in {sqrt_mod(order.discriminant, p), -sqrt_mod(order.discriminant, p) % p}:
                b = -(order.trace_omega + r) * ((p + 1) // 2) % p
                gen = ideal_generator(order, p, b)
                assert gen == reference_ideal_generator(order, p, b), (D, p, b)
                missing += gen is None
    assert missing > 0


@ORACLE
@given(
    st.sampled_from([2, 3, 5, 6, 10, 13, 15, 17, 33, 46, 94]),
    st.integers(1, 199),
    st.sampled_from(SMALL_PRIMES),
)
def test_solve_norm_matches_box_scan_on_suborders(D, half, p):
    f = 2 * half + 1  # odd conductors 3 to 399
    assume(f % p)
    order = make_order(D, f)
    assert solve_norm(order, p) == box_solve_norm(order, p)


def test_solve_norm_pins():
    # |y| along u = (1+sqrt 5)/2 is 3, 1, 2, 1, 3 around 2+w: not unimodal,
    # because N(u) = -1; the two minima tie and |x| decides
    assert solve_norm(make_order(5, 1), 5) == make_order(5, 1).element(2, 1)
    # the sign normalization: y > 0, then x >= 0
    assert solve_norm(make_order(2, 1), 7) == make_order(2, 1).element(3, 1)
    # Q(sqrt 10) has class number 2 and the primes above 3 are not principal
    assert solve_norm(make_order(10, 1), 3) is None
    assert box_solve_norm(make_order(10, 1), 3) is None


@pytest.mark.parametrize(
    "D,p",
    [
        (5, 10**12 + 39), (5, 10**15 + 91), (5, 10**18 + 9),
        (2, 10**12 + 39), (2, 10**15 + 159), (2, 10**18 + 9),
    ],
)
def test_solve_norm_at_large_primes_matches_sympy(D, p):
    # diop_DN gives the least solution of each class of X^2 - D*Y^2 = +-4p
    # for D = 1 (mod 4), an element (X - Y)/2 + Y*w, and of X^2 - D*Y^2 =
    # +-p otherwise, an element X + Y*w
    order = make_order(D, 1)
    scale = 4 if order.trace_omega else 1
    solutions = []
    for n in (p, -p):
        for X, Y in diop_DN(D, scale * n):
            el = order.element((X - Y) // 2 if scale == 4 else X, Y)
            solutions += [el, -el, el.conjugate(), -el.conjugate()]
    assert solutions
    el = solve_norm(order, p)
    assert el == min(solutions, key=_canonical_key)
    assert abs(el.norm()) == p
    assert all(
        are_associates_in_maximal(el, other)
        or are_associates_in_maximal(el.conjugate(), other)
        for other in solutions
    )


def test_the_unit_code_refuses_an_even_conductor():
    # 11 splits in Q(sqrt 5), so each call reaches the unit code; the
    # package's entry points refuse an even conductor before it
    for f in (2, 4):
        order = make_order(5, f)
        for call in (fundamental_unit, lambda o: solve_norm(o, 11), lambda o: factor_prime(o, 11)):
            with pytest.raises(PreconditionError, match=f"^conductor {f} must be odd$"):
                call(order)
    # 11 is inert in Q(sqrt 13): None before any unit is computed
    assert solve_norm(make_order(13, 4), 11) is None


def test_suborder_solve_norm_builds_few_unit_powers(monkeypatch):
    # The box scan lifted each of its 24 seeds by its own unit power.
    calls = []
    real = OrderElement.__pow__

    def counting(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(OrderElement, "__pow__", counting)
    el = solve_norm(make_order(5, 3**12), 11)
    assert abs(el.norm()) == 11
    assert len(calls) <= 4


# ---------------------------------------------------------------------------
# the conductor identity
# ---------------------------------------------------------------------------


def bezout_key(b1, b2):
    """_reduce_bezout's key of the solution (b1, b2)."""
    vec = (b1.x, b1.y, b2.x, b2.y)
    return (max(abs(v) for v in vec), sum(abs(v) for v in vec), vec)


def test_bezout_conductor_is_no_larger_than_the_smith_form_solution():
    # the orders of acceptance criterion 9, over the primes below 110
    primes = [p for p in range(3, 110, 2) if all(p % q for q in range(3, p, 2))]
    checked = 0
    for D, f in ((5, 1), (5, 3), (13, 9), (17, 7), (2, 9), (3, 7)):
        order = make_order(D, f)
        for p in primes:
            factors = None if f % p == 0 else factor_prime(order, p)
            if factors is None:
                continue
            a1, a2 = factors
            if are_associates_in_maximal(a1, a2):
                for solve in (bezout_conductor, snf_bezout_conductor):
                    with pytest.raises(PreconditionError):
                        solve(a1, a2, order)
                continue
            b1, b2 = bezout_conductor(a1, a2, order)
            assert a1 * b1 + a2 * b2 == order.element(f, 0), (D, f, p)
            reference = snf_bezout_conductor(a1, a2, order)
            assert bezout_key(b1, b2) <= bezout_key(*reference), (D, f, p)
            checked += 1
    assert checked > 50


def test_bezout_conductor_pins_where_the_smith_form_solution_was_larger():
    order = make_order(5, 3)
    b1, b2 = bezout_conductor(*factor_prime(order, 19), order)
    assert bezout_key(b1, b2)[0] == 2
    assert bezout_key(*snf_bezout_conductor(*factor_prime(order, 19), order))[0] == 78


# ---------------------------------------------------------------------------
# Humbert congruence
# ---------------------------------------------------------------------------


def test_humbert_matches_scan_on_grid():
    for disc in range(1, 200):
        if disc % 4 in (0, 1):
            for d in range(1, 100):
                expected = scan_humbert_nonempty(disc, d)
                assert humbert_holds(disc, factorize(d)) == expected, (disc, d)


@ORACLE
@given(st.integers(1, 10**5), st.integers(1, 3000))
def test_humbert_matches_scan_on_random_pairs(k, d):
    disc = 4 * k if k % 2 else 4 * k + 1  # both residues of a discriminant
    assert humbert_holds(disc, factorize(d)) == scan_humbert_nonempty(disc, d)


def test_humbert_with_a_large_degree_root_returns():
    # The scan walked range(4d): about 4*10^13 steps here.
    q = nextprime(10**12)
    for disc in (45, 60, 4 * 10**12 + 1):
        expected = scan_humbert_nonempty(disc, 9) and is_quad_residue(disc, q)
        assert humbert_holds(disc, factorize(9 * q)) == expected, disc


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


@ORACLE
@given(st.integers(1, 10**18))
def test_factorize_matches_sympy(n):
    assert factorize(n) == factorint(n)


@settings(ORACLE, max_examples=20)
@given(st.integers(10**8, 10**9), st.integers(10**8, 10**9))
def test_factorize_semiprimes_near_1e18(a, b):
    p, q = nextprime(a), prevprime(b)
    for n in (p * q, p * p):
        assert factorize(n) == factorint(n)


def _prime_powers(primes, max_exponent, max_size):
    return st.lists(st.tuples(primes, st.integers(1, max_exponent)), max_size=max_size)


# Primes below 1000, from 1000 to 10^6 and from 10^6 to 10^12. Rho takes
# about sqrt(p) steps to split off a prime p, so at most one prime of a draw,
# to the first power, lies past 10^9; the others keep rho near 3*10^4 steps.
PRIMES_SMALL = st.sampled_from(list(primerange(2, 1000)))
PRIMES_MEDIUM = st.integers(1000, 10**6 - 100).map(nextprime)
PRIMES_LARGE = st.integers(10**6, 10**9).map(nextprime)
PRIMES_TOP = st.integers(10**9, 10**12).map(nextprime)


@settings(ORACLE, max_examples=100)
@given(
    _prime_powers(PRIMES_SMALL, 6, 6),
    _prime_powers(PRIMES_MEDIUM, 3, 4),
    _prime_powers(PRIMES_LARGE, 2, 2),
    st.lists(PRIMES_TOP, max_size=1),
)
def test_factorize_matches_the_reference_on_products_of_prime_powers(
    small, medium, large, top
):
    n = 1
    for p, e in small + medium + large + [(q, 1) for q in top]:
        n *= p**e
    expected = reference_factorize(n)
    assert factorize(n) == expected
    assert expected == factorint(n)


def _count_is_prime(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    return calls


def test_factorize_trial_pass_runs_no_primality_test(monkeypatch):
    # The odd primes below 1000 all leave in the trial pass, where the
    # reference tested the cofactor for primality after each of them.
    calls = _count_is_prime(monkeypatch)
    n = prod(primerange(3, 1000))
    assert factorize(n) == dict.fromkeys(primerange(3, 1000), 1)
    assert len(calls) == 0
    assert reference_factorize(n) == factorize(n)
    assert len(calls) == 165


def test_factorize_tests_the_256_prime_pfaffian_fewer_times_than_primes(monkeypatch):
    # The first 256 primes from 7 that split in Q(sqrt(5)), 7 to 3719: one
    # test per composite part past the trial bound, none per prime.
    primes = [p for p in primerange(7, 3720) if p % 5 in (1, 4)]
    assert len(primes) == 256
    pf = abs(generate_instance(5, 1, primes, seed=1).pf)
    calls = _count_is_prime(monkeypatch)
    assert factorize(pf) == dict.fromkeys(primes, 1)
    assert len(calls) < 256


def test_factorize_of_a_large_semiprime_returns():
    # Trial division needed about 10^9 steps here.
    p, q = nextprime(10**9), nextprime(2 * 10**9)
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_refuses_a_semiprime_beyond_the_rho_budget():
    # two primes near 10^24 and 3*10^24: rho needs about 10^12 steps
    p, q = 10**24 + 7, 3 * 10**24 + 17
    assert isprime(p) and isprime(q)
    with pytest.raises(PreconditionError, match=f"cannot factor {p * q}: .* 4194304 steps"):
        factorize(p * q)


# The least strong pseudoprimes to all prime bases up to 37 and up to 41
# (Sorenson and Webster 2015).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_rejects_the_least_strong_pseudoprimes_to_the_bases_to_41():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    assert [a for a in bases if not _strong_probable_prime(PSI_12, a)] == [41, 43]
    assert [a for a in bases if not _strong_probable_prime(PSI_13, a)] == [43]
    assert not isprime(PSI_12) and not isprime(PSI_13)
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}


# ---------------------------------------------------------------------------
# square roots modulo a prime
# ---------------------------------------------------------------------------


@ORACLE
@given(st.integers(3, 10**15), st.integers(0, 10**15))
def test_sqrt_mod_matches_sympy(n, a):
    p = nextprime(n)
    expected = sympy_sqrt_mod(a, p)  # the smallest root, or None
    if expected is None:
        with pytest.raises(ValueError):
            sqrt_mod(a, p)
    else:
        assert sqrt_mod(a, p) == expected


def test_sqrt_mod_at_primes_with_a_deep_two_part():
    # p - 1 divisible by 2^16 and 2^23: Tonelli-Shanks walks its longest loop
    for p in (65537, 998244353):
        for a in range(1, 200):
            expected = sympy_sqrt_mod(a, p)
            if expected is not None:
                assert sqrt_mod(a, p) == expected
