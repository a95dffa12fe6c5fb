"""Exact arithmetic in real quadratic orders.

An order of conductor f in Q(sqrt(D)) is Z[w] for the generator
w = f*w1, where w1 = sqrt(D) if D = 2, 3 (mod 4) and w1 = (1+sqrt(D))/2
if D = 1 (mod 4). Scaling the generator linearly with the conductor means
that the generator of the conductor-f order is exactly f/g times the
generator of the conductor-g suborder, which the lattice algorithms rely
on. Elements are stored as integer pairs (x, y) meaning x + y*w.

Besides element arithmetic this module provides prime splitting, the
fundamental unit, norm equations, prime factorization into norm +-p
elements, a conductor Bezout identity for non-associate factors, and the
Humbert congruence test. Norm equations in the maximal order are a
complete bounded box search. In a conductor-f suborder they reduce to the
group G = (O_F/f)^*/(Z/f)^*: the suborder's unit is u**n0, n0 the order
of u in G read off |G| = prod over q^e || f of q^(e-1)*(q - chi(q)), and
each box solution reaches the suborder at an exponent found by a
baby-step giant-step discrete log modulo f.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, isqrt

from .arith import (
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    sqrt_lower,
    sqrt_upper,
    sqrt_upper_frac,
)
from .errors import PreconditionError
from .intmat import freeze, snf_with_transforms

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"
DIVIDES_CONDUCTOR = "divides_conductor"


@dataclass(frozen=True)
class RealQuadraticOrder:
    """The order of conductor `conductor` in Q(sqrt(D)).

    trace_omega and norm_omega are the trace and norm of the generator, so
    the generator satisfies x^2 - trace_omega*x + norm_omega = 0 and the
    discriminant is trace_omega^2 - 4*norm_omega = conductor^2 * d_F.
    """

    D: int
    conductor: int
    fundamental_discriminant: int
    discriminant: int
    trace_omega: int
    norm_omega: int

    def element(self, x: int, y: int) -> "OrderElement":
        return OrderElement(self, x, y)

    def one(self) -> "OrderElement":
        return OrderElement(self, 1, 0)

    def omega(self) -> "OrderElement":
        return OrderElement(self, 0, 1)

    def __repr__(self) -> str:
        return f"RealQuadraticOrder(D={self.D}, conductor={self.conductor})"


def make_order(D: int, conductor: int = 1) -> RealQuadraticOrder:
    """Construct the order of the given conductor in Q(sqrt(D))."""
    if D < 2 or not is_squarefree(D):
        raise PreconditionError(f"D = {D} must be a squarefree integer >= 2")
    if conductor < 1:
        raise PreconditionError(f"conductor must be >= 1, got {conductor}")
    if D % 4 == 1:
        d_f = D
        tr1, nm1 = 1, (1 - D) // 4
    else:
        d_f = 4 * D
        tr1, nm1 = 0, -D
    t = conductor * tr1
    n = conductor * conductor * nm1
    disc = t * t - 4 * n
    assert disc == conductor * conductor * d_f
    return RealQuadraticOrder(D, conductor, d_f, disc, t, n)


@dataclass(frozen=True)
class OrderElement:
    """x + y*w relative to a fixed real quadratic order with generator w."""

    order: RealQuadraticOrder
    x: int
    y: int

    def __add__(self, other: "OrderElement") -> "OrderElement":
        self._check_same_order(other)
        return OrderElement(self.order, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "OrderElement") -> "OrderElement":
        self._check_same_order(other)
        return OrderElement(self.order, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "OrderElement":
        return OrderElement(self.order, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElement(self.order, self.x * other, self.y * other)
        self._check_same_order(other)
        t, n = self.order.trace_omega, self.order.norm_omega
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return OrderElement(
            self.order,
            x1 * x2 - n * y1 * y2,
            x1 * y2 + x2 * y1 + t * y1 * y2,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "OrderElement":
        """self**k for k >= 0, by binary powering."""
        result, base = self.order.one(), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def conjugate(self) -> "OrderElement":
        return OrderElement(self.order, self.x + self.order.trace_omega * self.y, -self.y)

    def norm(self) -> int:
        t, n = self.order.trace_omega, self.order.norm_omega
        return self.x * self.x + t * self.x * self.y + n * self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def inverse_unit(self) -> "OrderElement":
        """Inverse of a unit (norm +-1): conj/norm stays in the order."""
        n = self.norm()
        if abs(n) != 1:
            raise PreconditionError("inverse_unit requires a unit")
        return self.conjugate() * n

    def maximal_coords(self) -> tuple[int, int]:
        """Coordinates relative to the maximal order generator w1."""
        return (self.x, self.y * self.order.conductor)

    def _check_same_order(self, other: "OrderElement") -> None:
        if (self.order.D, self.order.conductor) != (other.order.D, other.order.conductor):
            raise PreconditionError("elements belong to different orders")

    def __str__(self) -> str:
        return f"{self.x}{self.y:+d}w"


def _norm_solutions_for_y(order: RealQuadraticOrder, y: int, target: int) -> list[OrderElement]:
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


@lru_cache(maxsize=None)
def fundamental_unit(order: RealQuadraticOrder) -> OrderElement:
    """The smallest unit > 1 of the order itself (not of the maximal order).

    For the maximal order, by the continued fraction of the reduced
    quadratic irrational a0 = (b + sqrt(disc))/2, b the largest integer
    below sqrt(disc) of the parity of disc (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 5.7.2). Its expansion is
    purely periodic, and over the first period of length k the unit
    q_{k-1}*a0 + q_{k-2}, q the convergent denominators, is the fundamental
    unit of the order Z[a0] = Z[w]. The work is linear in the period, which
    is O(sqrt(disc) log disc), however large the unit is.

    For conductor f > 1 the unit group is the cyclic subgroup of
    maximal-order units landing in the order, so the answer is u**n0 for
    n0 the order of the class of u in (O_F/f)^*/(Z/f)^*, from _unit_index.
    """
    if order.conductor > 1:
        power = fundamental_unit(make_order(order.D, 1)) ** _unit_index(order)
        return order.element(power.x, power.y // order.conductor)
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


# Residues of the maximal order modulo the conductor f are pairs (x, y)
# meaning x + y*w1 mod f. An element lies in the conductor-f order exactly
# when its residue has y = 0, that is when its class in
# G = (O_F/f)^*/(Z/f)^* is trivial.


def _mul_mod(maximal: RealQuadraticOrder, a, b, f: int) -> tuple[int, int]:
    # (x1 + y1*w)(x2 + y2*w) with w^2 = t*w - n
    (x1, y1), (x2, y2) = a, b
    t, n = maximal.trace_omega, maximal.norm_omega
    return (x1 * x2 - n * y1 * y2) % f, (x1 * y2 + x2 * y1 + t * y1 * y2) % f


def _pow_mod(maximal: RealQuadraticOrder, a, k: int, f: int) -> tuple[int, int]:
    result = (1, 0)
    while k:
        if k & 1:
            result = _mul_mod(maximal, result, a, f)
        k >>= 1
        if k:
            a = _mul_mod(maximal, a, a, f)
    return result


def _residue(el: OrderElement, f: int) -> tuple[int, int]:
    return el.x % f, el.y % f


def _kronecker(d: int, q: int) -> int:
    """The Kronecker symbol (d/q) at a prime q, for a discriminant d."""
    if q == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    return legendre(d, q)


@lru_cache(maxsize=None)
def _unit_index(order: RealQuadraticOrder) -> int:
    """The least n0 >= 1 with u**n0 in the order, u the maximal order's unit.

    n0 is the order of the class of u in G = (O_F/f)^*/(Z/f)^*, whose size
    is |G| = prod over q^e || f of q^(e-1)*(q - chi(q)), chi the Kronecker
    symbol of d_F (also at q = 2). n0 divides |G|, so it is |G| with each
    prime stripped for as long as the power of u stays a scalar modulo f:
    O(log^2 f) modular powers once |G| is factored.
    """
    maximal = make_order(order.D, 1)
    f = order.conductor
    u = _residue(fundamental_unit(maximal), f)
    n0 = 1
    for q, e in factorize(f).items():
        n0 *= q ** (e - 1) * (q - _kronecker(order.fundamental_discriminant, q))
    for q in factorize(n0):
        while n0 % q == 0 and _pow_mod(maximal, u, n0 // q, f)[1] == 0:
            n0 //= q
    return n0


@lru_cache(maxsize=None)
def _baby_steps(order: RealQuadraticOrder):
    """(maximal, u, n0, table, giant, period) for discrete logs base rho mod f.

    u is the residue of the maximal order's unit and rho = u/conj(u) =
    N(u)*u^2. The map z -> z/conj(z) kills (Z/f)^*, so it is defined on G.
    It is one-to-one there for odd f; for even f it can be two-to-one, so
    rho has order period = n0 or n0/2. The table maps rho**j to j for
    j < m = ceil(sqrt(period)), m distinct powers as m <= period, and
    giant is the matrix of multiplication by rho**(-m) = conj(rho**m).
    """
    maximal = make_order(order.D, 1)
    f = order.conductor
    unit = fundamental_unit(maximal)
    u = _residue(unit, f)
    x, y = _mul_mod(maximal, u, u, f)
    rho = (x * unit.norm() % f, y * unit.norm() % f)
    n0 = _unit_index(order)
    half = n0 // 2
    period = half if n0 % 2 == 0 and _pow_mod(maximal, rho, half, f) == (1, 0) else n0
    table = {}
    power = (1, 0)
    for j in range(isqrt(period - 1) + 1):
        table[power] = j
        power = _mul_mod(maximal, power, rho, f)
    # giant = conj(power) = gx + gy*w, kept as the matrix of z -> z*giant
    x, y = power
    gx, gy = (x + maximal.trace_omega * y) % f, -y % f
    giant = (gx, -maximal.norm_omega * gy % f, gy, (gx + maximal.trace_omega * gy) % f)
    return maximal, u, n0, table, giant, period


def _unit_logs(order: RealQuadraticOrder, seeds, p: int) -> list[int | None]:
    """For each seed, the least k < n0 with seed * u**k in the order, or None.

    The seeds are elements of the maximal order of norm +-p, p coprime to
    the conductor f. seed*u**k lies in the order exactly when its class in
    G is trivial, which implies rho**k = conj(seed)/seed =
    conj(seed)^2/N(seed) mod f; p is inverted mod f once for all seeds.
    Baby-step giant-step (Shanks 1971) finds the least such k0 in
    O(sqrt(n0)) products. For odd f, z -> z/conj(z) is one-to-one on G, so
    k0 is the answer. For even f it need not be: the solutions below n0 are
    k0 and, when rho has order n0/2, k0 + n0/2, and each is confirmed by
    one modular power.
    """
    maximal, u, n0, table, giant, period = _baby_steps(order)
    f, t, n = order.conductor, maximal.trace_omega, maximal.norm_omega
    a, b, c, d = giant
    m = len(table)
    p_inverse = pow(p, -1, f)
    logs = []
    for seed in seeds:
        cx, cy = seed.x + t * seed.y, -seed.y  # conj(seed)
        scale = p_inverse if seed.norm() > 0 else -p_inverse  # 1/N(seed) mod f
        x, y = (cx * cx - n * cy * cy) * scale % f, (2 * cx + t * cy) * cy * scale % f
        for i in range(m):
            j = table.get((x, y))
            if j is not None:
                k = i * m + j
                break
            x, y = (x * a + y * b) % f, (x * c + y * d) % f
        else:
            k = None
        if k is not None and f % 2 == 0:
            s = _residue(seed, f)
            candidates, k = range(k, n0, period), None
            for h in candidates:
                if _mul_mod(maximal, s, _pow_mod(maximal, u, h, f), f)[1] == 0:
                    k = h
                    break
        logs.append(k)
    return logs


def splitting_type(order: RealQuadraticOrder, p: int) -> str:
    """Behavior of an odd prime: split, inert, ramified, or divides_conductor."""
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    if order.conductor % p == 0:
        return DIVIDES_CONDUCTOR
    s = legendre(order.fundamental_discriminant, p)
    return SPLIT if s == 1 else (INERT if s == -1 else RAMIFIED)


def _embedding_bounds(order: RealQuadraticOrder) -> tuple[Fraction, Fraction, Fraction]:
    """Rational bounds (w_lo, w_hi, sqrt_disc_lo) for the positive embedding of w."""
    disc = order.discriminant
    s_hi, s_lo = sqrt_upper(disc), sqrt_lower(disc)
    t = order.trace_omega
    return (t + s_lo) / 2, (t + s_hi) / 2, s_lo


def _norm_search_bound(order: RealQuadraticOrder, p: int) -> int:
    """The |y| bound below which a solution must appear if any exists.

    Any element of norm +-p has a unit multiple whose two real embeddings
    lie in [-B, B] for B = sqrt(p * u0), u0 the fundamental unit value, so
    a solution exists iff one exists with |y| <= 2B/sqrt(disc).
    """
    u0 = fundamental_unit(order)
    _, w_hi, s_lo = _embedding_bounds(order)
    u0_hi = u0.x + u0.y * w_hi  # u0.y > 0, so this bounds the unit value above
    bound = sqrt_upper_frac(Fraction(p) * u0_hi)
    y_max = ceil(2 * bound / s_lo) + 1
    if y_max > 10**6:
        raise PreconditionError(
            f"norm-equation search for {p} in Q(sqrt({order.D})) needs a box "
            f"of {y_max} rows, over the limit of 10^6"
        )
    return y_max


def _norm_rows(maximal: RealQuadraticOrder, p: int):
    """The norm +-p elements of the maximal order inside the search box,
    one list per non-empty row, rows |y| = 1, 2, ... up to the search
    bound; in a row y = |y| comes before -|y|, norm p before -p.

    Up to sign and unit multiples these represent every solution.
    """
    y_max = _norm_search_bound(maximal, p)
    row = []
    for ay in range(1, y_max + 1):  # y = 0 would need x^2 = +-p, impossible
        for y in (ay, -ay):
            for target in (p, -p):
                row += _norm_solutions_for_y(maximal, y, target)
        if row:
            yield row
            row = []


def solve_norm(order: RealQuadraticOrder, p: int) -> OrderElement | None:
    """The canonical element of the order with norm +-p, or None.

    For the maximal order: scan the box rows |y| upward (_norm_rows) and
    return the solution with lexicographically least (|y|, |x|, signs) in
    the first non-empty row, the canonical representative. For conductor
    f > 1: every suborder solution is s*u**k for a box solution s of the
    maximal order and u its unit, and if s*u**k lies in the order so does
    s*u**(k-n0), u**n0 the suborder's unit. So the candidates are s*u**k
    with k the least exponent putting s*u**k in the order, found per seed
    by a discrete log modulo f (_unit_logs); only that hit is built
    exactly, by powering. The candidates and their canonical minimum are
    those of the full orbit.
    """
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    if order.conductor % p == 0:
        raise PreconditionError(f"{p} divides the conductor {order.conductor}")
    if order.conductor == 1:
        row = next(_norm_rows(order, p), None)
        return None if row is None else min(row, key=_canonical_key)
    f = order.conductor
    maximal = make_order(order.D, 1)
    unit = fundamental_unit(maximal)
    seeds = [el for row in _norm_rows(maximal, p) for el in row]
    candidates = []
    for seed, k in zip(seeds, _unit_logs(order, seeds, p)):
        if k is not None:
            hit = seed * unit**k
            candidates.append(order.element(hit.x, hit.y // f))
    if not candidates:
        return None
    return min(candidates, key=_canonical_key)


def _canonical_key(el: OrderElement) -> tuple[int, int, int, int]:
    return (abs(el.y), abs(el.x), 0 if el.y > 0 else 1, 0 if el.x >= 0 else 1)


def factor_prime(order: RealQuadraticOrder, p: int) -> tuple[OrderElement, OrderElement] | None:
    """Factor p = a1 * a2 with |norm(a1)| = |norm(a2)| = p, or None.

    a1 is the canonical solve_norm output and a2 the exact cofactor p / a1,
    which is a unit multiple of the conjugate of a1 and lies in the order.
    """
    a1 = solve_norm(order, p)
    if a1 is None:
        return None
    n = a1.norm()
    a2 = a1.conjugate() if n == p else -a1.conjugate()
    prod = a1 * a2
    assert prod == order.element(p, 0), "cofactor does not multiply back to p"
    assert abs(a2.norm()) == p
    return a1, a2


def are_associates_in_maximal(a: OrderElement, b: OrderElement) -> bool:
    """Whether a/b is a unit of the maximal order of the common field."""
    if a.is_zero() or b.is_zero():
        raise PreconditionError("zero element in associate test")
    if a.order.D != b.order.D:
        raise PreconditionError("elements lie in different fields")
    maximal = make_order(a.order.D, 1)
    ax, ay = a.maximal_coords()
    bx, by = b.maximal_coords()
    am = maximal.element(ax, ay)
    bm = maximal.element(bx, by)
    nb = bm.norm()
    num = am * bm.conjugate()  # a * conj(b) = (a/b) * norm(b)
    if num.x % nb or num.y % nb:
        return False
    q = maximal.element(num.x // nb, num.y // nb)
    return abs(q.norm()) == 1


def _reduce_bezout(c, k1, k2):
    """A deterministic, size-reduced solution c - m1*k1 - m2*k2 over the
    relation lattice.

    Gauss-reduce the rank-2 relation basis, size-reduce c against it by
    rounding, then take the minimum of the key over a small multiplier
    window around that point. Deterministic throughout; not in general the
    smallest solution.
    """

    def key(vec):
        return (max(abs(v) for v in vec), sum(abs(v) for v in vec), tuple(vec))

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def rounded(num: int, den: int) -> int:
        # nearest integer to num/den for den > 0, deterministic at ties
        return (2 * num + den) // (2 * den)

    b1, b2 = list(k1), list(k2)
    while True:  # Lagrange reduction in the Euclidean norm
        if dot(b1, b1) > dot(b2, b2):
            b1, b2 = b2, b1
        m = rounded(dot(b1, b2), dot(b1, b1))
        if m == 0:
            break
        b2 = [x - m * y for x, y in zip(b2, b1)]
    best = list(c)
    for b in (b2, b1):
        m = rounded(dot(best, b), dot(b, b))
        if m:
            best = [x - m * y for x, y in zip(best, b)]
    window = 2
    best_t = tuple(best)
    for m1 in range(-window, window + 1):
        for m2 in range(-window, window + 1):
            cand = tuple(best[r] - m1 * b1[r] - m2 * b2[r] for r in range(4))
            if key(cand) < key(best_t):
                best_t = cand
    return best_t


def bezout_conductor(
    a1: OrderElement, a2: OrderElement, order: RealQuadraticOrder
) -> tuple[OrderElement, OrderElement]:
    """Solve conductor = a1*b1 + a2*b2 in the order: a deterministic,
    size-reduced solution, not in general the smallest one.

    Raises PreconditionError when the conductor is not in the span, which
    happens exactly when the factors are associates.
    """
    f = order.conductor
    if a1.is_unit():
        return (a1.inverse_unit() * f, order.element(0, 0))
    if a2.is_unit():
        return (order.element(0, 0), a2.inverse_unit() * f)
    w = order.omega()
    gens = [a1, a1 * w, a2, a2 * w]
    g = freeze([[el.x for el in gens], [el.y for el in gens]])
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


def humbert_nonempty(disc: int, d: int) -> bool:
    """Whether disc is a square modulo 4d (0 counts as a square).

    Decided prime by prime on the factorization of 4d, by the Chinese
    remainder theorem: x^2 = disc has a root modulo q^e iff q^e | disc, or
    disc = q^v * r with v < e even, q not dividing r, and r a square modulo
    q^(e-v). For odd q that is the Legendre symbol (r/q) = 1, by Hensel
    lifting; for q = 2 it is r = 1 modulo 2^min(3, e-v).
    """
    if disc <= 0 or disc % 4 not in (0, 1):
        raise PreconditionError(f"invalid discriminant {disc}")
    if d < 1:
        raise PreconditionError(f"invalid degree root {d}")
    for q, e in factorize(4 * d).items():
        v, r = 0, disc
        while v < e and r % q == 0:
            v, r = v + 1, r // q
        if v == e:
            continue
        if v % 2:
            return False
        if q == 2:
            if r % (1 << min(3, e - v)) != 1:
                return False
        elif legendre(r, q) != 1:
            return False
    return True
