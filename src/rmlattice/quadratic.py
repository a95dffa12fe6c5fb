"""Exact arithmetic in real quadratic orders.

An order of conductor f in Q(sqrt(D)) is Z[w] for the generator
w = f*w1, where w1 = sqrt(D) if D = 2, 3 (mod 4) and w1 = (1+sqrt(D))/2
if D = 1 (mod 4). Scaling the generator linearly with the conductor means
that the generator of the conductor-f order is exactly f/g times the
generator of the conductor-g suborder, which the lattice algorithms rely
on. Elements are stored as integer pairs (x, y) meaning x + y*w.

Besides element arithmetic this module provides prime splitting, the
fundamental unit, norm equations, prime factorization into norm +-p
elements, a conductor Bezout identity for non-associate factors, solved
on a two-row Hermite form, and the Humbert congruence test. One walk
around a cycle of reduced forms, ideal_generator, gives both the unit,
from the cycle of the principal form, and the generator of a prime above
p, or a proof that there is none, from the cycle of the prime's norm
form; nothing scans a box. It keeps only the forms and the rho quotients,
building the generator from them once it finds one. A cycle is about
sqrt(disc) long, so a walk stops after _WALK_BUDGET rho steps with a
PreconditionError naming D and the budget. A norm +-p element generates
such a prime, and every other solution is a unit multiple of it or of its
conjugate.
In a suborder of odd conductor f the question reduces to the group
G = (O_F/f)^*/(Z/f)^*: the suborder's unit is u**n0, n0 the order of u
in G read off |G| = prod over q^e || f of q^(e-1)*(q - (d_F/q)), and the
generator reaches the suborder at the exponents k0 + n0*Z, k0 found by a
baby-step giant-step discrete log modulo f. The canonical solution, the
least |y| on that progression, is placed from the sizes of the
embeddings, so only one or two unit powers are built exactly. A baby-step
table past _TABLE_BUDGET entries and a unit power past about _POWER_BITS
bits are refused before they are built.

Seven pure functions of immutable values keep their results per process,
each in an unbounded functools.lru_cache: make_order (so each D is
factored once), fundamental_unit, _unit_index, _baby_steps, solve_norm
(so each prime's norm equation is solved once per order, however many
runs of generate, principalize and replay ask for it), norm_solvable and
_roots_mod_p (so each eigen-sublattice pull-back at a repeated (order, p)
takes its square root mod p once). factor_prime stays a thin uncached
wrapper, so every request still passes through solve_norm. make_order,
solve_norm, norm_solvable and _roots_mod_p key on argument types too
(typed=True); a refusal raises and is never kept.

Record, the base of the package's six value types, is defined here, in
the lowest module that defines one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import floor, isqrt, log
from operator import attrgetter

from .arith import factorize, int_text, is_squarefree, legendre, require_odd_prime, sqrt_mod
from .errors import PreconditionError

# A walk along reduced forms gives up after this many rho steps. A cycle is
# about sqrt(disc) long, so without a bound D near 10^18 would walk for days.
_WALK_BUDGET = 1 << 18
# A discrete log modulo the conductor f gives up rather than fill a table of
# more than this many entries. The table holds about sqrt(f) residues, so
# without a bound f near 10^20 would ask for 10^10 of them.
_TABLE_BUDGET = 1 << 18
# solve_norm and fundamental_unit give up rather than build a unit power of
# more than about this many bits. The power's exponent is at most n0, which is
# near f for a prime conductor, so without a bound f near 10^10 would ask for
# 5*10^9 bits.
_POWER_BITS = 1 << 23

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"
DIVIDES_CONDUCTOR = "divides_conductor"


class Record:
    """An immutable value whose fields, named in `_fields`, are its whole value.

    A subclass lists its fields (two or more) in `_fields` and `__slots__`,
    and `_setters` holds each field's slot setter, one tuple per class. The
    class's __init__ is built once from `_fields`, as namedtuple builds its
    __new__: one generated def that takes the fields in order and calls
    each setter in turn, without building the field tuple. Fields named in
    `_optional` default to None and make every field keyword-only.
    Equality and hashing are over the field tuple, which a per-class
    attrgetter reads in one C call; they hold between instances of the same
    class only. Assignment and deletion raise AttributeError; pickle and
    copy rebuild an instance from its field tuple through __setstate__. (A
    dataclass would import inspect with it.)
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _optional: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = cls._fields
        cls._key = attrgetter(*names)
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        params = ", ".join(f"{name}=None" if name in cls._optional else name for name in names)
        calls = "".join(f"\n    _set_{name}(self, {name})" for name in names)
        namespace = {f"_set_{name}": set_field for name, set_field in zip(names, cls._setters)}
        exec(f"def __init__(self, {'*, ' * bool(cls._optional)}{params}):{calls}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._key(self)

    def __setstate__(self, values: tuple) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)


class RealQuadraticOrder(Record):
    """The order of conductor `conductor` in Q(sqrt(D)).

    trace_omega and norm_omega are the trace and norm of the generator, so
    the generator satisfies x^2 - trace_omega*x + norm_omega = 0 and the
    discriminant is trace_omega^2 - 4*norm_omega = conductor^2 * d_F.
    """

    __slots__ = _fields = (
        "D", "conductor", "fundamental_discriminant", "discriminant", "trace_omega", "norm_omega"
    )

    def element(self, x: int, y: int) -> "OrderElement":
        return OrderElement(self, x, y)

    def one(self) -> "OrderElement":
        return OrderElement(self, 1, 0)

    def omega(self) -> "OrderElement":
        return OrderElement(self, 0, 1)

    def __repr__(self) -> str:
        return f"RealQuadraticOrder(D={self.D}, conductor={self.conductor})"


@lru_cache(maxsize=None, typed=True)
def make_order(D: int, conductor: int = 1) -> RealQuadraticOrder:
    """Construct the order of the given conductor in Q(sqrt(D)).

    D and conductor must be of type int exactly: a float or a bool would
    become a field of the order (5.0, or a conductor True that the writer
    would not turn into a JSON integer).
    """
    if type(D) is not int or type(conductor) is not int:
        raise PreconditionError(
            f"D and conductor must be integers, got {type(D).__name__} "
            f"and {type(conductor).__name__}"
        )
    if D < 2 or not is_squarefree(D):
        raise PreconditionError(f"D = {int_text(D)} must be a squarefree integer >= 2")
    if conductor < 1:
        raise PreconditionError(f"conductor must be >= 1, got {int_text(conductor)}")
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


class OrderElement(Record):
    """x + y*w relative to a fixed real quadratic order with generator w."""

    __slots__ = _fields = ("order", "x", "y")

    def __add__(self, other: "OrderElement") -> "OrderElement":
        self._check_same_order(other)
        return OrderElement(self.order, self.x + other.x, self.y + other.y)

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
        if k < 0:
            raise PreconditionError(f"exponent k = {int_text(k)} must be >= 0")
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


@lru_cache(maxsize=None)
def fundamental_unit(order: RealQuadraticOrder) -> OrderElement:
    """The smallest unit > 1 of the order itself (not of the maximal order).

    For the maximal order, the generator ideal_generator finds for the
    order as an ideal, walked from the principal form (1, B, C), B the
    largest integer below sqrt(disc) of the parity of disc. The next form
    with |A| = 1 on the cycle puts a unit of norm A first in the basis, and
    it is the fundamental unit up to sign and conjugation; of those four
    the one > 1 has trace and y both positive. The work is linear in the
    cycle, which is O(sqrt(disc) log disc), however large the unit is; past
    _WALK_BUDGET rho steps the walk refuses the field.

    For an odd conductor f > 1 the unit group is the cyclic subgroup of
    maximal-order units landing in the order, so the answer is u**n0 for
    n0 the order of the class of u in (O_F/f)^*/(Z/f)^*, from _unit_index
    (which refuses an even f). A power past _POWER_BITS bits, its size
    n0 log2(u) read from the embeddings as solve_norm reads it, is refused
    unbuilt.
    """
    f = order.conductor
    if f > 1:
        unit = fundamental_unit(make_order(order.D, 1))
        n0 = _unit_index(order)
        if n0 * _log_embeddings(unit)[0] / log(2) > _POWER_BITS:
            raise PreconditionError(
                f"the fundamental unit of the conductor {int_text(f)} order of "
                f"Q(sqrt({int_text(order.D)})) is the maximal order's unit to the power "
                f"{n0}, past the budget of {_POWER_BITS} bits"
            )
        power = unit**n0
        return order.element(power.x, power.y // f)
    t, disc = order.trace_omega, order.discriminant
    s = isqrt(disc)
    b = s if (disc - s) % 2 == 0 else s - 1  # b, disc and t share a parity
    unit = ideal_generator(order, 1, (b - t) // 2)
    a, y = 2 * unit.x + t * unit.y, unit.y  # the unit is (a + y*sqrt(disc))/2
    return order.element((abs(a) - t * abs(y)) // 2, abs(y))


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


@lru_cache(maxsize=None)
def _unit_index(order: RealQuadraticOrder) -> int:
    """The least n0 >= 1 with u**n0 in the order, u the maximal order's unit.

    n0 is the order of the class of u in G = (O_F/f)^*/(Z/f)^*, whose size
    is |G| = prod over q^e || f of q^(e-1)*(q - (d_F/q)) for odd f; an even
    f raises PreconditionError, the one refusal of fundamental_unit and
    solve_norm. n0 divides |G|, so it is |G| with each prime stripped for
    as long as the power of u stays a scalar modulo f: O(log^2 f) modular
    powers once |G| is factored.
    """
    f = order.conductor
    if f % 2 == 0:
        raise PreconditionError(f"conductor {int_text(f)} must be odd")
    maximal = make_order(order.D, 1)
    u = _residue(fundamental_unit(maximal), f)
    n0 = 1
    for q, e in factorize(f).items():
        n0 *= q ** (e - 1) * (q - legendre(order.fundamental_discriminant, q))
    for q in factorize(n0):
        while n0 % q == 0 and _pow_mod(maximal, u, n0 // q, f)[1] == 0:
            n0 //= q
    return n0


@lru_cache(maxsize=None)
def _baby_steps(order: RealQuadraticOrder):
    """(maximal, table, giant) for discrete logs base rho mod an odd f.

    rho = u/conj(u) = N(u)*u^2 for u the residue of the maximal order's
    unit. The map z -> z/conj(z) kills (Z/f)^*, so it is defined on G, and
    for odd f it is one-to-one there, so rho has the order n0 of u. The
    table maps rho**j to j for j < m = ceil(sqrt(n0)), m distinct powers as
    m <= n0, and giant is the matrix of multiplication by
    rho**(-m) = conj(rho**m). A table past _TABLE_BUDGET is refused unfilled.
    """
    f = order.conductor
    m = isqrt(_unit_index(order) - 1) + 1
    if m > _TABLE_BUDGET:
        raise PreconditionError(
            f"the discrete log modulo the conductor {int_text(f)} of "
            f"Q(sqrt({int_text(order.D)})) needs a table of {m} entries, "
            f"past its budget of {_TABLE_BUDGET}"
        )
    maximal = make_order(order.D, 1)
    unit = fundamental_unit(maximal)
    u = _residue(unit, f)
    x, y = _mul_mod(maximal, u, u, f)
    rho = (x * unit.norm() % f, y * unit.norm() % f)
    table = {}
    power = (1, 0)
    for j in range(m):
        table[power] = j
        power = _mul_mod(maximal, power, rho, f)
    # giant = conj(power) = gx + gy*w, kept as the matrix of z -> z*giant
    x, y = power
    gx, gy = (x + maximal.trace_omega * y) % f, -y % f
    giant = (gx, -maximal.norm_omega * gy % f, gy, (gx + maximal.trace_omega * gy) % f)
    return maximal, table, giant


def _unit_log(order: RealQuadraticOrder, seed: OrderElement) -> int | None:
    """The least k < n0 with seed * u**k in the order, or None.

    seed is an element of the maximal order whose norm is coprime to the
    odd conductor f. seed*u**k lies in the order exactly when its class in
    G is trivial, that is, as z -> z/conj(z) is one-to-one on G for odd f,
    when rho**k = conj(seed)/seed = conj(seed)^2/N(seed) mod f.
    Baby-step giant-step (Shanks 1971) finds the least such k in
    O(sqrt(n0)) products.
    """
    maximal, table, giant = _baby_steps(order)
    f, t, n = order.conductor, maximal.trace_omega, maximal.norm_omega
    a, b, c, d = giant
    m = len(table)
    cx, cy = seed.x + t * seed.y, -seed.y  # conj(seed)
    scale = pow(seed.norm(), -1, f)
    x, y = (cx * cx - n * cy * cy) * scale % f, (2 * cx + t * cy) * cy * scale % f
    for i in range(m):
        j = table.get((x, y))
        if j is not None:
            return i * m + j
        x, y = (x * a + y * b) % f, (x * c + y * d) % f
    return None


def splitting_type(order: RealQuadraticOrder, p: int) -> str:
    """Behavior of an odd prime: split, inert, ramified, or divides_conductor."""
    require_odd_prime(p)
    if order.conductor % p == 0:
        return DIVIDES_CONDUCTOR
    s = legendre(order.fundamental_discriminant, p)
    return SPLIT if s == 1 else (INERT if s == -1 else RAMIFIED)


@lru_cache(maxsize=None, typed=True)
def _roots_mod_p(order: RealQuadraticOrder, p: int) -> tuple[int, int]:
    """The roots (t + s)/2 and (t - s)/2 of X^2 - tX + n modulo an odd
    prime p that does not stay inert, s = sqrt_mod(disc, p)."""
    t, s, half = order.trace_omega, sqrt_mod(order.discriminant, p), (p + 1) // 2
    return (t + s) * half % p, (t - s) * half % p


def ideal_generator(order: RealQuadraticOrder, a: int, b: int) -> OrderElement | None:
    """A generator of the ideal with Hermite basis (a, b + w), or None.

    The one walk around a cycle of reduced forms. a > 0 must divide
    N(b + w), and the ideal's norm form must be primitive, as it is for a
    prime a. On a basis (alpha, beta) of the ideal the form
    N(x*alpha + y*beta)/a is (A, B, C), starting from (a, 2b + t,
    N(b + w)/a), so alpha has norm A*a. Each rho step (Cohen, A Course in
    Computational Algebraic Number Theory, §5.6 and §5.8) takes (A, B, C)
    to (C, r, (r^2 - disc)/4C), r = -B modulo 2C in the normalized range,
    and the basis to (beta, q*beta - alpha), q = (B + r)/2C. From any form
    these steps reach a reduced one, |sqrt(disc) - 2|A|| < B < sqrt(disc),
    and then run around the cycle of the reduced forms properly equivalent
    to it. The walk keeps only the forms and the quotients q; at the first
    form after the start with |A| = 1 it folds them into the basis, and
    alpha, of norm +-a, generates the ideal. A principal ideal's cycle
    holds a form (+-1, B, C), so a walk back at its first reduced form
    returns None, and one past _WALK_BUDGET rho steps raises
    PreconditionError naming D and the budget; neither builds an element.
    The walk is linear in the cycle, which is bounded by the regulator.
    """
    t, disc = order.trace_omega, order.discriminant
    s = isqrt(disc)  # disc is not a square, so sqrt(disc) is never an integer
    A, B, C = form = (a, 2 * b + t, (b * b + t * b + order.norm_omega) // a)
    quotients = []
    first = None
    for steps in count():
        if steps and abs(A) == 1:
            (ax, ay), (bx, by) = (a, 0), (b, 1)
            for q in quotients:
                (ax, ay), (bx, by) = (bx, by), (q * bx - ax, q * by - ay)
            return order.element(ax, ay)
        if 0 < B <= s < B + 2 * abs(A) and 2 * abs(A) - B <= s:  # reduced
            if first is None:
                first = form
            elif form == first:
                return None
        if steps == _WALK_BUDGET:
            raise PreconditionError(
                f"the walk along reduced forms of Q(sqrt({int_text(order.D)})) "
                f"passed its budget of {steps} rho steps"
            )
        c2 = 2 * abs(C)
        if abs(C) > s:  # |C| > sqrt(disc): -|C| < r <= |C|
            r = -B % c2
            if r > abs(C):
                r -= c2
        else:  # sqrt(disc) - 2|C| < r < sqrt(disc)
            r = s - (s + B) % c2
        quotients.append((B + r) // (2 * C))
        A, B, C = form = (C, r, (r * r - disc) // (4 * C))


def _log_embeddings(el: OrderElement) -> tuple[float, float]:
    """(log|sigma1(el)|, log|sigma2(el)|) for el of nonzero norm, sigma1
    sending sqrt(disc) to the positive root.

    sigma = (a +- y*sqrt(disc))/2 with a = 2x + t*y, so the larger absolute
    value is (|a| + |y|*sqrt(disc))/2, a sum without cancellation, taken
    from integers scaled by 2^64; the smaller is |norm| over it.
    """
    t, disc = el.order.trace_omega, el.order.discriminant
    a = 2 * el.x + t * el.y
    big = log(abs(a) * 2**64 + isqrt(el.y * el.y * disc * 2**128)) - 65 * log(2)
    small = log(abs(el.norm())) - big
    return (big, small) if a * el.y >= 0 else (small, big)


def _least_y_exponents(gen: OrderElement, unit: OrderElement, k0: int, n0: int) -> list[int]:
    """The exponents k = k0 (mod n0) that can give the least |y(gen*u**k)|.

    u = unit > 1. Along a progression k = start + j*step with N(u**step) =
    1, the embeddings of gen*u**k are A*e^tau and B*e^-tau for fixed A, B
    and tau = k*log(u), so |y| = |A*e^tau - B*e^-tau|/sqrt(disc) is a |sinh|
    or a cosh about the balance point log|B/A|/2: symmetric about it and
    increasing away from it. Its least value on the progression is at the
    j nearest the balance point. An exact tie, the balance point at a
    midpoint, pairs an element with plus or minus its conjugate, which the
    caller takes anyway. j is located in floating point, with a rounding
    error of a few units in the last place of the logarithms involved;
    when the balance point lies within a slack a million times that of a
    midpoint, both neighbours are returned and the caller compares them
    exactly, so rounding never picks the farther one.
    When N(u**n0) = -1 the progression k0 + n0*Z splits into two, of step
    2*n0, starting at k0 and at k0 + n0.
    """
    l1, l2 = _log_embeddings(gen)
    balance = (l2 - l1) / (2 * _log_embeddings(unit)[0])
    if unit.norm() == 1 or n0 % 2 == 0:
        starts, step = (k0,), n0
    else:
        starts, step = (k0, k0 + n0), 2 * n0
    out = []
    for start in starts:
        j = balance / step - start / step
        near = floor(j + 0.5)
        out.append(start + step * near)
        slack = 1e-9 * (1 + abs(l1) + abs(l2) + abs(j))
        if abs(abs(j - near) - 0.5) < slack:
            out.append(start + step * (near + 1 if j > near else near - 1))
    return out


@lru_cache(maxsize=None, typed=True)
def solve_norm(order: RealQuadraticOrder, p: int) -> OrderElement | None:
    """The canonical element of the order with norm +-p, or None.

    Canonical means least in (|y|, |x|, y < 0, x < 0) (_canonical_key)
    among all elements of the order of norm +-p. Each of them generates a
    prime of the maximal order above p, so it is +-g*u**k or its conjugate,
    g the generator ideal_generator gives of (p, w - r), r a root of
    X^2 - tX + n modulo p, and u the maximal order's unit; there is none
    when p is inert or that prime is not principal. Such an element lies
    in the order of odd conductor f (_unit_index refuses an even one) exactly
    for k = k0 (mod n0), k0 from the discrete log _unit_log and u**n0 the
    suborder's unit (k0 = 0 and n0 = 1 for the maximal order).
    _least_y_exponents places the least |y| on that progression from the
    sizes of the embeddings; only those one or two powers per progression
    are built, and the minimum over them, their negatives and their
    conjugates is taken exactly; a power past _POWER_BITS bits, its size read
    from the embeddings, is refused unbuilt.
    """
    require_odd_prime(p)
    f = order.conductor
    if f % p == 0:
        raise PreconditionError(f"{int_text(p)} divides the conductor {int_text(f)}")
    maximal = order if f == 1 else make_order(order.D, 1)
    if legendre(maximal.discriminant, p) == -1:
        return None
    gen = ideal_generator(maximal, p, -_roots_mod_p(maximal, p)[0])
    if gen is None:
        return None
    k0, n0 = 0, 1
    if f > 1:
        k0 = _unit_log(order, gen)
        if k0 is None:
            return None
        n0 = _unit_index(order)
    unit = fundamental_unit(maximal)
    unit_bits = _log_embeddings(unit)[0] / log(2)
    candidates = []
    for k in _least_y_exponents(gen, unit, k0, n0):
        if abs(k) * unit_bits > _POWER_BITS:
            raise PreconditionError(
                f"the norm ±{int_text(p)} element of the conductor {int_text(f)} order "
                f"of Q(sqrt({int_text(order.D)})) needs the fundamental unit to the power "
                f"{abs(k)}, past the budget of {_POWER_BITS} bits"
            )
        power = unit ** abs(k)  # u**k up to sign: u**-1 = N(u)*conj(u)
        hit = gen * (power if k >= 0 else power.conjugate())
        el = order.element(hit.x, hit.y // f)
        candidates += [el, -el, el.conjugate(), -el.conjugate()]
    return min(candidates, key=_canonical_key)


@lru_cache(maxsize=None, typed=True)
def norm_solvable(order: RealQuadraticOrder, p: int) -> bool:
    """solve_norm(order, p) is not None, for an odd prime p prime to the
    conductor, decided without building the element: in a suborder, by the
    discrete log of the maximal order's solution (+-g*u**k or its conjugate)."""
    a1 = solve_norm(make_order(order.D, 1), p)
    return a1 is not None and (order.conductor == 1 or _unit_log(order, a1) is not None)


def _canonical_key(el: OrderElement) -> tuple[int, int, int, int]:
    return (abs(el.y), abs(el.x), 0 if el.y > 0 else 1, 0 if el.x >= 0 else 1)


def factor_prime(order: RealQuadraticOrder, p: int) -> tuple[OrderElement, OrderElement] | None:
    """Factor p = a1 * a2 with |norm(a1)| = |norm(a2)| = p, or None.

    a1 is the canonical solve_norm output and a2 the exact cofactor p / a1:
    a1 * conj(a1) = N(a1) = +-p, so a2 is conj(a1) or its negative, by the
    sign of N(a1), which prime_norm reads mod 4.
    """
    a1 = solve_norm(order, p)
    if a1 is None:
        return None
    if prime_norm(a1, p) == p:
        return a1, a1.conjugate()
    return a1, -a1.conjugate()


def prime_norm(el: OrderElement, p: int) -> int:
    """The norm of an element whose norm is +-p, for an odd prime p: p and
    -p differ mod 4, so the sign is read from the norm form mod 4, without
    the full-size norm."""
    x, y = el.x % 4, el.y % 4
    t, n = el.order.trace_omega % 4, el.order.norm_omega % 4
    return p if (x * x + t * x * y + n * y * y - p) % 4 == 0 else -p


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

    The columns of G = (a1, a1*w, a2, a2*w), as (x, y) pairs, span the
    ideal a1*O + a2*O. Column Euclid on the y row and then on the x row,
    tracked in a unimodular V, leaves G*V with columns (h, g_y), (g_x, 0),
    0, 0: a Hermite form of the ideal. So (f, 0) is in the span exactly
    when g_y != 0 and g_x divides f, the solution (f/g_x)*V[:, 1] is
    unique up to the relations V[:, 2] and V[:, 3], and _reduce_bezout
    size-reduces it against them.

    Raises PreconditionError when the conductor is not in the span, which
    happens exactly when the factors are associates.
    """
    f = order.conductor
    if a1.is_unit():
        return (a1.inverse_unit() * f, order.element(0, 0))
    if a2.is_unit():
        return (order.element(0, 0), a2.inverse_unit() * f)
    w = order.omega()
    # each column is (x, y) of G over the matching column of V
    cols = [
        [el.x, el.y] + [int(i == j) for i in range(4)]
        for j, el in enumerate((a1, a1 * w, a2, a2 * w))
    ]
    for row, pivot in ((1, 0), (0, 1)):  # the y row into column 0, the x row into 1
        for j in range(pivot + 1, 4):
            u, v = cols[pivot], cols[j]
            while v[row]:
                k = u[row] // v[row]
                u, v = v, [a - k * b for a, b in zip(u, v)]
            cols[pivot], cols[j] = u, v
    g_y, g_x = cols[0][1], cols[1][0]
    if g_y == 0 or f % g_x:
        raise PreconditionError(
            "conductor is not in the span of the factors (associate factors)"
        )
    c = _reduce_bezout([f // g_x * v for v in cols[1][2:]], cols[2][2:], cols[3][2:])
    b1 = order.element(c[0], c[1])
    b2 = order.element(c[2], c[3])
    assert a1 * b1 + a2 * b2 == order.element(f, 0)
    return b1, b2


def humbert_holds(disc: int, factors: dict[int, int]) -> bool:
    """Whether disc is a square modulo 4d (0 counts as a square), given the
    factorization {q: e} of d >= 1. Callers pass the factorization they
    hold, so nothing here factors d.

    Decided prime by prime on the factorization of 4d, by the Chinese
    remainder theorem: x^2 = disc has a root modulo q^e iff q^e | disc, or
    disc = q^v * r with v < e even, q not dividing r, and r a square modulo
    q^(e-v). For odd q that is the Legendre symbol (r/q) = 1, by Hensel
    lifting; for q = 2 it is r = 1 modulo 2^min(3, e-v).
    """
    if disc <= 0 or disc % 4 not in (0, 1):
        raise PreconditionError(f"invalid discriminant {int_text(disc)}")
    for q, e in {**factors, 2: factors.get(2, 0) + 2}.items():
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
