"""Small exact integer helpers: primality (exact to psi_13, see is_prime),
factorization, square parts, and decimal text of integers and rationals of
any length, both ways, in subquadratic time whatever the interpreter's
int/str digit limit: the built-in conversions only up to 617 digits, where
no limit applies, and divide and conquer above."""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from functools import lru_cache
from itertools import count
from math import gcd

from .errors import PreconditionError

# Miller-Rabin witnesses and the trial divisors of is_prime: the primes to 43.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# factorize trial-divides below this bound and splits larger cofactors by rho.
_TRIAL_BOUND = 1000
# 2, 3 and each 6k+-1 below the bound: every prime below it, and some composites.
_TRIAL_DIVISORS = (2, 3) + tuple(p for f in range(5, _TRIAL_BOUND, 6) for p in (f, f + 2))
# Pollard-Brent rho gives up on a cofactor after this many steps of its map.
_RHO_BUDGET = 1 << 22


def is_prime(n: int) -> bool:
    """Strong probable-prime test to the prime bases 2..43: exact for every
    n <= psi_13 = 3317044064679887385961981, the least strong pseudoprime
    to the bases 2..41, which fails base 43 (Sorenson and Webster 2015);
    a 14-base probable-prime test above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=4096, typed=True)
def require_odd_prime(p: int) -> None:
    """Refuse p unless it is an odd prime. A bounded process-wide cache
    proves each prime once; a refusal raises and is not kept."""
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"{int_text(p)} is not an odd prime")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, {prime: exponent}.

    One trial pass divides by 2, 3 and 6k+-1 below _TRIAL_BOUND while
    p^2 <= n, with no primality test. Every part left after it has no prime
    below the bound, so a part below _TRIAL_BOUND^2 is prime untested; a
    larger part takes one is_prime and, if composite, is split by
    Pollard-Brent rho, both halves going back on the worklist. Rho raises
    PreconditionError when _RHO_BUDGET steps find no divisor: a product of
    two primes near 10^24 is refused in seconds rather than run for years.
    """
    if n < 1:
        raise ValueError(f"cannot factor {int_text(n)}")
    out: dict[int, int] = {}
    for p in _TRIAL_DIVISORS:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent_divisor(m)
            parts += (m // d, d)
    return out


def _brent_divisor(n: int) -> int:
    """A proper divisor of an odd composite n, by Pollard-Brent rho.

    Deterministic: the map y -> y^2 + c runs with c = 1, 2, ... until a run
    ends with a proper divisor. Products of 128 differences share one gcd.
    A round of r steps is charged 2r against _RHO_BUDGET before it starts.
    """
    budget = _RHO_BUDGET
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise PreconditionError(
                    f"cannot factor {int_text(n)}: Pollard-Brent rho found no "
                    f"divisor in {_RHO_BUDGET} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(e == 1 for e in factorize(n).values())


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, in {-1, 0, 1}."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def sqrt_mod(a: int, p: int) -> int:
    """The smaller square root of a modulo an odd prime p, by Tonelli-Shanks.

    Raises ValueError when a is not a square mod p.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in count(2) if legendre(z, p) == -1)
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then 0 < i < s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return min(r, p - r)


def int_text(v: int) -> str:
    """Decimal text of v of any size: the built-in conversion up to
    _LEAF_BITS bits, and above it a decimal.Decimal built by divide and
    conquer on powers of two, in subquadratic time whatever the
    interpreter's int/str digit limit (the built-in one is quadratic)."""
    if v.bit_length() <= _LEAF_BITS:
        return str(v)
    if v < 0:
        return "-" + int_text(-v)
    return format(_int_decimal(v), "f")


def rational_text(n: int, d: int) -> str:
    """Text of the rational n/d, d > 0, as str(Fraction(n, d)) writes it,
    "n" or "n/d" in lowest terms, of any size: int_text for each part."""
    g = gcd(n, d)
    text = int_text(n // g)
    return text if d == g else text + "/" + int_text(d // g)


# The size up to which int_text and _text_int use the built-in conversions,
# and the leaves of _int_decimal: n below 2^_LEAF_BITS has at most 617
# digits, within any int/str digit limit (640 is the least one accepted).
_LEAF_BITS = 2048
_LEAF_DIGITS = 617


def _int_decimal(n: int) -> Decimal:
    """n >= 0 as an exact Decimal: n = hi * 2^k + lo with k = _LEAF_BITS * 2^i,
    the largest such k below n's bit length, each 2^k built once by squaring.
    decimal multiplies big coefficients by a number-theoretic transform, so
    this is subquadratic; CPython 3.12's Lib/_pylong.py (gh-90716) converts
    the same way. A rounding would raise, never give a wrong digit."""
    ctx = Context(
        prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded]
    )
    powers = [Decimal(1 << _LEAF_BITS)]  # powers[i] = 2^(_LEAF_BITS * 2^i)

    def build(n: int) -> Decimal:
        bits = n.bit_length()
        if bits <= _LEAF_BITS:
            return Decimal(n)
        i = ((bits - 1) // _LEAF_BITS).bit_length() - 1
        while len(powers) <= i:
            powers.append(ctx.multiply(powers[-1], powers[-1]))
        hi = n >> (_LEAF_BITS << i)
        lo = n - (hi << (_LEAF_BITS << i))
        return ctx.add(ctx.multiply(build(hi), powers[i]), build(lo))

    return build(n)


def _text_int(text: str) -> int:
    """The integer a -?[0-9]+ text writes, of any length: the built-in
    conversion up to _LEAF_DIGITS characters, and above it halves of the
    text joined by powers of ten, each computed once per split size."""
    if len(text) <= _LEAF_DIGITS:
        return int(text, 10)
    if text.startswith("-"):
        return -_text_int(text[1:])
    powers: dict[int, int] = {}

    def join(digits: str) -> int:
        if len(digits) <= _LEAF_DIGITS:
            return int(digits, 10)
        k = len(digits) // 2
        power = powers.get(k)
        if power is None:
            power = powers[k] = 10**k
        return join(digits[:-k]) * power + join(digits[-k:])

    return join(text)
