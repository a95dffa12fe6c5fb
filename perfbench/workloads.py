"""Request lists for each workload, built from the workload seed alone.

A request is one chain: generate an instance of order conductor `f` in
Q(sqrt(D)) with degree prod(p^2) over `primes`, principalize it and verify
its certificate. `build(workload, seed, passes)` returns the passes of a
run, each a list of requests.

The shapes of a pass, (D, f, primes), are fixed per workload: drawn once
from a constant seed where a workload is random, so every run has the same
mix. The workload seed picks each request's instance seed (the
twist/pullback choices and the unimodular scramble, so every seed gives
different matrices and certificates) and the order of each pass. Costs
still vary with the instance, so every pass draws new instances and a run
reports per-shape medians over its passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rmlattice import quadratic
from rmlattice.arith import is_prime


@dataclass(frozen=True)
class Request:
    D: int
    f: int
    primes: tuple[int, ...]
    gen_seed: int
    shape: int  # index of (D, f, primes) in the workload's shape list

    def label(self) -> str:
        primes = ",".join(map(str, self.primes)) or "-"
        return f"D={self.D} f={self.f} primes={primes} seed={self.gen_seed}"


def _reducible(D: int, p: int) -> bool:
    """p is an odd prime with a norm +-p element in the maximal order.

    Every field used here has class number one, so that holds exactly when
    p splits or ramifies.
    """
    maximal = quadratic.make_order(D, 1)
    return quadratic.splitting_type(maximal, p) != quadratic.INERT


def pool() -> list[tuple]:
    """The 158 chains of the acceptance corpus, D in {2,3,5,13,17}, f in {1,3,7,9}.

    Per field and conductor: each usable prime of 3..31 alone, each pair of
    neighbours, and the smallest with the largest.
    """
    fields, conductors = (2, 3, 5, 13, 17), (1, 3, 7, 9)
    pool = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    shapes = []
    for D in fields:
        maximal = quadratic.make_order(D, 1)
        usable = [p for p in pool if quadratic.factor_prime(maximal, p) is not None]
        for f in conductors:
            primes = [p for p in usable if f % p]
            combos = [(p,) for p in primes]
            combos += list(zip(primes, primes[1:]))
            if len(primes) >= 2:
                combos.append((primes[0], primes[-1]))
            shapes += [(D, f, c) for c in combos]
    return shapes


CONDUCTORS = sorted(
    3**a * 5**b * 7**c * 11**d
    for a in range(10)
    for b in range(7)
    for c in range(6)
    for d in range(5)
    if 100 <= 3**a * 5**b * 7**c * 11**d <= 20000
)


def conductor() -> list[tuple]:
    """Every fourth conductor 3^a 5^b 7^c 11^d in [100, 20000], with 0-2 small primes.

    35 chains, so that a run has room for three passes. Each conductor gets
    a field and primes from 13..43 (reducible, coprime to f); the number of
    primes cycles 0, 1, 2 along the conductor list.
    """
    rng = random.Random("conductor shapes")
    fields = (2, 3, 5, 13, 17)
    out = []
    for i, f in enumerate(CONDUCTORS[::4]):
        D = rng.choice(fields)
        usable = [p for p in range(13, 44) if is_prime(p) and f % p and _reducible(D, p)]
        out.append((D, f, tuple(rng.sample(usable, i % 3))))
    return out


def _prime_near(rng: random.Random, lo: int, hi: int, D: int, avoid=()) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if p % 2 and p not in avoid and is_prime(p) and _reducible(D, p):
            return p


def _small_primes(rng: random.Random, usable, k: int, cap: int) -> tuple[int, ...]:
    """k distinct primes from `usable` with product <= cap, fewer if no draw fits."""
    while True:
        for _ in range(100):
            primes = tuple(sorted(rng.sample(usable, k)))
            prod = 1
            for p in primes:
                prod *= p
            if prod <= cap:
                return primes
        k -= 1


def numtheory() -> list[tuple]:
    """Large or many degree primes over D in {5,13,17,29,41,46}, f in {1,3}.

    20 single primes, log-uniformly stratified over [10^3, 3*10^5]; 20 pairs
    in [30, 2000]; 20 sets of 3-5 distinct primes <= 60. Pfaffians stay
    <= 2*10^6.
    """
    rng = random.Random("numtheory shapes")
    fields = (5, 13, 17, 29, 41, 46)
    cap = 2 * 10**6
    out = []
    for i in range(60):
        D = fields[i % len(fields)]
        f = 1 if (i // len(fields)) % 2 == 0 else 3
        avoid = {3} if f == 3 else set()
        kind, k = divmod(i, 20)
        if kind == 0:
            lo = int(1000 * 300 ** (k / 20))
            hi = int(1000 * 300 ** ((k + 1) / 20))
            primes = (_prime_near(rng, lo, hi, D, avoid),)
        elif kind == 1:
            a = _prime_near(rng, 30, 2000, D, avoid)
            b = _prime_near(rng, 30, min(2000, cap // a), D, avoid | {a})
            primes = (a, b)
        else:
            usable = [p for p in range(3, 61) if is_prime(p) and p not in avoid and _reducible(D, p)]
            primes = _small_primes(rng, usable, 3 + k % 3, cap)
        out.append((D, f, primes))
    return out


def cli() -> list[tuple]:
    """Pool-like chains plus the large-unit fields D=46 and D=94.

    Eight pool requests, one over D=46 and four over D=94 (f = 3, one small
    prime each). A D=94 command pays the unit search, about three times a
    cold start, so the median of the 13 shapes lies among the cheap ones,
    away from the edge between the two groups, where it would be noisy, and
    the D=94 commands show in chains_per_s. All D=94 requests share f = 3
    so that their commands cost alike.
    """
    rng = random.Random("cli shapes")
    out = rng.sample(pool(), 8)
    for D in (46, 94, 94, 94, 94):
        usable = [p for p in range(5, 32) if is_prime(p) and _reducible(D, p)]
        out.append((D, 3, (rng.choice(usable),)))
    return out


def build(workload: str, seed: int, passes: int) -> list[list[Request]]:
    """`passes` passes of `workload` for `seed`, each in the order it runs.

    Every pass has each shape once, with instance seeds and an order of its
    own. The first pass does not depend on `passes`, so its digest can be
    pinned.
    """
    shapes = {"pool": pool, "conductor": conductor, "numtheory": numtheory, "cli": cli}[workload]()
    out = []
    for pass_no in range(passes):
        rng = random.Random(f"{workload}:{seed}" + (f":{pass_no}" if pass_no else ""))
        requests = [Request(D, f, primes, rng.randrange(2**31), i) for i, (D, f, primes) in enumerate(shapes)]
        rng.shuffle(requests)
        out.append(requests)
    return out


def orders_of(requests) -> list:
    """Every order a pass touches: each (D, d) for d dividing a conductor."""
    seen = set()
    for r in requests:
        for d in range(1, r.f + 1):
            if r.f % d == 0:
                seen.add((r.D, d))
    return [quadratic.make_order(D, d) for D, d in sorted(seen)]
