"""Verification layer: exhaustive kernel enumeration at small primes,
randomized checks of the symmetric-endomorphism rank parity, and
certificate replay.

The enumeration and the rank-parity trials are independent brute force:
the enumeration walks every subspace of (Z/p)^4 in echelon form, and each
subgroup it keeps must descend through isogeny.descend_polarization.
Replay is not independent of the pipeline: it re-runs principalize on the
input surface and compares the certificate it derives with the recorded
one, step by step and field by field, then the final surface exactly.
What replay adds to principalize's own checks (the input validates, the
result is valid and principal with a maximal acting order and its carried
pfaffian equals a fresh one) is that a certificate the pipeline would not
write, in any step or in its length, is rejected.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from . import intmat
from .arith import int_text, is_prime, rational_text, require_odd_prime
from .errors import DescentError, InvariantBreach, PreconditionError
from .isogeny import descend_polarization
from .reduction import CertificateData, principalize
from .surface import KernelSubgroup, PolarizedRMSurface, kernel_from_subspace


# ---------------------------------------------------------------------------
# exhaustive kernel enumeration
# ---------------------------------------------------------------------------


def _echelon_subspaces(p: int):
    """Yield a basis (tuple of row vectors) for every nonzero subspace of
    (Z/p)^4, one reduced echelon basis per subspace."""
    for k in range(1, 5):
        for pivots in combinations(range(4), k):
            free_positions = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, 4)
                if j not in pivots
            ]
            for values in product(range(p), repeat=len(free_positions)):
                rows = [[0] * 4 for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_positions, values):
                    rows[i][j] = v
                yield intmat.freeze(rows)


def enumerate_valid_kernels(
    surface: PolarizedRMSurface, p: int
) -> tuple[KernelSubgroup, ...]:
    """Every subgroup of the p-torsion through which the polarization descends.

    Exhaustive over all subspaces of (Z/p)^4 (echelon enumeration), keeping
    those that are action stable, inside the polarization kernel, and
    isotropic for the kernel pairing. The trivial subgroup is included.
    Ordered by Hermite basis for reproducibility; every kernel listed has
    den p, so this is the order of their overlattices.
    """
    if p == 2 or not is_prime(p) or p > 7:
        raise PreconditionError(f"enumeration requires an odd prime <= 7, got {p}")
    e_t = intmat.transpose(surface.gram)
    results = [kernel_from_subspace((), p)]
    for basis in _echelon_subspaces(p):
        if not all(
            intmat.subspace_contains(
                basis, tuple(x % p for x in intmat.mat_vec(surface.action, v)), p
            )
            for v in basis
        ):
            continue
        if not all(
            all(x % p == 0 for x in intmat.mat_vec(e_t, v)) for v in basis
        ):
            continue
        p2 = p * p
        pairings = (
            sum(a[i] * surface.gram[i][j] * b[j] for i in range(4) for j in range(4))
            for a in basis
            for b in basis
        )
        if not all(v % p2 == 0 for v in pairings):
            continue
        kernel = kernel_from_subspace(basis, p)
        try:
            descend_polarization(surface, kernel)
        except DescentError as exc:
            raise InvariantBreach(
                "kernel passed the congruence filters but fails descent"
            ) from exc
        results.append(kernel)
    return tuple(sorted(results, key=lambda k: k.basis))


# ---------------------------------------------------------------------------
# randomized rank parity checks
# ---------------------------------------------------------------------------


def _random_antisymmetric(rng: random.Random, p: int):
    m = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            v = rng.randrange(p)
            m[i][j] = v
            m[j][i] = (-v) % p
    return intmat.freeze(m)


def check_symmetric_rank_even(p: int, trials: int, seed: int = 0) -> bool:
    """Random nondegenerate alternating forms B and B-symmetric endomorphisms
    have image of even rank, with each image vector pairing to zero with its
    preimage. Returns True when every seeded trial confirms both.
    """
    require_odd_prime(p)
    rng = random.Random(seed)
    for _ in range(trials):
        while True:
            b = _random_antisymmetric(rng, p)
            if intmat.det(b) % p:
                break
        while True:
            s = _random_antisymmetric(rng, p)
            if any(x for row in s for x in row):
                break
        b_inv = intmat.inv_mod_p(b, p)
        eps = intmat.mat_mod(intmat.mat_mul(b_inv, s), p)
        sym_left = intmat.mat_mod(intmat.mat_mul(intmat.transpose(eps), b), p)
        sym_right = intmat.mat_mod(intmat.mat_mul(b, eps), p)
        if sym_left != sym_right:
            return False
        if intmat.rank_mod_p(eps, p) % 2 != 0:
            return False
        for _ in range(4):
            v = tuple(rng.randrange(p) for _ in range(4))
            ev = intmat.mat_vec(eps, v)
            pairing = sum(ev[i] * b[i][j] * v[j] for i in range(4) for j in range(4))
            if pairing % p:
                return False
    return True


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------


def verify_certificate(
    start: PolarizedRMSurface, certificate: CertificateData
) -> tuple[bool, str]:
    """Replay a certificate against its input surface.

    Re-runs principalize on the input surface and compares the steps it
    derives with the recorded ones, then the surface it reaches with the
    recorded final surface. An InvariantBreach or DescentError in the
    replay rejects the certificate. A PreconditionError propagates: the
    replay runs on the input surface alone, so a violated hypothesis or a
    limit hit there is no verdict on the certificate. Returns (ok,
    message); a rejection names the first step index where the two
    records part and, where both have a step there, the first differing
    field, or else the first differing field of the final surface.
    """
    try:
        reached, derived = principalize(start)
    except (InvariantBreach, DescentError) as exc:
        return False, f"replay aborted: {exc}"
    recorded = certificate.steps
    for i, (rec, der) in enumerate(zip(recorded, derived.steps)):
        if rec != der:
            name = _first_difference(rec, der)
            return False, (
                f"step {i} ({rec.kind} at {int_text(rec.prime)}): "
                f"{name}={_show(getattr(rec, name))} recorded, "
                f"replay derives {name}={_show(getattr(der, name))}"
            )
    n = len(derived.steps)
    if len(recorded) < n:
        der = derived.steps[len(recorded)]
        return False, (
            f"certificate stops before step {len(recorded)} ({der.kind} at "
            f"{int_text(der.prime)}), which replay derives"
        )
    if len(recorded) > n:
        rec = recorded[n]
        return False, (
            f"step {n} ({rec.kind} at {int_text(rec.prime)}): recorded past the "
            "replay's last step"
        )
    if reached != certificate.final:
        name = _first_difference(certificate.final, reached)
        return False, f"final {name} does not match the replay"
    return True, "certificate replays to an identical surface"


def _first_difference(a, b) -> str:
    """The first field in which two unequal records of one class differ."""
    return next(n for n in a._fields if getattr(a, n) != getattr(b, n))


def _show(value, den: int = 1) -> str:
    """A step field as text: a kernel (basis, den) as the matrix of its
    overlattice's rationals basis / den, each p/q in lowest terms, other
    tuples nested the same way, integers of any size in decimal."""
    if isinstance(value, KernelSubgroup):
        return _show(value.basis, value.den)
    if isinstance(value, tuple):
        return "(" + ", ".join(_show(x, den) for x in value) + ")"
    if isinstance(value, int):
        return rational_text(value, den)
    return str(value)
