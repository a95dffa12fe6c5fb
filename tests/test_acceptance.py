"""Acceptance suite: every criterion as one test with a printed verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. All arithmetic is exact; every tolerance is zero.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from math import gcd

import pytest

from rmlattice import (
    degree,
    descend_polarization,
    eigen_sublattice_pullback,
    factor_prime,
    humbert_holds,
    make_order,
    principalize,
    solve_norm,
    squarefree_reduce,
    standard_instance,
    stabilizer_order,
    twist_by_element,
)
from rmlattice import intmat
from rmlattice.arith import factorize
from rmlattice.formats import (
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.oracle import (
    check_symmetric_rank_even,
    enumerate_valid_kernels,
    verify_certificate,
)
from rmlattice.quadratic import bezout_conductor
from rmlattice.reduction import reduce_degree_step
from rmlattice.surface import (
    apply_unimodular,
    element_action,
    polarization_kernel_mod_p,
)
from test_intmat_oracles import overlattice, snf_divisors

DEGREE_PRIME_POOL = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
D_SET = (2, 3, 5, 13, 17)
F_SET = (1, 3, 7, 9)


@contextlib.contextmanager
def criterion(number, slug):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{slug}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number} [{slug}]: PASS")


# ---------------------------------------------------------------------------
# shared corpus: the criterion-1 instance set with its pipeline runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    runs = []
    seed = 0
    elapsed = 0.0
    for D in D_SET:
        maximal = make_order(D, 1)
        usable = [p for p in DEGREE_PRIME_POOL if factor_prime(maximal, p) is not None]
        for f in F_SET:
            primes = [p for p in usable if f % p != 0]
            requests = [[p] for p in primes]
            requests += [[a, b] for a, b in zip(primes, primes[1:])]
            if len(primes) >= 2:
                requests.append([primes[0], primes[-1]])
            for request in requests:
                seed += 1
                surface = generate_instance(D, f, request, seed=seed)
                start = time.perf_counter()
                result, cert = principalize(surface)
                elapsed += time.perf_counter() - start
                runs.append(
                    {
                        "D": D,
                        "conductor": f,
                        "request": tuple(request),
                        "seed": seed,
                        "input": surface,
                        "cert": cert,
                        "output": result,
                    }
                )
    return {"runs": runs, "pipeline_seconds": elapsed}


# ---------------------------------------------------------------------------
# independent recomputation helpers (used instead of library calls where the
# criterion demands a pipeline-independent check)
# ---------------------------------------------------------------------------


def inline_pfaffian(m):
    return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


def inline_content(m):
    g = 0
    for row in m:
        for x in row:
            g = gcd(g, x)
    return g


def decode_entry(v):
    return int(v) if isinstance(v, str) else v


def decode_matrix(obj):
    return [[decode_entry(x) for x in row] for row in obj]


def overlattice_order(matrix_of_strings):
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in matrix_of_strings]
    det = intmat.det(intmat.freeze(rows))
    inv = Fraction(1) / det
    assert inv.denominator == 1 and inv > 0
    return int(inv)


def test_criterion_1_principalization_end_to_end(corpus):
    with criterion(1, "principal-maximal-end-to-end"):
        runs = corpus["runs"]
        assert len(runs) >= 100, f"only {len(runs)} instances"
        for run in runs:
            deg_in = degree(run["input"])
            expected = 1
            for p in run["request"]:
                expected *= p * p
            assert deg_in == expected
            # independent recheck from the serialized output file
            obj = json.loads(serialize_instance(run["output"]))
            gram = decode_matrix(obj["gram"])
            action = decode_matrix(obj["omega_action"])
            pf = inline_pfaffian(gram)
            assert pf * pf == 1, "serialized output is not principal"
            f_out = obj["order"]["conductor"]
            assert f_out == 1
            assert gcd(f_out, inline_content(action)) == f_out  # acting order tight
            assert stabilizer_order(parse_instance(json.dumps(obj))).conductor == 1
        assert corpus["pipeline_seconds"] < 10.0, corpus["pipeline_seconds"]


def test_criterion_2_order_enlargement_invariants(corpus):
    with criterion(2, "enlargement-rank-and-degree"):
        seen = 0
        for run in corpus["runs"]:
            steps = run["cert"].steps
            for i, step in enumerate(steps):
                if step.kind != "twist":
                    continue
                seen += 1
                p = step.prime
                quotient = steps[i + 1]
                assert quotient.kind == "quotient" and quotient.prime == p
                assert quotient.t == 2
                korder = overlattice_order(
                    [[str(x) for x in row] for row in overlattice(quotient.kernel_overlattice)]
                )
                assert korder == p**6
                assert step.alpha == (p**3, 0)
                # the composite move preserves the degree exactly
                assert quotient.degree_after == step.degree_before
        assert seen >= 30, f"only {seen} enlargement moves exercised"


def test_criterion_3_degree_ledger(corpus):
    with criterion(3, "exact-degree-ledger"):
        checked = 0
        for run in corpus["runs"]:
            cert = run["cert"]
            D = run["input"].order.D
            conductor = run["input"].order.conductor
            previous = degree(run["input"])
            for step in cert.steps:
                assert step.degree_before == previous
                order = make_order(D, conductor)
                t, n = order.trace_omega, order.norm_omega
                if step.kind == "quotient":
                    korder = overlattice_order(
                        [[str(x) for x in row] for row in overlattice(step.kernel_overlattice)]
                    )
                    assert step.degree_after * korder**2 == step.degree_before
                    if step.t is not None:
                        conductor //= step.prime
                elif step.kind == "divide_by_alpha":
                    x, y = step.alpha
                    nm = x * x + t * x * y + n * y * y
                    assert step.degree_after * nm * nm == step.degree_before
                elif step.kind == "scale":
                    assert step.degree_before == step.prime**4 * step.degree_after
                elif step.kind == "twist":
                    x, y = step.alpha
                    nm = x * x + t * x * y + n * y * y
                    assert step.degree_after == nm * nm * step.degree_before
                else:
                    raise AssertionError(f"unknown step kind {step.kind}")
                previous = step.degree_after
                checked += 1
            assert previous == 1
        assert checked > 200


# ---------------------------------------------------------------------------
# criterion 4: oracle equivalence and branch coverage at small primes
# ---------------------------------------------------------------------------


BRANCH_POOLS = {
    3: {"split": (7, 13, 19), "ramified": (3, 6)},
    5: {"split": (11, 19, 29), "ramified": (5, 30)},
}


@pytest.fixture(scope="module")
def branch_corpus():
    rng = random.Random(2024)
    cases = []
    for p, pools in BRANCH_POOLS.items():
        for kind, pool in pools.items():
            for D in pool:
                order = make_order(D, 1)
                base = standard_instance(order)
                factors = factor_prime(order, p)
                assert factors is not None, (D, p)
                builders = [
                    lambda s=base, el=factors[0]: twist_by_element(s, el, norm=el.norm()),
                    lambda s=base, el=factors[1]: twist_by_element(s, el, norm=el.norm()),
                ]
                if kind == "split":
                    builders += [
                        lambda s=base, i=0: eigen_sublattice_pullback(s, p, i),
                        lambda s=base, i=1: eigen_sublattice_pullback(s, p, i),
                    ]
                for build in builders:
                    plain = build()
                    cases.append((plain, p))
                    for _ in range(2):
                        moved = apply_unimodular(plain, random_unimodular(rng))
                        if intmat.pfaffian4(moved.gram) > 0:
                            cases.append((moved, p))
    results = []
    for surface, p in cases:
        out, steps = reduce_degree_step(surface, p)
        results.append(
            {"surface": surface, "prime": p, "branch": steps[-1].branch, "steps": steps,
             "output": out}
        )
    return results


def test_criterion_4_oracle_equivalence(branch_corpus):
    with criterion(4, "exhaustive-kernel-oracle-agreement"):
        per_branch = {}
        for case in branch_corpus:
            per_branch[case["branch"]] = per_branch.get(case["branch"], 0) + 1
            p = case["prime"]
            stable, _ = squarefree_reduce(case["surface"], p)
            if degree(stable) % p:
                continue
            kernels = enumerate_valid_kernels(stable, p)
            nontrivial = [k for k in kernels if not k.is_trivial()]
            assert nontrivial, "no valid kernels listed on a stable surface"
            for kernel in nontrivial:
                quotient = descend_polarization(stable, kernel)
                assert degree(quotient) == degree(stable) // (p * p)
            move = case["steps"][-1]
            if move.kind == "quotient" and move.branch is not None:
                assert any(
                    overlattice(move.kernel_overlattice) == overlattice(k) for k in nontrivial
                ), "chosen kernel missing from the exhaustive enumeration"
        for branch in ("split_divide", "associate_divide"):
            assert per_branch.get(branch, 0) >= 20, (
                f"{branch}: only {per_branch.get(branch, 0)} seeded instances"
            )


def test_criterion_4_branch_coverage(branch_corpus):
    """Every degree-reduction branch reachable from valid input is exercised.

    With p prime to the conductor, the lattice is locally free of rank 2
    over the order at p, so the stabilized kernel p-torsion is always the
    full mod-p kernel of one factor of p and the move divides by it. The
    quotient labels are unreachable (README "Acceptance status" gives the
    argument; tests/test_branch_structure.py scans every degree-p^2 class).
    On the seeded corpus this checks: no quotient label; both divide labels
    at p = 3 and p = 5; both factor arms of every split prime; the kernel
    equal to the divide element's mod-p kernel; and the split/associate
    part of the label agreeing with whether p divides the discriminant.
    """
    with criterion(4, "reachable-branches-exercised"):
        see = 'see README "Acceptance status" and tests/test_branch_structure.py'
        labels = {p: set() for p in BRANCH_POOLS}
        arms = {
            (D, p): set() for p, pools in BRANCH_POOLS.items() for D in pools["split"]
        }
        for case in branch_corpus:
            p = case["prime"]
            order = case["surface"].order
            where = f"D={order.D}, p={p}"
            taken = [step.branch for step in case["steps"]]
            assert not {"split_quotient", "associate_quotient"} & set(taken), (
                f"{where}: quotient branch taken ({taken}), though the stabilized "
                f"kernel is always a full factor kernel; {see}"
            )
            move = case["steps"][-1]
            assert move.kind == "divide_by_alpha" and move.branch == case["branch"], (
                f"{where}: last move is {move.kind} with branch {move.branch}"
            )
            labels[p].add(case["branch"])
            # split/associate from the discriminant, recomputed inline
            fundamental = order.D if order.D % 4 == 1 else 4 * order.D
            disc = fundamental * order.conductor**2
            expected = "associate" if disc % p == 0 else "split"
            assert case["branch"] == f"{expected}_divide", (
                f"{where}: branch {case['branch']}, but p "
                f"{'divides' if disc % p == 0 else 'does not divide'} {disc}"
            )
            factors = factor_prime(order, p)
            arm = [i for i, a in enumerate(factors) if (a.x, a.y) == move.alpha]
            assert arm, f"{where}: divide element {move.alpha} is not a factor of p"
            if expected == "split":
                arms[(order.D, p)].update(arm)
            stable, _ = squarefree_reduce(case["surface"], p)
            divide_action = element_action(stable, order.element(*move.alpha))
            kernel_p = polarization_kernel_mod_p(stable, p)
            kernel_el = intmat.kernel_mod_p(intmat.mat_mod(divide_action, p), p)
            assert intmat.span_mod_p(kernel_p, p) == intmat.span_mod_p(kernel_el, p), (
                f"{where}: stabilized kernel p-torsion is not the mod-p kernel "
                f"of the divide element {move.alpha}; {see}"
            )
        for p, seen in labels.items():
            missing = sorted({"split_divide", "associate_divide"} - seen)
            assert not missing, f"p={p}: divide branches never taken: {missing}"
        for (D, p), seen in arms.items():
            assert seen == {0, 1}, (
                f"D={D}, p={p}: divided only by factor_prime factor(s) "
                f"{sorted(seen)}; both SPLIT_DIVIDE returns must run"
            )


def test_criterion_5_squarefree_postcondition(corpus):
    with criterion(5, "squarefree-kernel-shape"):
        checked = 0
        samples = [run["input"] for run in corpus["runs"][:40]]
        # add stacked powers: degree p^4 and p^6 at one prime
        s13 = standard_instance(make_order(13, 1))
        el = s13.order.element(2, 1)
        stacked = twist_by_element(twist_by_element(s13, el, norm=el.norm()), el, norm=el.norm())
        samples.append(stacked)
        samples.append(twist_by_element(stacked, el, norm=el.norm()))
        for surface in samples:
            deg = degree(surface)
            for p in {q for q in DEGREE_PRIME_POOL if deg % q == 0}:
                reduced, _ = squarefree_reduce(surface, p)
                remaining = degree(reduced)
                if remaining % p:
                    continue
                divisors = snf_divisors(reduced.gram)
                parts = [d % p == 0 for d in divisors]
                assert parts == [False, False, True, True], (divisors, p)
                assert all(d % (p * p) != 0 for d in divisors)
                checked += 1
        assert checked >= 20


def test_criterion_6_rank_parity_suite():
    with criterion(6, "symmetric-rank-parity"):
        start = time.perf_counter()
        for p, seed in ((3, 101), (5, 102), (7, 103)):
            assert check_symmetric_rank_even(p, 500, seed=seed)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, elapsed


def test_criterion_7_humbert_consistency(corpus):
    with criterion(7, "humbert-congruence"):
        for run in corpus["runs"]:
            surface = run["input"]
            pf = intmat.pfaffian4(surface.gram)
            assert pf > 0
            assert humbert_holds(surface.order.discriminant, factorize(pf))
        for disc in range(1, 201):
            if disc % 4 not in (0, 1):
                continue
            for d in range(1, 21):
                expected = any((x * x - disc) % (4 * d) == 0 for x in range(4 * d))
                assert humbert_holds(disc, factorize(d)) is expected


def _integer_paths(node, path=()):
    if isinstance(node, bool):
        return
    if isinstance(node, int):
        yield path
    elif isinstance(node, str):
        stripped = node.lstrip("-")
        if stripped.isdigit() or (
            "/" in node and all(part.lstrip("-").isdigit() for part in node.split("/", 1))
        ):
            yield path
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _integer_paths(item, path + (i,))
    elif isinstance(node, dict):
        for key, item in node.items():
            yield from _integer_paths(item, path + (key,))


def _flip(obj, path):
    node = obj
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if isinstance(value, int):
        node[path[-1]] = value + 1
    elif "/" in value:
        num, den = value.split("/", 1)
        node[path[-1]] = f"{int(num) + 1}/{den}"
    else:
        node[path[-1]] = str(int(value) + 1)


def test_criterion_8_certificate_integrity(corpus):
    with criterion(8, "certificate-corruption-detection"):
        rng = random.Random(777)
        eligible = [run for run in corpus["runs"] if run["cert"].steps]
        for run in eligible:
            ok, msg = verify_certificate(run["input"], run["cert"])
            assert ok, msg
        rejected = 0
        for trial in range(100):
            run = rng.choice(eligible)
            text = serialize_certificate(run["cert"])
            obj = json.loads(text)
            paths = list(_integer_paths(obj))
            _flip(obj, rng.choice(paths))
            try:
                tampered = parse_certificate(json.dumps(obj))
            except ValueError:
                rejected += 1  # corruption broke the schema itself
                continue
            ok, msg = verify_certificate(run["input"], tampered)
            assert not ok, f"trial {trial}: corruption accepted"
            assert msg
            rejected += 1
        assert rejected == 100


def test_criterion_9_norm_equation_and_bezout():
    with criterion(9, "norm-equations-and-conductor-identity"):
        odd_primes = [p for p in range(3, 50, 2) if all(p % q for q in (3, 5, 7) if q < p)]
        for D in (2, 3, 5):
            order = make_order(D, 1)
            t, n = order.trace_omega, order.norm_omega
            wanted = set(odd_primes)
            reachable = set()
            for x in range(-200, 201):
                for y in range(-200, 201):
                    v = abs(x * x + t * x * y + n * y * y)
                    if v in wanted:
                        reachable.add(v)
            for p in odd_primes:
                sol = solve_norm(order, p)
                assert (sol is not None) == (p in reachable), (D, p)
        # conductor identity including the worked value
        o51 = make_order(5, 1)
        b1, b2 = bezout_conductor(o51.element(3, 1), o51.element(4, -1), o51)
        assert (b1.x, b1.y, b2.x, b2.y) == (1, -1, 0, 1)
        for D, f in ((5, 3), (13, 9), (17, 7), (2, 9), (3, 7)):
            order = make_order(D, f)
            for p in DEGREE_PRIME_POOL:
                if f % p == 0:
                    continue
                fact = factor_prime(order, p)
                if fact is None:
                    continue
                a1, a2 = fact
                from rmlattice.quadratic import are_associates_in_maximal

                if are_associates_in_maximal(a1, a2):
                    continue
                b1, b2 = bezout_conductor(a1, a2, order)
                assert a1 * b1 + a2 * b2 == order.element(f, 0)
