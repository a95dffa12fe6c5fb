"""Degree reduction as one pass, checked against the per-prime loop it replaced.

principalize removes every degree prime in one pass: each prime's factor is
decided mod p on the surface built so far (reduction._branch_decision), its
divide step is recorded from the pfaffian ledger, and the chosen factors are
divided out by one exact twist by their product, before each squarefree
reduction and at the end. The former loop is kept here as the reference:
one reduce_degree_step per prime, deciding by attempting each factor's
division in turn (trial_division_branch_decision), on twists computed as
full matrix products (full_product_twist), the former twist_by_element.
twist_by_element itself now computes only the six pairings above the
diagonal, and is checked against that full product here too.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import (
    DescentError,
    InvariantBreach,
    PreconditionError,
    degree,
    eigen_sublattice_pullback,
    element_action,
    enlarge_order_step,
    factor_prime,
    make_order,
    principalize,
    splitting_type,
    squarefree_reduce,
    standard_instance,
    twist_by_element,
)
from rmlattice import intmat, reduction
from rmlattice.arith import factorize, require_odd_prime
from rmlattice.cli import main
from rmlattice.formats import serialize_certificate, serialize_instance
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.isogeny import CertificateData, IsogenyStep
from rmlattice.surface import apply_unimodular, canonicalize_orientation
from test_intmat_oracles import div_exact


def full_product_twist(surface, el, den=1, *, norm):
    """The former twist_by_element: gram @ A_el as the full 4x4 product,
    then all 16 entries divided exactly by den."""
    if el.is_zero():
        raise PreconditionError("cannot twist by zero")
    gram = intmat.mat_mul(surface.gram, element_action(surface, el))
    if den != 1:
        gram = div_exact(gram, den)
        if gram is None:
            raise DescentError("polarization kernel does not contain the kernel of the element")
    pf = norm * surface.pf // (den * den)
    return canonicalize_orientation(surface.order, surface.action, gram, pf)


def trial_division_branch_decision(surface, p, factors):
    """The former _branch_decision: (branch, el, divided surface) for the
    first factor, a1 tried first, whose division is exact."""
    if surface.pf % p == 0 and any(x % p for row in surface.gram for x in row):
        for el in factors:
            n = el.norm()
            try:
                divided = full_product_twist(surface, el.conjugate(), n, norm=n)
            except DescentError:
                continue
            branch = "associate_divide" if surface.order.discriminant % p == 0 else "split_divide"
            return branch, el, divided
    raise InvariantBreach(f"kernel p-torsion at {p} is not the mod-p kernel of a factor of {p}")


def sequential_reduce_degree_step(surface, p):
    """The former reduce_degree_step: squarefree reduction at p, then the
    division by the factor that trial division finds, built at once; only
    a p that squarefree reduction leaves in the degree needs a factor."""
    require_odd_prime(p)
    order = surface.order
    if order.conductor % p == 0:
        raise PreconditionError(f"{p} divides the conductor")
    if degree(surface) % p != 0:
        raise PreconditionError(f"{p} does not divide the degree")
    current, steps = squarefree_reduce(surface, p)
    if degree(current) % p != 0:
        return current, steps
    factors = factor_prime(order, p)
    if factors is None:
        raise PreconditionError(f"{p} is not reducible in the order")
    branch, el, divided = trial_division_branch_decision(current, p, factors)
    move = IsogenyStep(
        kind="divide_by_alpha",
        prime=p,
        alpha=(el.x, el.y),
        degree_before=degree(current),
        degree_after=degree(divided),
        branch=branch,
    )
    return divided, steps + (move,)


def sequential_principalize(surface):
    """principalize's moves with the former per-prime degree loop, on a
    surface principalize accepts: (final surface, certificate text)."""
    steps = []
    current = surface
    for p, mult in sorted(factorize(surface.order.conductor).items()):
        for _ in range(mult):
            current, pair = enlarge_order_step(current, p)
            steps.extend(pair)
    for p in sorted(factorize(abs(surface.pf))):
        current, more = sequential_reduce_degree_step(current, p)
        steps.extend(more)
    return current, serialize_certificate(CertificateData(tuple(steps), current))


def _agrees_with_the_sequential_loop(surface) -> str:
    """Assert that principalize gives the reference's final surface (and
    pfaffian) and certificate text, or refuses with its message; say which."""
    try:
        final, text = sequential_principalize(surface)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as refused:
            principalize(surface)
        assert str(refused.value) == str(exc)
        return "refused"
    out, cert = principalize(surface)
    assert (out, out.pf) == (final, final.pf)
    assert serialize_certificate(cert) == text
    return "principalized"


FIELDS = (2, 3, 5, 13, 17, 21, 29, 41)
SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97
)


def _ramified(D, f):
    """The odd primes dividing the discriminant of the order of conductor
    f in Q(sqrt D) but not f: the degree primes with an associate branch."""
    disc = make_order(D, f).discriminant
    return [p for p in SMALL_PRIMES if disc % p == 0 and f % p]


def _multi_prime_shapes():
    """(D, f, primes) that generate accepts: per field and conductor,
    1 to 8 distinct reducible primes drawn at random, each ramified prime
    with up to three others, and repeated primes, alone, after a smaller
    prime and before a larger one."""
    shapes = []
    for D in FIELDS:
        maximal = make_order(D, 1)
        for f in (1, 3, 9):
            rng = random.Random(100 * D + f)
            usable = [p for p in SMALL_PRIMES if f % p and factor_prime(maximal, p) is not None]
            lists = [sorted(rng.sample(usable, k)) for k in range(1, 9)]
            for r in _ramified(D, f):
                others = [p for p in usable if p != r]
                lists += [sorted([r, *rng.sample(others, k)]) for k in (0, 1, 3)]
            split = [p for p in usable if p not in _ramified(D, f)]
            if len(split) >= 3:
                a, b, c = split[:3]
                lists += [[b, b], [b, b, c], [a, b, b], [a, b, b, c], [a, a, b, b, b]]
            for primes in lists:
                try:
                    generate_instance(D, f, primes, 0)
                except PreconditionError:  # the Humbert congruence refuses it
                    continue
                shapes.append((D, f, tuple(primes)))
    return shapes


SHAPES = _multi_prime_shapes()


def test_the_shapes_cover_ramified_repeated_and_many_primes_in_every_conductor():
    assert {f for _, f, _ in SHAPES} == {1, 3, 9}
    assert {D for D, _, _ in SHAPES} == set(FIELDS)
    assert any(len(set(primes)) == 8 for _, _, primes in SHAPES)
    assert any(
        len(primes) > 1 and any(p in _ramified(D, f) for p in primes) for D, f, primes in SHAPES
    )
    # a repeated prime after a smaller one: the pass builds its pending
    # division before the squarefree moves there
    assert any(
        any(primes.count(q) > 1 and primes[0] < q for q in primes) for _, _, primes in SHAPES
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
def test_principalize_matches_the_per_prime_loop_on_scrambled_instances(shape, seed):
    D, f, primes = shape
    surface = generate_instance(D, f, primes, seed)
    assert _agrees_with_the_sequential_loop(surface) == "principalized"


@pytest.mark.parametrize(
    "D,primes", [(29, (5, 5, 13)), (5, (11, 11)), (5, (11, 19, 19)), (13, (3, 17, 17, 23))]
)
def test_principalize_matches_the_per_prime_loop_at_repeated_primes(D, primes):
    for seed in range(4):
        surface = generate_instance(D, 1, primes, seed)
        assert _agrees_with_the_sequential_loop(surface) == "principalized"


def _unreducible_surfaces():
    """(surface, p) for valid surfaces whose degree keeps a prime p with no
    element of norm +-p: in Q(sqrt 10), whose only reducible prime below
    40 is 31, the split 3 pulled back, alone and on a twist at 31 (refused
    before 31 is reached), and the split 37 pulled back on a twist at 31
    (refused after 31 is decided)."""
    o10 = make_order(10, 1)
    s10 = standard_instance(o10)
    el31 = factor_prime(o10, 31)[0]
    at31 = twist_by_element(s10, el31, norm=el31.norm())
    return [
        (eigen_sublattice_pullback(s10, 3, 0), 3),
        (eigen_sublattice_pullback(at31, 3, 1), 3),
        (eigen_sublattice_pullback(at31, 37, 0), 37),
    ]


def test_a_degree_prime_without_a_norm_p_element_is_refused_as_before():
    for surface, p in _unreducible_surfaces():
        assert splitting_type(surface.order, p) != "ramified" and factor_prime(surface.order, p) is None
        assert _agrees_with_the_sequential_loop(surface) == "refused"
        with pytest.raises(PreconditionError, match=f"^{p} is not reducible in the order$"):
            principalize(surface)


def test_an_inert_prime_that_a_scale_move_clears_is_principalized():
    # 3, inert in Q(sqrt 5), scaled in, alone and after a twist at the split
    # 11: squarefree reduction clears it before any factor of 3 is asked for
    o5 = make_order(5, 1)
    s5 = standard_instance(o5)
    scale3 = o5.element(3, 0)
    el11 = factor_prime(o5, 11)[0]
    cases = [
        (twist_by_element(s5, scale3, norm=9), ["scale"]),
        (
            twist_by_element(twist_by_element(s5, el11, norm=el11.norm()), scale3, norm=9),
            ["scale", "divide_by_alpha"],
        ),
    ]
    assert factor_prime(o5, 3) is None
    for surface, kinds in cases:
        assert _agrees_with_the_sequential_loop(surface) == "principalized"
        _, cert = principalize(surface)
        assert [step.kind for step in cert.steps] == kinds
        assert [step.prime for step in cert.steps] == [3, 11][: len(kinds)]


def _scaled_inert_surfaces():
    """(surface, k) for each field of FIELDS and each inert p <= 13: the
    standard instance, alone or twisted by a factor of its first split
    prime, with its gram times p^k for k = 1 and 2, under a scramble."""
    rng = random.Random(46)
    cases = []
    for D in FIELDS:
        order = make_order(D, 1)
        s = standard_instance(order)
        q = next(q for q in SMALL_PRIMES if splitting_type(order, q) == "split")
        el = factor_prime(order, q)[0]
        for base in (s, twist_by_element(s, el, norm=el.norm())):
            for p in (3, 5, 7, 11, 13):
                if splitting_type(order, p) != "inert":
                    continue
                for k in (1, 2):
                    scaled = twist_by_element(base, order.element(p**k, 0), norm=p ** (2 * k))
                    cases.append((apply_unimodular(scaled, random_unimodular(rng)), k))
    return cases


def test_every_field_principalizes_and_verifies_inert_primes_scaled_in(tmp_path, capsys):
    cases = _scaled_inert_surfaces()
    assert len(cases) == 96  # 24 inert primes, once and twice, alone and twisted
    inst, out, cert = (tmp_path / name for name in ("inst.json", "out.json", "cert.json"))
    for surface, k in cases:
        inst.write_text(serialize_instance(surface))
        assert main(["principalize", str(inst), "-o", str(out), "--cert-out", str(cert)]) == 0
        assert main(["verify", str(inst), str(cert)]) == 0
        assert cert.read_text().count('"kind": "scale"') == k
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("run", ["reduce_degree", "squarefree_reduce"])
def test_each_step_starts_at_the_degree_the_step_before_ended_at(run):
    # the ledger squares each carried pfaffian once: one object per degree,
    # across scale, quotient and divide steps alike
    o5 = make_order(5, 1)
    if run == "reduce_degree":
        surfaces = [
            generate_instance(D, 1, primes, seed)
            for D, primes in [(29, (5, 5, 13)), (13, (3, 17, 17, 23)), (5, (11, 19, 19, 29))]
            for seed in range(3)
        ]
        scaled = twist_by_element(generate_instance(5, 1, (11, 19), 1), o5.element(9, 0), norm=81)
        surfaces.append(scaled)
        runs = [reduction._reduce_degree(s, sorted(factorize(s.pf)))[1] for s in surfaces]
        expected = {"scale", "quotient", "divide_by_alpha"}
    else:
        s = twist_by_element(standard_instance(o5), o5.element(27, 0), norm=27**2)
        runs = [squarefree_reduce(s, 3)[1]]
        runs += [
            squarefree_reduce(generate_instance(5, 1, (11,) * 4, seed), 11)[1] for seed in range(3)
        ]
        expected = {"scale", "quotient"}
    kinds = set()
    for steps in runs:
        assert len(steps) >= 2
        kinds.update(step.kind for step in steps)
        for before, after in zip(steps, steps[1:]):
            assert before.degree_after is after.degree_before
    assert kinds == expected


def _twist_cases():
    """(surface, p) for valid surfaces: the standard instance, each factor's
    twist and, at a split prime, both eigen-sublattice pull-backs, each
    also under a random change of basis, in orders of conductor 1 and 3."""
    rng = random.Random(44)
    cases = []
    for D in (2, 5, 13, 17, 21):
        for f in (1, 3):
            order = make_order(D, f)
            base = standard_instance(order)
            for p in (5, 7, 11, 13, 17):
                factors = factor_prime(order, p) if f % p else None
                if factors is None:
                    continue
                surfaces = [base] + [twist_by_element(base, el, norm=el.norm()) for el in factors]
                if splitting_type(order, p) == "split":
                    surfaces += [eigen_sublattice_pullback(base, p, i) for i in (0, 1)]
                for s in surfaces:
                    cases += [(s, p), (apply_unimodular(s, random_unimodular(rng)), p)]
    return cases


TWIST_CASES = _twist_cases()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    case=st.sampled_from(TWIST_CASES),
    x=st.integers(-40, 40),
    y=st.integers(-40, 40),
    den_kind=st.sampled_from(("one", "prime", "norm", "small")),
    small=st.integers(2, 6),
)
def test_the_six_pairing_twist_matches_the_full_product(case, x, y, den_kind, small):
    # a small den divides each pairing or not about as often, so each of
    # the six divisibility tests decides some refusals on its own
    surface, p = case
    el = surface.order.element(x, y)
    if el.is_zero():
        el = surface.order.element(p, 1)
    n = el.norm()
    den = {"one": 1, "prime": p, "norm": n, "small": small}[den_kind]
    outcomes = []
    for twist in (twist_by_element, full_product_twist):
        try:
            out = twist(surface, el, den, norm=n)
            outcomes.append(("twisted", out, out.pf))
        except DescentError as exc:
            outcomes.append(("refused", str(exc)))
    assert outcomes[0] == outcomes[1]


def test_each_of_the_six_pairings_alone_refuses_a_twist():
    # on the standard instance of Q(sqrt 13), gram @ A_(1 - w) has exactly
    # one pairing above the diagonal that 3 does not divide; the 24
    # orderings of the basis put it in each of the six places
    order = make_order(13, 1)
    el = order.element(1, -1)
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    lone = set()
    for perm in itertools.permutations(range(4)):
        u = tuple(tuple(int(perm[c] == r) for c in range(4)) for r in range(4))
        s = apply_unimodular(standard_instance(order), u)
        full = intmat.mat_mul(s.gram, element_action(s, el))
        (k,) = [k for k, (i, j) in enumerate(pairs) if full[i][j] % 3]
        lone.add(k)
        for twist in (twist_by_element, full_product_twist):
            with pytest.raises(DescentError, match="^polarization kernel does not contain the kernel"):
                twist(s, el, 3, norm=el.norm())
    assert lone == set(range(6))


def test_the_six_pairing_twist_exact_and_refused_on_the_same_element():
    # dividing by a factor of 11 (the twist by its conjugate over its norm)
    # undoes the twist by it, and is refused on the principal surface
    order = make_order(5, 1)
    s = standard_instance(order)
    a1, _ = factor_prime(order, 11)
    n = a1.norm()
    raised = twist_by_element(s, a1, norm=n)
    back = twist_by_element(raised, a1.conjugate(), n, norm=n)
    assert back == full_product_twist(raised, a1.conjugate(), n, norm=n) == s
    for twist in (twist_by_element, full_product_twist):
        with pytest.raises(DescentError, match="^polarization kernel does not contain the kernel"):
            twist(s, a1, n, norm=n)


def test_the_twist_still_refuses_an_element_of_another_order():
    s = standard_instance(make_order(5, 1))
    for twist in (twist_by_element, full_product_twist):
        with pytest.raises(PreconditionError, match="^element belongs to a different order$"):
            twist(s, make_order(5, 3).element(2, 1), norm=make_order(5, 3).element(2, 1).norm())
        with pytest.raises(PreconditionError, match="^element belongs to a different order$"):
            twist(s, make_order(13, 1).element(2, 1), norm=make_order(13, 1).element(2, 1).norm())


@pytest.mark.parametrize("D,f,primes,wrong", [
    (5, 1, (11, 19, 29), 11),
    (5, 1, (11, 19, 29), 19),
    (5, 1, (11, 19, 29), 29),
    (13, 3, (17, 23, 29), 23),
    (29, 1, (5, 5, 13), 13),
])
def test_a_wrong_factor_at_one_split_prime_breaks_the_one_division(
    D, f, primes, wrong, tmp_path, capsys, monkeypatch
):
    surface = generate_instance(D, f, primes, 1)
    assert splitting_type(surface.order, wrong) == "split"
    decide = reduction._branch_decision

    def take_the_other_factor(current, p, factors):
        branch, el = decide(current, p, factors)
        if p == wrong:
            (el,) = (a for a in factors if a != el)
        return branch, el

    monkeypatch.setattr(reduction, "_branch_decision", take_the_other_factor)
    message = "division by the chosen degree factors is not exact"
    with pytest.raises(InvariantBreach, match=f"^{message}: "):
        principalize(surface)
    inst, out, cert = (tmp_path / name for name in ("inst.json", "out.json", "cert.json"))
    inst.write_text(serialize_instance(surface))
    assert main(["principalize", str(inst), "-o", str(out), "--cert-out", str(cert)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}: ")
    assert not out.exists() and not cert.exists()
