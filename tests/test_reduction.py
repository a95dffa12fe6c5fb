"""The reduction procedures: squarefree kernels, order enlargement, degree
removal, and the full pipeline."""

from __future__ import annotations

import itertools
import random

import pytest

from rmlattice import (
    InvariantBreach,
    PreconditionError,
    degree,
    eigen_sublattice_pullback,
    enlarge_order_step,
    factor_prime,
    make_order,
    principalize,
    reduce_degree_step,
    solve_norm,
    squarefree_reduce,
    stabilizer_order,
    standard_instance,
    twist_by_element,
    validate,
)
from rmlattice import intmat, quadratic, reduction
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.isogeny import (
    DIVIDE,
    QUOTIENT,
    SCALE,
    IsogenyStep,
    descend_polarization,
    divide_by_symmetric,
)
from rmlattice.oracle import verify_certificate
from rmlattice.reduction import ASSOCIATE_DIVIDE, SPLIT_DIVIDE, principal_defect
from rmlattice.surface import PolarizedRMSurface, apply_unimodular, kernel_from_subspace
from test_intmat_oracles import overlattice, scalar_mul, snf_with_transforms


def _t_values(cert):
    """(prime, t) of every enlargement quotient step, in order."""
    return tuple((st.prime, st.t) for st in cert.steps if st.t is not None)


def _branches(cert):
    """(prime, branch) of every degree-reduction move, in order."""
    return tuple((st.prime, st.branch) for st in cert.steps if st.branch is not None)


# ---------------------------------------------------------------------------
# squarefree reduction
# ---------------------------------------------------------------------------


def test_squarefree_reduce_noop_on_principal():
    s = standard_instance(make_order(5, 1))
    out, steps = squarefree_reduce(s, 3)
    assert out == s and steps == ()


def test_squarefree_reduce_scales_divisible_gram():
    s = standard_instance(make_order(5, 1))
    scaled = twist_by_element(s, s.order.element(3, 0), norm=9)  # gram 3E
    out, steps = squarefree_reduce(scaled, 3)
    assert degree(out) == 1
    assert [st.kind for st in steps] == ["scale"]
    assert out.gram == s.gram


def test_squarefree_reduce_quotients_order_p2_classes():
    s = standard_instance(make_order(13, 1))
    el = s.order.element(2, 1)  # norm 3
    tw = twist_by_element(twist_by_element(s, el, norm=el.norm()), el, norm=el.norm())
    assert intmat.alternating_divisors(tw.gram, tw.pf) == (1, 1, 9, 9)
    out, steps = squarefree_reduce(tw, 3)
    assert [st.kind for st in steps] == ["quotient"]
    assert 1 / intmat.det(overlattice(steps[0].kernel_overlattice)) == 9
    assert degree(out) == 1
    assert validate(out) is None


def test_squarefree_reduce_handles_mixed_powers():
    s = standard_instance(make_order(13, 1))
    el = s.order.element(2, 1)
    tw = twist_by_element(twist_by_element(twist_by_element(s, el, norm=3), el, norm=3), el, norm=3)
    assert degree(tw) == 3**6
    out, steps = squarefree_reduce(tw, 3)
    assert degree(out) in (1, 9)
    for q, div in [(3, intmat.alternating_divisors(out.gram, out.pf))]:
        v1 = div[1] % q
        assert v1 != 0 or div[1] == 1  # smallest divisor prime to 3
    assert all(st.degree_before > st.degree_after for st in steps)


def test_squarefree_check_reports_the_p_parts_left(monkeypatch):
    # with no p^2-torsion found, the divisors (1, 1, 9, 9) stay and the
    # closing check names their 3-parts
    s = standard_instance(make_order(13, 1))
    el = s.order.element(2, 1)  # norm 3
    tw = twist_by_element(twist_by_element(s, el, norm=el.norm()), el, norm=el.norm())
    monkeypatch.setattr(reduction, "order_p_squared_subspace", lambda surface, p: ())
    with pytest.raises(
        InvariantBreach, match=r"^squarefree reduction left divisor p-parts \(1, 9\) at 3$"
    ):
        squarefree_reduce(tw, 3)


def reference_squarefree_reduce(surface, p):
    """The squarefree loop as it was before it stopped on the pfaffian: it
    ends on a pass that finds no p^2-torsion, then reads the p-parts left
    from the carried pfaffian."""
    steps = []
    current = surface
    while True:
        deg_before = degree(current)
        if all(x % p == 0 for row in current.gram for x in row):
            new_surface = divide_by_symmetric(current, current.order.element(p, 0))
            steps.append(
                IsogenyStep(
                    kind=SCALE,
                    prime=p,
                    degree_before=deg_before,
                    degree_after=degree(new_surface),
                )
            )
        else:
            subspace = reduction.order_p_squared_subspace(current, p)
            if not subspace:
                break
            kernel = kernel_from_subspace(subspace, p)
            new_surface = descend_polarization(current, kernel)
            steps.append(
                IsogenyStep(
                    kind=QUOTIENT,
                    prime=p,
                    kernel_overlattice=kernel,
                    degree_before=deg_before,
                    degree_after=degree(new_surface),
                )
            )
        current = new_surface
    v, n = 0, current.pf
    while n % p == 0:
        n //= p
        v += 1
    assert v <= 1
    return current, tuple(steps)


def test_squarefree_reduce_matches_the_reference_loop():
    # words of up to three twists, each by a norm +-p element or by p, in a
    # scrambled basis: the pfaffian stop gives the same surface and steps
    rng = random.Random(24)
    kinds = set()
    for D, p in [(13, 3), (5, 5), (2, 7), (5, 11), (17, 13)]:
        s = standard_instance(make_order(D, 1))
        el = solve_norm(s.order, p)
        letters = (el, el.conjugate(), s.order.element(p, 0))
        for length in range(4):
            for word in itertools.product(letters, repeat=length):
                tw = s
                for letter in word:
                    tw = twist_by_element(tw, letter, norm=letter.norm())
                moved = apply_unimodular(tw, random_unimodular(rng))
                out, steps = squarefree_reduce(moved, p)
                ref_out, ref_steps = reference_squarefree_reduce(moved, p)
                assert out == ref_out and out.pf == ref_out.pf, (D, p, word)
                assert steps == ref_steps, (D, p, word)
                kinds.add(tuple(sorted({st.kind for st in steps})))
    assert {(SCALE,), (QUOTIENT,), (QUOTIENT, SCALE)} <= kinds


def test_reduce_degree_step_row_reduces_mod_p_once(monkeypatch):
    # a degree-p^2 surface needs no squarefree move, so the branch decision's
    # kernel of the gram mod p is the step's one row reduction
    rng = random.Random(5)
    cases = []
    for D, p in [(13, 3), (2, 7), (5, 11)]:
        s = standard_instance(make_order(D, 1))
        el = solve_norm(s.order, p)
        tw = twist_by_element(s, el, norm=el.norm())
        cases.append((apply_unimodular(tw, random_unimodular(rng)), p))
    calls = []
    real = intmat.kernel_mod_p

    def counting(m, q):
        calls.append(q)
        return real(m, q)

    monkeypatch.setattr(intmat, "kernel_mod_p", counting)
    for tw, p in cases:
        assert degree(tw) == p * p
        calls.clear()
        out, steps = reduce_degree_step(tw, p)
        assert calls == [p]
        assert degree(out) == 1 and [st.kind for st in steps] == [DIVIDE]


def test_squarefree_reduce_rejects_two():
    s = standard_instance(make_order(5, 1))
    with pytest.raises(PreconditionError):
        squarefree_reduce(s, 2)


def test_order_p_squared_subspace_matches_smith_route():
    # independent route: columns of the Smith transform whose divisor is
    # divisible by p^2 span the same mod-p subspace; the fast route's basis
    # is not canonical, so the two spans are compared
    from rmlattice.reduction import order_p_squared_subspace

    rng = random.Random(31)
    checked = 0
    for D, p in [(13, 3), (5, 5), (5, 11), (3, 3)]:
        s = standard_instance(make_order(D, 1))
        el = solve_norm(s.order, p)
        if el is None:
            continue
        for reps in (1, 2, 3):
            tw = s
            for _ in range(reps):
                tw = twist_by_element(tw, el, norm=el.norm())
            moved = apply_unimodular(tw, random_unimodular(rng))
            fast = order_p_squared_subspace(moved, p)
            _, smith, v = snf_with_transforms(moved.gram)
            vecs = [
                tuple(v[i][j] % p for i in range(4))
                for j in range(4)
                if abs(smith[j][j]) % (p * p) == 0
            ]
            slow = intmat.span_mod_p(vecs, p)
            assert len(fast) == len(slow)
            assert intmat.span_mod_p(fast, p) == slow, (D, p, reps)
            checked += 1
    assert checked >= 9


# ---------------------------------------------------------------------------
# order enlargement
# ---------------------------------------------------------------------------


def test_enlarge_order_step_example():
    s = standard_instance(make_order(5, 3))
    out, (twist, quot) = enlarge_order_step(s, 3)
    assert degree(out) == 1
    assert out.order.conductor == 1
    assert stabilizer_order(out).conductor == 1
    assert 1 / intmat.det(overlattice(quot.kernel_overlattice)) == 3**6
    assert quot.t == 2
    assert twist.alpha == (27, 0)
    assert twist.degree_after == 3**12
    assert validate(out) is None


def test_enlarge_order_step_composite_conductor():
    s = standard_instance(make_order(5, 9))
    mid, _ = enlarge_order_step(s, 3)
    assert mid.order.conductor == 3
    out, steps = enlarge_order_step(mid, 3)
    assert out.order.conductor == 1 and steps[-1].t == 2
    assert degree(out) == 1
    assert stabilizer_order(out).conductor == 1


def test_enlarge_order_step_preconditions():
    with pytest.raises(PreconditionError):
        enlarge_order_step(standard_instance(make_order(5, 1)), 3)
    with pytest.raises(PreconditionError):
        enlarge_order_step(standard_instance(make_order(5, 3)), 5)
    # degree divisible by the conductor prime is rejected
    s = standard_instance(make_order(13, 3))
    tw = twist_by_element(s, s.order.element(3, 0), norm=9)  # degree 81
    with pytest.raises(PreconditionError):
        enlarge_order_step(tw, 3)


def test_enlarge_order_step_rejects_loose_orders():
    s1 = standard_instance(make_order(5, 1))
    loose = PolarizedRMSurface(
        make_order(5, 3), scalar_mul(3, s1.action), s1.gram
    )
    with pytest.raises(PreconditionError):
        enlarge_order_step(loose, 3)


def test_enlarge_preserves_degree_with_nontrivial_polarization():
    s = standard_instance(make_order(5, 3))
    el = solve_norm(s.order, 11)
    tw = twist_by_element(s, el, norm=el.norm())
    out, steps = enlarge_order_step(tw, 3)
    assert steps[-1].t == 2
    assert degree(out) == 121
    assert out.order.conductor == 1
    assert stabilizer_order(out).conductor == 1


# ---------------------------------------------------------------------------
# degree reduction
# ---------------------------------------------------------------------------


def test_reduce_degree_twist_cases():
    s = standard_instance(make_order(5, 1))
    a1, a2 = factor_prime(s.order, 11)
    for el in (a1, a2):
        tw = twist_by_element(s, el, norm=el.norm())
        out, steps = reduce_degree_step(tw, 11)
        assert steps[-1].branch == SPLIT_DIVIDE
        assert degree(out) == 1
        assert out.gram == s.gram and out.action == s.action


def test_reduce_degree_ramified_case():
    s = standard_instance(make_order(5, 1))
    el = solve_norm(s.order, 5)
    tw = twist_by_element(s, el, norm=el.norm())
    out, steps = reduce_degree_step(tw, 5)
    assert steps[-1].branch == ASSOCIATE_DIVIDE
    assert degree(out) == 1


def test_reduce_degree_eigen_pullback_case():
    s = standard_instance(make_order(5, 1))
    for idx in (0, 1):
        pulled = eigen_sublattice_pullback(s, 11, idx)
        out, steps = reduce_degree_step(pulled, 11)
        assert degree(out) == 1
        assert steps[-1].branch == SPLIT_DIVIDE
        assert stabilizer_order(out).conductor == 1


def test_reduce_degree_pure_squarefree_clears():
    s = standard_instance(make_order(13, 1))
    el = s.order.element(2, 1)
    tw = twist_by_element(twist_by_element(s, el, norm=el.norm()), el, norm=el.norm())
    out, steps = reduce_degree_step(tw, 3)
    assert all(st.branch is None for st in steps)
    assert degree(out) == 1


def test_reduce_degree_not_reducible():
    # 3 splits in Q(sqrt(10)) but the primes above it are not principal, so
    # an eigen-sublattice instance of degree 9 exists while no norm +-3
    # element does: the class obstruction in action.
    o = make_order(10, 1)
    assert solve_norm(o, 3) is None
    s = standard_instance(o)
    pulled = eigen_sublattice_pullback(s, 3, 0)
    assert degree(pulled) == 9
    with pytest.raises(PreconditionError) as err:
        reduce_degree_step(pulled, 3)
    assert "not reducible" in str(err.value)


def test_reduce_degree_preconditions():
    s = standard_instance(make_order(5, 1))
    with pytest.raises(PreconditionError):
        reduce_degree_step(s, 11)  # degree 1
    s53 = standard_instance(make_order(5, 3))
    el = solve_norm(make_order(5, 3), 11)
    tw = twist_by_element(s53, el, norm=el.norm())
    with pytest.raises(PreconditionError):
        reduce_degree_step(tw, 3)  # 3 divides the conductor


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_principalize_example_run():
    s = generate_instance(5, 3, [11], seed=42)
    out, cert = principalize(s)
    assert degree(out) == 1
    assert out.order.conductor == 1
    assert stabilizer_order(out).conductor == 1
    assert degree(s) == 121
    assert cert.final == out
    assert _t_values(cert) == ((3, 2),)
    assert len(_branches(cert)) == 1 and _branches(cert)[0][0] == 11
    previous = degree(s)
    for st in cert.steps:
        assert st.degree_before == previous
        previous = st.degree_after
    assert previous == 1


def test_degree_reduction_factors_each_prime_once(monkeypatch):
    s = generate_instance(13, 1, [3, 17], seed=10)
    calls = []
    real = quadratic.solve_norm

    def counting(order, p):
        calls.append(p)
        return real(order, p)

    monkeypatch.setattr(quadratic, "solve_norm", counting)
    _, cert = principalize(s)
    assert sorted(calls) == [3, 17]
    calls.clear()
    assert verify_certificate(s, cert)[0]
    assert sorted(calls) == [3, 17]


@pytest.mark.parametrize(
    "args", [(5, 81, [11, 19], 1), (13, 1, [3, 17], 10), (5, 3, [11], 4)]
)
def test_pfaffian_is_computed_once_per_surface(monkeypatch, args):
    # every move, squarefree reduction's stop included, reads the carried
    # pfaffian; the only fresh one is the closing comparison in principal_defect
    s = generate_instance(*args)
    calls = []
    real = intmat.pfaffian4

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(intmat, "pfaffian4", counting)
    _, cert = principalize(s)
    assert len(calls) == 1
    calls.clear()
    assert verify_certificate(s, cert)[0]
    assert len(calls) == 1


def _with_cached_pf(surface, pf):
    """A copy of surface whose cached pfaffian is pf, right or not."""
    out = PolarizedRMSurface(surface.order, surface.action, surface.gram)
    out.__dict__["pf"] = pf
    return out


def test_a_corrupted_carried_pfaffian_is_rejected():
    s = standard_instance(make_order(5, 1))
    for pf in (-1, 2):
        assert principal_defect(_with_cached_pf(s, pf)) == (
            f"with pfaffian 1, not the carried {pf}"
        )
    # A negated pfaffian keeps every degree, so the moves run through and
    # orient the wrong way; only the closing fresh pfaffian can tell.
    start = generate_instance(5, 1, [11], 1)
    _, cert = principalize(start)
    corrupted = _with_cached_pf(start, -start.pf)
    ok, msg = verify_certificate(corrupted, cert)
    assert not ok
    assert msg == "replay aborted: pipeline ended with pfaffian -1, not the carried 1"
    with pytest.raises(InvariantBreach, match="not the carried 1"):
        principalize(corrupted)


def test_principal_defect_validates_first():
    s = standard_instance(make_order(5, 1))
    assert principal_defect(s) is None
    # a conjugated action still satisfies the minimal polynomial, but is no
    # longer symmetric for the untouched gram form
    u = intmat.freeze([(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    bad = PolarizedRMSurface(s.order, apply_unimodular(s, u).action, s.gram)
    assert degree(bad) == 1 and bad.order.conductor == 1
    assert "not symmetric" in principal_defect(bad)


def test_principalize_noop():
    s = standard_instance(make_order(5, 1))
    out, cert = principalize(s)
    assert out == s and cert.steps == ()


def test_principalize_precondition_errors():
    with pytest.raises(PreconditionError):
        principalize(standard_instance(make_order(5, 2)))  # even conductor
    s = standard_instance(make_order(13, 1))
    el = s.order.element(1, 1)  # norm -1? check: 1 + 1 - 3 = -1, a unit
    assert el.is_unit()
    one_plus_w = s.order.element(0, 1) + s.order.element(1, 0)
    even = twist_by_element(s, one_plus_w, norm=one_plus_w.norm())
    # ensure an even degree input errors: twist by an element of even norm
    two_norm = None
    for x in range(-4, 5):
        for y in range(-4, 5):
            cand = s.order.element(x, y)
            if cand.norm() != 0 and cand.norm() % 2 == 0:
                two_norm = cand
                break
        if two_norm:
            break
    tw = twist_by_element(s, two_norm, norm=two_norm.norm())
    with pytest.raises(PreconditionError):
        principalize(tw)
    # shared factor between degree and conductor
    s53 = standard_instance(make_order(5, 3))
    el3 = solve_norm(make_order(5, 3), 11)
    bad = twist_by_element(s53, s53.order.element(3, 0), norm=9)
    with pytest.raises(PreconditionError):
        principalize(bad)


def test_principalize_refuses_a_surface_that_does_not_validate():
    s = standard_instance(make_order(5, 1))
    gram = [list(row) for row in s.gram]
    gram[0][0] = 1
    bad = PolarizedRMSurface(s.order, s.action, intmat.freeze(gram))
    with pytest.raises(PreconditionError) as info:
        principalize(bad)
    assert str(info.value) == "invalid surface: gram form is not antisymmetric"


def test_principalize_rejects_loose_orders():
    s1 = standard_instance(make_order(5, 1))
    loose = PolarizedRMSurface(
        make_order(5, 3), scalar_mul(3, s1.action), s1.gram
    )
    with pytest.raises(PreconditionError) as err:
        principalize(loose)
    assert "tight" in str(err.value)


def test_principalize_propagates_irreducible_prime():
    s = standard_instance(make_order(10, 1))
    pulled = eigen_sublattice_pullback(s, 3, 0)
    with pytest.raises(PreconditionError) as err:
        principalize(pulled)
    assert "3" in str(err.value)


def test_principalize_composite_multi_prime_conductor():
    # conductor 21: enlargement runs at 3 then 7, in increasing prime order
    s = generate_instance(13, 21, [17], seed=0)
    out, cert = principalize(s)
    assert degree(out) == 1
    assert stabilizer_order(out).conductor == 1
    assert _t_values(cert) == ((3, 2), (7, 2))
    kinds = [st.kind for st in cert.steps]
    assert kinds[:4] == ["twist", "quotient", "twist", "quotient"]


def test_principalize_across_scrambles():
    rng = random.Random(7)
    for seed in range(6):
        s = generate_instance(13, 9, [17], seed=seed)
        moved = apply_unimodular(s, random_unimodular(rng))
        if intmat.pfaffian4(moved.gram) < 0:
            continue
        out, cert = principalize(moved)
        assert degree(out) == 1
        assert stabilizer_order(out).conductor == 1
        assert _t_values(cert) == ((3, 2), (3, 2))
