"""The order-enlargement move against the move it replaced.

reference_enlarge_order_step is the former enlarge_order_step: it builds
the twisted surface (twist_by_element by p^3), descends it to the
canonical kernel's overlattice (descend_polarization) and divides the
action by p. reduction.enlarge_order_step records the twist instead of
building it and descends in one change of basis; the two must agree on
every surface, step and message.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import (
    DescentError,
    InvariantBreach,
    PreconditionError,
    degree,
    descend_polarization,
    intmat,
    isogeny,
    make_order,
    principalize,
    reduction,
    surface,
    twist_by_element,
)
from rmlattice.arith import factorize, int_text, require_odd_prime
from rmlattice.generator import generate_instance
from rmlattice.isogeny import QUOTIENT, TWIST, IsogenyStep
from rmlattice.reduction import enlarge_order_step, enlargement_kernel
from rmlattice.surface import (
    PolarizedRMSurface,
    canonicalize_orientation,
    stabilizer_order,
)


def reference_enlarge_order_step(surface, p):
    """The former enlarge_order_step: twist by p^3, quotient, divide by p."""
    require_odd_prime(p)
    order = surface.order
    f = order.conductor
    if f % p != 0:
        raise PreconditionError(
            f"{int_text(p)} does not divide the conductor {int_text(f)}"
        )
    if stabilizer_order(surface).conductor % p != 0:
        raise PreconditionError(
            f"an order of conductor prime to {int_text(p)} already acts on the "
            "lattice"
        )
    deg = degree(surface)
    if deg % p == 0:
        raise PreconditionError(f"{int_text(p)} divides the degree {int_text(deg)}")
    t = intmat.rank_mod_p(surface.action, p)
    if t != 2:
        raise InvariantBreach(f"enlargement rank invariant is {int_text(t)}, expected 2")
    el_cubed = order.element(p**3, 0)
    twisted = twist_by_element(surface, el_cubed, norm=el_cubed.norm())
    twist_step = IsogenyStep(
        kind=TWIST,
        prime=p,
        alpha=(el_cubed.x, el_cubed.y),
        degree_before=deg,
        degree_after=degree(twisted),
    )
    kernel = enlargement_kernel(twisted, p)
    if kernel.group_order != p ** (4 + t):
        raise InvariantBreach(
            f"enlargement kernel has order {int_text(kernel.group_order)}, "
            f"expected {int_text(p ** (4 + t))}"
        )
    try:
        descended = descend_polarization(twisted, kernel)
    except (DescentError, PreconditionError) as exc:
        raise InvariantBreach(f"guaranteed enlargement descent failed: {exc}") from exc
    quotient_step = IsogenyStep(
        kind=QUOTIENT,
        prime=p,
        kernel_overlattice=kernel,
        degree_before=degree(twisted),
        degree_after=degree(descended),
        t=t,
    )
    if any(x % p for row in descended.action for x in row):
        raise InvariantBreach("enlarged generator does not act integrally")
    action = intmat.freeze((x // p for x in row) for row in descended.action)
    out = canonicalize_orientation(
        make_order(order.D, f // p), action, descended.gram, descended.pf
    )
    return out, (twist_step, quotient_step)


def _outcome(move, s, p):
    """(surface, kept pfaffian, steps) of a move, or its exception's type and
    message."""
    try:
        out, steps = move(s, p)
    except (InvariantBreach, PreconditionError) as exc:
        return type(exc), str(exc)
    return out, out.__dict__["pf"], steps


def _reoriented(s):
    """The same surface with its last two basis vectors swapped: pfaffian -pf."""
    swap = (0, 1, 3, 2)
    action, gram = ([[m[i][j] for j in swap] for i in swap] for m in (s.action, s.gram))
    out = PolarizedRMSurface(s.order, intmat.freeze(action), intmat.freeze(gram))
    assert out.pf == -s.pf
    return out


def _conductor_shapes():
    """The (D, f, primes) shapes of the benchmark's conductor workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.conductor()


# every conductor shape, then f = 3^6 and f = 5*7*11
SHAPES = _conductor_shapes() + [
    (5, 3**6, (11,)),
    (2, 3**6, ()),
    (13, 5 * 7 * 11, (17,)),
    (17, 5 * 7 * 11, (13,)),
]


@pytest.mark.parametrize("D, f, primes", SHAPES)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(seed=st.integers(0, 10**6), flip=st.booleans())
def test_enlargement_equals_the_reference_along_the_conductor(D, f, primes, seed, flip):
    try:
        s = generate_instance(D, f, primes, seed)
    except PreconditionError:  # a suborder with no norm +-p element
        s = generate_instance(D, f, (), seed)
    start_degree = degree(s)
    if flip:
        s = _reoriented(s)
    for p, mult in sorted(factorize(f).items()):
        for _ in range(mult):
            new = _outcome(enlarge_order_step, s, p)
            ref = _outcome(reference_enlarge_order_step, s, p)
            assert new == ref
            assert isinstance(new[0], PolarizedRMSurface), new
            s = new[0]
    assert s.order.conductor == 1 and degree(s) == start_degree


def _corrupted(D, f, primes, seed, changes):
    """An instance whose action has the given entries moved by the given amounts."""
    s = generate_instance(D, f, primes, seed)
    action = [list(row) for row in s.action]
    for i, j, delta in changes:
        action[i][j] += delta
    return PolarizedRMSurface(s.order, intmat.freeze(action), s.gram)


@pytest.mark.parametrize(
    "changes, message",
    [
        ([(1, 2, -1), (3, 0, 3)], "enlargement rank invariant is 1, expected 2"),
        ([(2, 1, 1)], "enlargement rank invariant is 3, expected 2"),
        ([(0, 3, 1), (2, 1, 1)], "enlargement rank invariant is 4, expected 2"),
        (
            [(0, 0, -1)],
            "guaranteed enlargement descent failed: polarization does not descend: "
            "pairing of overlattice generators",
        ),
        ([(0, 2, -3), (1, 1, 1)], "enlarged generator does not act integrally"),
    ],
)
def test_a_corrupted_action_gives_the_references_breach(changes, message):
    bad = _corrupted(5, 3, [], 0, changes)
    new = _outcome(enlarge_order_step, bad, 3)
    assert new == _outcome(reference_enlarge_order_step, bad, 3)
    assert new[0] is InvariantBreach and new[1].startswith(message)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    instance=st.sampled_from([(5, 3, [], 0), (5, 9, [11], 1), (13, 7, [3], 2), (2, 25, [7], 3)]),
    changes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from((-9, -3, -1, 1, 3, 9))),
        min_size=1,
        max_size=2,
    ),
)
def test_any_corrupted_action_gives_the_references_outcome(instance, changes):
    bad = _corrupted(*instance, changes)
    p = min(factorize(bad.order.conductor))
    assert _outcome(enlarge_order_step, bad, p) == _outcome(reference_enlarge_order_step, bad, p)


def test_an_enlargement_move_row_reduces_mod_p_once(monkeypatch):
    # t is read off the kernel's Hermite form, not from a second elimination
    calls = []
    real = intmat.rref_mod_p

    def counting(m, p):
        calls.append(p)
        return real(m, p)

    def refused(m, p):
        raise AssertionError("rank_mod_p called by an enlargement move")

    monkeypatch.setattr(intmat, "rref_mod_p", counting)
    monkeypatch.setattr(intmat, "rank_mod_p", refused)
    s = generate_instance(13, 5 * 7 * 11, [3], 1)
    for p in (5, 7, 11):
        calls.clear()
        s, (_, quotient) = enlarge_order_step(s, p)
        assert calls == [p] and quotient.t == 2


def test_an_enlargement_move_takes_no_determinant_outside_change_basis(monkeypatch):
    # the kernel's Hermite form has t unit and 4 - t diagonal entries p, so
    # its order p^(4+t) needs no determinant once t is checked
    outside, depth = [], []
    real_det, real_change_basis = intmat.det, reduction.change_basis

    def counting_det(m):
        if not depth:
            outside.append(m)
        return real_det(m)

    def inside_change_basis(*args):
        depth.append(1)
        try:
            return real_change_basis(*args)
        finally:
            depth.pop()

    s = generate_instance(13, 5 * 7 * 11, [3], 1)
    monkeypatch.setattr(intmat, "det", counting_det)
    monkeypatch.setattr(reduction, "change_basis", inside_change_basis)
    for p in (5, 7, 11):
        s, (_, quotient) = enlarge_order_step(s, p)
        assert quotient.t == 2
    assert outside == []


def test_principalize_builds_no_twisted_surface_inside_enlargement(monkeypatch):
    calls = {"inside": 0, "outside": 0, "enlargements": 0}
    inside = [False]
    real_twist, real_enlarge = surface.twist_by_element, reduction.enlarge_order_step

    def counting_twist(*args, **kw):
        calls["inside" if inside[0] else "outside"] += 1
        return real_twist(*args, **kw)

    def flagged_enlarge(*args):
        calls["enlargements"] += 1
        inside[0] = True
        try:
            return real_enlarge(*args)
        finally:
            inside[0] = False

    s = generate_instance(5, 3**6, [11], 0)
    for module in (surface, isogeny, reduction):
        monkeypatch.setattr(module, "twist_by_element", counting_twist, raising=False)
    monkeypatch.setattr(reduction, "enlarge_order_step", flagged_enlarge)
    out, cert = principalize(s)
    assert calls["enlargements"] == 6 and calls["inside"] == 0
    # the degree-reduction division at 11 still twists, through isogeny
    assert calls["outside"] >= 1
    assert [st.kind for st in cert.steps].count(TWIST) == 6
