"""The order-enlargement move against the move it replaced.

reference_enlarge_order_step is the former enlarge_order_step: it builds
the twisted surface (twist_by_element by p^3), descends it to the
canonical kernel's overlattice (descend_polarization) and divides the
action by p. reduction.enlarge_order_step records the twist instead of
building it and descends in one change of basis; the two must agree on
every surface, step and message. The move's two halves are also checked
against the generic routines they replaced: the two-row elimination
(intmat.hnf_mod_p_rank2) against hnf_mod_p, and the block change of
basis (surface.enlarge_basis) against change_basis followed by the
exact division by p, on every pivot pair.
"""

from __future__ import annotations

import importlib.util
import random
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
    standard_instance,
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
    change_basis,
    stabilizer_order,
)
from test_intmat_oracles import div_exact


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
    spec = importlib.util.spec_from_file_location("perfbench_workload_shapes", path)
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


def _refused(name):
    """A stand-in for name that fails the test when called."""

    def call(*args):
        raise AssertionError(f"{name} called by a valid enlargement move")

    return call


def test_an_enlargement_move_row_reduces_mod_p_once(monkeypatch):
    # a valid move finds its kernel by the one two-row elimination
    # (hnf_mod_p_rank2) and never by the generic one, which hnf_mod_p,
    # kernel_mod_p, span_mod_p and rank_mod_p all read
    calls = []
    real = intmat.hnf_mod_p_rank2

    def counting(columns, p):
        calls.append(p)
        return real(columns, p)

    s = generate_instance(13, 5 * 7 * 11, [3], 1)
    monkeypatch.setattr(intmat, "hnf_mod_p_rank2", counting)
    monkeypatch.setattr(intmat, "_eliminate_mod_p", _refused("_eliminate_mod_p"))
    monkeypatch.setattr(intmat, "rank_mod_p", _refused("rank_mod_p"))
    for p in (5, 7, 11):
        calls.clear()
        s, (_, quotient) = enlarge_order_step(s, p)
        assert calls == [p] and quotient.t == 2


def test_an_enlargement_move_takes_no_determinant_outside_change_basis(monkeypatch):
    # the block change of basis (enlarge_basis) replaces change_basis in the
    # move, and the kernel's Hermite form has two unit and two p diagonal
    # entries, so its order p^6 needs no determinant: a valid move takes
    # none, and calls neither change_basis nor the division it followed
    s = generate_instance(13, 5 * 7 * 11, [3], 1)
    monkeypatch.setattr(intmat, "det", _refused("det"))
    monkeypatch.setattr(surface, "change_basis", _refused("change_basis"))
    assert not hasattr(reduction, "change_basis") and not hasattr(intmat, "div_exact")
    for p in (5, 7, 11):
        s, (_, quotient) = enlarge_order_step(s, p)
        assert quotient.t == 2


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


# ---------------------------------------------------------------------------
# the two halves of the move against the generic routines they replaced
# ---------------------------------------------------------------------------

BLOCK_PRIMES = (3, 5, 7, 11, 13)
# every pivot pair of a rank-2 Hermite form mod p; each occurs on the
# benchmark's workloads
PIVOTS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _rref_rows(i, j, p, draw):
    """Two reduced echelon rows mod p with pivots i < j, the free entries
    drawn: zeros before each pivot and at the other pivot."""
    u, v = [0] * 4, [0] * 4
    u[i], v[j] = 1, 1
    for c in range(i + 1, 4):
        if c != j:
            u[c] = draw(st.integers(0, p - 1))
    for c in range(j + 1, 4):
        v[c] = draw(st.integers(0, p - 1))
    return u, v


@st.composite
def rank2_columns(draw, i, j, p):
    """(columns, u, v): four integer columns spanning the plane of the
    echelon rows u, v mod p, in any order and lifted by multiples of p."""
    u, v = _rref_rows(i, j, p, draw)
    coefficients = [draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))) for _ in range(4)]
    if (coefficients[0][0] * coefficients[1][1] - coefficients[0][1] * coefficients[1][0]) % p == 0:
        coefficients[0], coefficients[1] = (1, 0), (draw(st.integers(0, p - 1)), 1)
    coefficients = draw(st.permutations(coefficients))
    lifts = st.integers(-3, 3)
    columns = [
        tuple(a * x + b * y + p * draw(lifts) for x, y in zip(u, v)) for a, b in coefficients
    ]
    return columns, u, v


@pytest.mark.parametrize("i, j", PIVOTS)
@pytest.mark.parametrize("p", BLOCK_PRIMES)
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_the_two_row_elimination_is_the_generic_hermite_form(i, j, p, data):
    columns, u, v = data.draw(rank2_columns(i, j, p))
    out = intmat.hnf_mod_p_rank2(iter(columns), p)
    assert out == intmat.hnf_mod_p(columns, p)
    assert [out[r][r] == 1 for r in range(4)] == [r in (i, j) for r in range(4)]
    assert (tuple(row[i] for row in out), tuple(row[j] for row in out)) == (tuple(u), tuple(v))


def _rank_r_matrix(rank, p, rng):
    """A 4x4 integer matrix of the given rank mod p: rank independent
    echelon columns and combinations of them, shuffled and lifted by
    multiples of p."""
    pivots = sorted(rng.sample(range(4), rank))
    basis = []
    for c in pivots:
        vec = [0] * 4
        vec[c] = 1
        for k in range(c + 1, 4):
            if k not in pivots:
                vec[k] = rng.randrange(p)
        basis.append(vec)
    columns = list(basis)
    while len(columns) < 4:
        factors = [rng.randrange(p) for _ in basis]
        columns.append([sum(f * vec[r] for f, vec in zip(factors, basis)) for r in range(4)])
    rng.shuffle(columns)
    return intmat.freeze(
        [[columns[c][r] + p * rng.randint(-2, 2) for c in range(4)] for r in range(4)]
    )


@pytest.mark.parametrize("rank", [0, 1, 3, 4])
@pytest.mark.parametrize("p", BLOCK_PRIMES)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(seed=st.integers(0, 10**6))
def test_any_other_rank_gives_no_two_row_hermite_form(rank, p, seed):
    action = _rank_r_matrix(rank, p, random.Random(seed))
    h = intmat.hnf_mod_p(zip(*action), p)
    assert [h[r][r] for r in range(4)].count(1) == rank
    assert intmat.hnf_mod_p_rank2(zip(*action), p) is None


@pytest.mark.parametrize("rank", [0, 1, 3, 4])
@pytest.mark.parametrize("p", BLOCK_PRIMES)
def test_the_kernel_of_any_other_rank_is_a_breach_naming_it(rank, p):
    s = standard_instance(make_order(5, 1))
    bad = PolarizedRMSurface(s.order, _rank_r_matrix(rank, p, random.Random(p)), s.gram)
    with pytest.raises(InvariantBreach) as breach:
        enlargement_kernel(bad, p)
    assert str(breach.value) == f"enlargement rank invariant is {rank}, expected 2"


def _reference_enlarge_basis(s, basis, p):
    """change_basis(s, basis, p) with the action then divided by p, as the
    move made them before the block form: (action, gram), or the type and
    text of the first refusal."""
    try:
        action, gram, pf = change_basis(s, basis, p)
    except (DescentError, PreconditionError) as exc:
        return type(exc), str(exc)
    assert pf == s.pf  # det(basis) = p^2
    action = div_exact(action, p)
    if action is None:
        return InvariantBreach, "enlarged generator does not act integrally"
    return action, gram


def _block_outcome(s, basis, p):
    try:
        return surface.enlarge_basis(s, basis, p)
    except (DescentError, PreconditionError, InvariantBreach) as exc:
        return type(exc), str(exc)


@st.composite
def block_cases(draw, i, j, p):
    """(surface, basis): basis the Hermite form of a rank-2 kernel mod p
    with pivots i < j; an action B M (p B^-1) and a gram (p B^-1)^T E0
    (p B^-1), for which the block change succeeds, each left as it is or
    moved at one entry (the gram at a pair, so it stays alternating), by
    1 or by p, so that every refusal can be reached."""
    u, v = _rref_rows(i, j, p, draw)
    basis = intmat.hnf_mod_p([u, v], p)
    p_inverse = div_exact(intmat.adjugate(basis), p)  # adj(B) = p^2 B^-1
    entries = st.integers(-20, 20)
    m = [[draw(entries) for _ in range(4)] for _ in range(4)]
    action = [list(row) for row in intmat.mat_mul(intmat.mat_mul(basis, m), p_inverse)]
    e0 = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            e0[a][b] = draw(entries)
            e0[b][a] = -e0[a][b]
    gram = [list(row) for row in intmat.mat_mul(
        intmat.mat_mul(intmat.transpose(p_inverse), e0), p_inverse
    )]
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    action[a][b] += draw(st.sampled_from((0, 1, p)))
    if a != b:
        delta = draw(st.sampled_from((0, 1, p)))
        gram[a][b] += delta
        gram[b][a] -= delta
    return (
        PolarizedRMSurface(make_order(5, 1), intmat.freeze(action), intmat.freeze(gram)),
        basis,
    )


@pytest.mark.parametrize("i, j", PIVOTS)
@pytest.mark.parametrize("p", BLOCK_PRIMES)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_the_block_change_is_change_basis_then_the_division(i, j, p, data):
    s, basis = data.draw(block_cases(i, j, p))
    assert _block_outcome(s, basis, p) == _reference_enlarge_basis(s, basis, p)


def test_each_refusal_of_the_block_change_is_the_references():
    # pivots 1 and 3 mod 3, with N nonzero: the pivot columns are e1 + 2 e2
    # and e3
    basis = intmat.hnf_mod_p([(0, 1, 2, 0), (0, 0, 0, 1)], 3)
    assert basis == ((3, 0, 0, 0), (0, 1, 0, 0), (0, 2, 3, 0), (0, 0, 0, 1))
    zero = ((0,) * 4,) * 4
    gram_13 = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, -1, 0, 0))
    order = make_order(5, 1)
    cases = {
        # the pivot pairing of e1 + 2 e2 and e3 is E_13 + 2 E_23 = 1
        (DescentError, "polarization does not descend: pairing of overlattice "
         "generators 1 and 3 is 1/3, not integral"): gram_13,
        # A_01 = 1: the block R + S N - N (P + Q N) has a 1 at (k, i) = (0, 1)
        (PreconditionError, "order action does not preserve the lattice"): (
            ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
        ),
        # the identity preserves every lattice and is not divisible by 3
        (InvariantBreach, "enlarged generator does not act integrally"): intmat.identity(),
    }
    for expected, matrix in cases.items():
        if expected[0] is DescentError:
            s = PolarizedRMSurface(order, intmat.identity(), matrix)
        else:
            s = PolarizedRMSurface(order, matrix, zero)
        assert _block_outcome(s, basis, 3) == expected == _reference_enlarge_basis(s, basis, 3)
