"""The order-enlargement pass against the moves it replaced.

reduction._enlarge is the one pass over the conductor's primes: it
carries only the action and the product P of the moves' kernel bases, and
descends the gram once, as P^T E P / (p_1 ... p_k). enlarge_order_step,
the pass over one prime with the refusals the package's former public
move made, lives here, as no code in the package calls it.
reference_enlarge_order_step is the former move: it builds the twisted
surface (twist_by_element by p^3), checks the action on the canonical
kernel's overlattice and then descends to it (descend_polarization), and
divides the action by p; a chain of it, once per prime, must give the
pass's steps, surface and pfaffian, through surfaces that each stay
tight. On a corrupted action the pass checks each move's action as it
comes and the gram once at the end, and reference_deferred_descent does
the same from generic products. The pass's parts are also checked
against the generic routines they replaced: the two-row elimination
(intmat.hnf_mod_p_rank2) against hnf_mod_p, the block change of the
action (surface.enlarge_basis) against change_basis's action followed by
the exact division by p, on every pivot pair, and the one descent of the
gram against the per-move descents.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from math import prod
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
from rmlattice.arith import factorize, int_text, rational_text, require_odd_prime
from rmlattice.generator import generate_instance
from rmlattice.isogeny import QUOTIENT, TWIST, IsogenyStep
from rmlattice.reduction import enlargement_kernel
from rmlattice.surface import (
    PolarizedRMSurface,
    canonicalize_orientation,
    change_basis,
    stabilizer_order,
)
from test_intmat_oracles import div_exact


def _refusals(surface, p):
    """The degree of surface, after the four refusals of an enlargement at
    p: an even or composite p, a p not dividing the conductor, a surface
    on which an order of conductor prime to p already acts, and a p
    dividing the degree."""
    require_odd_prime(p)
    f = surface.order.conductor
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
    return deg


def enlarge_order_step(surface, p):
    """One conductor-prime enlargement: the pass over the one prime, after
    the four refusals the package's public move made."""
    return reduction._enlarge(surface, (p,), _refusals(surface, p))


def _reference_action(action, basis, p):
    """basis^-1 action basis / p from generic products, adj(basis) action
    basis / p^3 as det(basis) = p^2, with the pass's two action
    refusals."""
    assert intmat.det(basis) == p * p
    m = intmat.mat_mul(intmat.mat_mul(intmat.adjugate(basis), action), basis)
    if div_exact(m, p * p) is None:
        raise InvariantBreach(
            "guaranteed enlargement descent failed: order action does not preserve the lattice"
        )
    out = div_exact(m, p**3)
    if out is None:
        raise InvariantBreach("enlarged generator does not act integrally")
    return out


def _rank_two(action, p):
    t = intmat.rank_mod_p(action, p)
    if t != 2:
        raise InvariantBreach(f"enlargement rank invariant is {int_text(t)}, expected 2")


def reference_enlarge_order_step(surface, p):
    """The former enlarge_order_step: twist by p^3, quotient, divide by p,
    with the action checked before the descent, as the pass checks them."""
    deg = _refusals(surface, p)
    order = surface.order
    _rank_two(surface.action, p)
    el_cubed = order.element(p**3, 0)
    twisted = twist_by_element(surface, el_cubed, norm=el_cubed.norm())
    twist_step = IsogenyStep(
        kind=TWIST,
        prime=p,
        alpha=(el_cubed.x, el_cubed.y),
        degree_before=deg,
        degree_after=degree(twisted),
    )
    kernel = enlargement_kernel(twisted.action, p)
    if kernel.group_order != p**6:
        raise InvariantBreach(
            f"enlargement kernel has order {int_text(kernel.group_order)}, "
            f"expected {int_text(p**6)}"
        )
    action = _reference_action(twisted.action, kernel.basis, p)
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
        t=2,
    )
    out = canonicalize_orientation(
        make_order(order.D, order.conductor // p), action, descended.gram, descended.pf
    )
    return out, (twist_step, quotient_step)


def reference_chain(surface, primes):
    """reference_enlarge_order_step once per prime, asserting that every
    surface it reaches is tight: its stabilizer's conductor is its stored
    one, which is what lets the pass check no move."""
    steps = ()
    for p in primes:
        surface, pair = reference_enlarge_order_step(surface, p)
        assert stabilizer_order(surface).conductor == surface.order.conductor
        steps += pair
    return surface, steps


def reference_deferred_descent(surface, primes):
    """The pass's check order on any surface, from generic products: each
    move's rank and action checked as it comes, then the gram descended
    once, by the product P of the kernel bases, as P^T E P / (p_1 ... p_k),
    naming its first non-integral pairing in row order."""
    order = surface.order
    if surface.pf < 0:
        surface = canonicalize_orientation(order, surface.action, surface.gram, surface.pf)
    deg, den = degree(surface), prod(primes)
    action, basis, steps = surface.action, intmat.identity(), ()
    for p in primes:
        _rank_two(action, p)
        kernel = enlargement_kernel(action, p)
        action = _reference_action(action, kernel.basis, p)
        basis = intmat.mat_mul(basis, kernel.basis)
        steps += (
            IsogenyStep(
                kind=TWIST, prime=p, alpha=(p**3, 0), degree_before=deg,
                degree_after=deg * p**12,
            ),
            IsogenyStep(
                kind=QUOTIENT, prime=p, kernel_overlattice=kernel,
                degree_before=deg * p**12, degree_after=deg, t=2,
            ),
        )
    gram = intmat.mat_mul(intmat.transpose(basis), intmat.mat_mul(surface.gram, basis))
    for i in range(4):
        for j in range(4):
            if gram[i][j] % den:
                raise InvariantBreach(
                    "guaranteed enlargement descent failed: polarization does not descend: "
                    f"pairing of overlattice generators {i} and {j} is "
                    f"{rational_text(gram[i][j], den)}, not integral"
                )
    out = canonicalize_orientation(
        make_order(order.D, order.conductor // den), action, div_exact(gram, den), surface.pf
    )
    return out, steps


def _outcome(move, s, p):
    """(surface, kept pfaffian, steps) of a move, or its exception's type and
    message."""
    try:
        out, steps = move(s, p)
    except (InvariantBreach, PreconditionError) as exc:
        return type(exc), str(exc)
    return out, out.__dict__["pf"], steps


def _pass(s, primes):
    return reduction._enlarge(s, primes, degree(s))


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


def _primes(f):
    """The primes of f in increasing order, with multiplicity."""
    return [p for p, mult in sorted(factorize(f).items()) for _ in range(mult)]


# every conductor shape, then f = 3^6, f = 5*7*11 and f = 3^12
SHAPES = _conductor_shapes() + [
    (5, 3**6, (11,)),
    (2, 3**6, ()),
    (13, 5 * 7 * 11, (17,)),
    (17, 5 * 7 * 11, (13,)),
    (5, 3**12, (11,)),
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
    conductor_primes = _primes(f)
    new = _outcome(_pass, s, conductor_primes)
    assert new == _outcome(reference_chain, s, conductor_primes)
    assert isinstance(new[0], PolarizedRMSurface), new
    assert new[0].order.conductor == 1 and degree(new[0]) == start_degree
    # the pass over one prime at a time, each with its refusals, is the chain too
    current = s
    for p in conductor_primes:
        current, _ = enlarge_order_step(current, p)
    assert current == new[0] and current.pf == new[1]


def _corrupted(D, f, primes, seed, changes):
    """An instance whose action has the entries (i, j) moved by delta, and
    whose gram has the pairs (i, j), (j, i) of each ("gram", i, j, delta)
    moved by delta and -delta, so that it stays alternating."""
    s = generate_instance(D, f, primes, seed)
    action, gram = [list(row) for row in s.action], [list(row) for row in s.gram]
    for change in changes:
        if change[0] == "gram":
            _, i, j, delta = change
            gram[i][j] += delta
            gram[j][i] -= delta
        else:
            i, j, delta = change
            action[i][j] += delta
    return PolarizedRMSurface(s.order, intmat.freeze(action), intmat.freeze(gram))


@pytest.mark.parametrize(
    "changes, message",
    [
        ([(1, 2, -1), (3, 0, 3)], "enlargement rank invariant is 1, expected 2"),
        ([(2, 1, 1)], "enlargement rank invariant is 3, expected 2"),
        ([(0, 3, 1), (2, 1, 1)], "enlargement rank invariant is 4, expected 2"),
        # no action moved by one or two of these changes that passes both
        # action checks fails the descent on this instance, so the gram is
        # moved here
        (
            [("gram", 1, 3, -1)],
            "guaranteed enlargement descent failed: polarization does not descend: "
            "pairing of overlattice generators",
        ),
        ([(0, 2, -3), (1, 1, 1)], "enlarged generator does not act integrally"),
        # fails both the descent and an action check: the action reports
        # first, as the pass checks it at the move and the gram at the end
        ([(0, 0, -1)], "enlarged generator does not act integrally"),
    ],
)
def test_a_corrupted_action_gives_the_references_breach(changes, message):
    bad = _corrupted(5, 3, [], 0, changes)
    new = _outcome(enlarge_order_step, bad, 3)
    assert new == _outcome(reference_enlarge_order_step, bad, 3)
    assert new == _outcome(reference_deferred_descent, bad, [3])
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
    conductor_primes = _primes(bad.order.conductor)
    p = conductor_primes[0]
    assert _outcome(enlarge_order_step, bad, p) == _outcome(reference_enlarge_order_step, bad, p)
    # over every conductor prime: each action at its move, the gram once at the end
    assert _outcome(_pass, bad, conductor_primes) == _outcome(
        reference_deferred_descent, bad, conductor_primes
    )


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
    # the block change of the action (enlarge_basis) and the one descent of
    # the gram (descend_gram) replace change_basis in the pass, and the
    # kernel's Hermite form has two unit and two p diagonal entries, so its
    # order p^6 needs no determinant: a valid pass takes none, and calls
    # neither change_basis nor the division it followed
    s = start = generate_instance(13, 5 * 7 * 11, [3], 1)
    monkeypatch.setattr(intmat, "det", _refused("det"))
    monkeypatch.setattr(surface, "change_basis", _refused("change_basis"))
    assert not hasattr(reduction, "change_basis") and not hasattr(intmat, "div_exact")
    for p in (5, 7, 11):
        s, (_, quotient) = enlarge_order_step(s, p)
        assert quotient.t == 2
    out, steps = _pass(start, [5, 7, 11])
    assert out == s and [st.t for st in steps[1::2]] == [2, 2, 2]


def test_principalize_builds_no_twisted_surface_inside_enlargement(monkeypatch):
    calls = {"inside": 0, "outside": 0, "enlargements": 0}
    inside = [False]
    real_twist, real_enlarge = surface.twist_by_element, reduction._enlarge

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
    monkeypatch.setattr(reduction, "_enlarge", flagged_enlarge)
    out, cert = principalize(s)
    # one pass over the six primes of 3^6
    assert calls["enlargements"] == 1 and calls["inside"] == 0
    # the degree-reduction division at 11 still twists, through isogeny
    assert calls["outside"] >= 1
    assert [st.kind for st in cert.steps].count(TWIST) == 6


@pytest.mark.parametrize(
    "D, f, primes, seed, flip, moves",
    [
        (5, 3**6, [11], 0, False, 6),
        (5, 3**6, [11], 0, True, 6),
        (13, 5 * 7 * 11, [17], 1, False, 3),
        (5, 1, [11], 0, False, 0),
        (5, 1, [11, 19], 2, True, 0),
    ],
)
def test_principalize_descends_the_gram_once_and_builds_one_surface(
    monkeypatch, D, f, primes, seed, flip, moves
):
    # no degree prime here is repeated, so no squarefree quotient calls
    # change_basis and with it the shared pairing code: what calls it is
    # the pass, once when f > 1 and never when f = 1; between its moves the
    # pass builds no surface, only the one at its end and, for a surface
    # of negative pfaffian, the reoriented one at its start
    s = generate_instance(D, f, primes, seed)
    if flip:
        s = _reoriented(s)
    counts = {"descend_gram": 0, "enlarge_basis": 0, "built inside": 0}
    inside = [False]

    def counting(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    def flagged_enlarge(*args):
        inside[0] = True
        try:
            return real_enlarge(*args)
        finally:
            inside[0] = False

    real_init, real_enlarge = PolarizedRMSurface.__init__, reduction._enlarge

    def counting_init(self, *args, **kw):
        counts["built inside"] += inside[0]
        real_init(self, *args, **kw)

    descend = counting("descend_gram", surface.descend_gram)
    for module in (surface, reduction):
        monkeypatch.setattr(module, "descend_gram", descend)
    monkeypatch.setattr(reduction, "enlarge_basis", counting("enlarge_basis", surface.enlarge_basis))
    monkeypatch.setattr(reduction, "_enlarge", flagged_enlarge)
    monkeypatch.setattr(PolarizedRMSurface, "__init__", counting_init)
    out, cert = principalize(s)
    assert [st.kind for st in cert.steps].count(QUOTIENT) == moves
    assert counts["enlarge_basis"] == moves
    assert counts["descend_gram"] == (moves > 0)
    assert counts["built inside"] == (moves > 0) * (1 + flip)


# ---------------------------------------------------------------------------
# the pass's parts against the generic routines they replaced
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
        enlargement_kernel(bad.action, p)
    assert str(breach.value) == f"enlargement rank invariant is {rank}, expected 2"


def _reference_enlarge_basis(s, basis, p):
    """change_basis's action on basis, divided by p, as the move made it
    before the block form (the gram is not descended, gram_den 1): the
    action, or the type and text of the first refusal."""
    try:
        action, _, pf = change_basis(s, basis, 1)
    except PreconditionError as exc:
        return type(exc), str(exc)
    assert pf == p * p * s.pf  # det(basis) = p^2
    action = div_exact(action, p)
    if action is None:
        return InvariantBreach, "enlarged generator does not act integrally"
    return action


def _block_outcome(s, basis, p):
    try:
        return surface.enlarge_basis(s.action, basis, p)
    except (PreconditionError, InvariantBreach) as exc:
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


def _descent_outcome(descend, *args):
    try:
        return descend(*args)
    except DescentError as exc:
        return DescentError, str(exc)


@pytest.mark.parametrize("i, j", PIVOTS)
@pytest.mark.parametrize("p", BLOCK_PRIMES)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_the_block_change_is_change_basis_then_the_division(i, j, p, data):
    s, basis = data.draw(block_cases(i, j, p))
    assert _block_outcome(s, basis, p) == _reference_enlarge_basis(s, basis, p)
    # the gram's one descent is change_basis's, on an action (the identity)
    # that every basis preserves
    gram_only = PolarizedRMSurface(s.order, intmat.identity(), s.gram)
    assert _descent_outcome(surface.descend_gram, s.gram, basis, p) == _descent_outcome(
        lambda: change_basis(gram_only, basis, p)[1]
    )


def test_each_refusal_of_the_block_change_is_the_references():
    # pivots 1 and 3 mod 3, with N nonzero: the pivot columns are e1 + 2 e2
    # and e3
    basis = intmat.hnf_mod_p([(0, 1, 2, 0), (0, 0, 0, 1)], 3)
    assert basis == ((3, 0, 0, 0), (0, 1, 0, 0), (0, 2, 3, 0), (0, 0, 0, 1))
    zero = ((0,) * 4,) * 4
    gram_13 = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, -1, 0, 0))
    order = make_order(5, 1)
    # A_01 = 1: the block R + S N - N (P + Q N) has a 1 at (k, i) = (0, 1)
    not_preserved = ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    cases = {
        (PreconditionError, "order action does not preserve the lattice"): not_preserved,
        # the identity preserves every lattice and is not divisible by 3
        (InvariantBreach, "enlarged generator does not act integrally"): intmat.identity(),
    }
    for expected, matrix in cases.items():
        s = PolarizedRMSurface(order, matrix, zero)
        assert _block_outcome(s, basis, 3) == expected == _reference_enlarge_basis(s, basis, 3)
    # the pivot pairing of e1 + 2 e2 and e3 is E_13 + 2 E_23 = 1, which the
    # one descent of the gram names as change_basis does
    expected = (
        DescentError,
        "polarization does not descend: pairing of overlattice generators 1 and 3 is 1/3, "
        "not integral",
    )
    s = PolarizedRMSurface(order, intmat.identity(), gram_13)
    assert _descent_outcome(surface.descend_gram, gram_13, basis, 3) == expected
    with pytest.raises(DescentError) as refusal:
        change_basis(s, basis, 3)
    assert str(refusal.value) == expected[1]


# instances along the conductor: f = 3^6, 5*7*11 and a workload shape with
# three distinct primes, 3^2 * 5 * 7
GRAM_CASES = [(5, 3**6, [11], 0), (13, 5 * 7 * 11, [17], 1), (2, 3 * 3 * 5 * 7, [], 2)]


@pytest.mark.parametrize("D, f, primes, seed", GRAM_CASES)
def test_the_one_descent_is_the_per_move_block_grams(D, f, primes, seed):
    # each move's gram is change_basis(surface, B, p) on the surface before
    # it (the block form's B^T E B / p); the pass's one descent, by the
    # product of the bases over the product of the primes, is the last of them
    s = generate_instance(D, f, primes, seed)
    action, gram, basis, den = s.action, s.gram, intmat.identity(), 1
    for p in _primes(f):
        kernel = enlargement_kernel(action, p)
        moved, gram, pf = change_basis(PolarizedRMSurface(s.order, action, gram), kernel.basis, p)
        assert pf == s.pf
        action = div_exact(moved, p)
        basis, den = intmat.lower_mat_mul(basis, kernel.basis), den * p
        assert surface.descend_gram(s.gram, basis, den) == gram
    out, _ = _pass(s, _primes(f))
    assert (out.action, out.gram) == (action, gram)
