"""Basis change, descent, division: primitives and their exact bookkeeping."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import (
    DescentError,
    InvariantBreach,
    PreconditionError,
    degree,
    descend_polarization,
    divide_by_symmetric,
    eigen_sublattice_pullback,
    enlarge_order_step,
    factor_prime,
    make_order,
    splitting_type,
    standard_instance,
    twist_by_element,
    validate,
)
from rmlattice import generator, intmat, isogeny
from rmlattice.quadratic import OrderElement
from rmlattice.surface import (
    KernelSubgroup,
    PolarizedRMSurface,
    kernel_from_subspace,
    polarization_kernel_mod_p,
    rebase,
)
from rmlattice.generator import _raise_degree, generate_instance, random_unimodular
from rmlattice.quadratic import SPLIT, prime_norm
from rmlattice.surface import apply_unimodular
from test_intmat_oracles import (
    hnf_column_basis,
    inverse,
    overlattice,
    reference_hnf_mod,
    to_fraction,
)
from test_reduction import order_p_squared_subspace


def _exponent(kernel):
    """The least m with m*L' <= L: the lcm of the overlattice denominators."""
    return lcm(*(Fraction(x).denominator for row in overlattice(kernel) for x in row))


def can_descend(surface, kernel):
    """Whether the gram form is integral on the kernel's overlattice: rebase
    raises DescentError exactly then (it checks the form before the action)."""
    try:
        rebase(surface, kernel.basis, kernel.den)
    except DescentError:
        return False
    except PreconditionError:
        pass  # the form descends; only the action does not preserve L'
    return True


def descends_by_containment(surface, kernel):
    """The kernel-side descent criterion can_descend is checked against: K
    inside the polarization kernel and the kernel pairing trivial on K x K,
    checked on overlattice generators."""
    h = overlattice(kernel)
    e = to_fraction(surface.gram)
    cols = [tuple(h[i][j] for i in range(4)) for j in range(4)]
    for col in cols:
        row = intmat.mat_vec(intmat.transpose(e), col)
        if not all(x.denominator == 1 for x in row):
            return False  # generator is outside the dual lattice
    for a in cols:
        for b in cols:
            val = sum(a[i] * e[i][j] * b[j] for i in range(4) for j in range(4))
            if val.denominator != 1:
                return False  # pairing not trivial on this pair
    return True


def full_torsion_kernel(surface, p):
    basis = tuple(tuple(1 if i == j else 0 for i in range(4)) for j in range(4))
    return kernel_from_subspace(basis, p)


def test_quotient_trivial_kernel():
    s = standard_instance(make_order(5, 1))
    k = kernel_from_subspace((), 3)
    assert overlattice(k) == to_fraction(intmat.identity())
    assert rebase(s, k.basis, k.den) == s
    assert rebase(s, intmat.identity()) == s


def test_quotient_full_torsion_is_scalar():
    s = standard_instance(make_order(5, 1))
    k = full_torsion_kernel(s, 3)
    assert k.group_order == 81 and _exponent(k) == 3
    assert overlattice(k) == tuple(
        tuple(Fraction(1, 3) if i == j else Fraction(0) for j in range(4))
        for i in range(4)
    )
    scaled = twist_by_element(s, s.order.element(9, 0), norm=81)  # gram 9E
    out = rebase(scaled, k.basis, k.den)
    assert out.action == s.action  # scalar rebasing commutes
    assert out.gram == s.gram


def test_quotient_rejects_unstable_kernel():
    s = standard_instance(make_order(5, 1))
    # x^2 - x - 1 is irreducible mod 3, so no line is action stable
    k = kernel_from_subspace(((1, 0, 0, 0),), 3)
    # on gram 3E the form descends to the line's overlattice; the action does not
    tripled = twist_by_element(s, s.order.element(3, 0), norm=9)
    assert can_descend(tripled, k)
    with pytest.raises(PreconditionError):
        rebase(tripled, k.basis, k.den)


def test_descend_scalar_example():
    # gram 9E descends along the full 3-torsion to a principal surface
    s = standard_instance(make_order(5, 1))
    scaled = twist_by_element(s, s.order.element(9, 0), norm=81)
    assert degree(scaled) == 9**4
    k = full_torsion_kernel(scaled, 3)
    out = descend_polarization(scaled, k)
    assert degree(out) * k.group_order**2 == degree(scaled)
    assert degree(out) == 1
    assert validate(out) is None


def test_descend_fails_on_principal():
    s = standard_instance(make_order(5, 1))
    el = s.order.element(3, 1)
    tw = twist_by_element(s, el, norm=el.norm())
    lam = polarization_kernel_mod_p(tw, 11)  # action stable, but not in ker
    with pytest.raises(DescentError, match="pairing of overlattice generators"):
        descend_polarization(s, kernel_from_subspace(lam, 11))


def test_descent_error_past_the_digit_limit():
    # f = 3^10 gives gram entries of about 5000 digits, past the interpreter's
    # int/str limit of 4300, on which the error text once raised ValueError
    s = generate_instance(5, 3**10, [11], 1)
    with pytest.raises(DescentError, match="pairing of overlattice generators"):
        descend_polarization(s, kernel_from_subspace(intmat.identity(), 3))


def test_divide_undoes_twist():
    for D, coords in [(5, (3, 1)), (5, (-1, 2)), (13, (2, 1))]:
        s = standard_instance(make_order(D, 1))
        el = s.order.element(*coords)
        tw = twist_by_element(s, el, norm=el.norm())
        back = divide_by_symmetric(tw, el)
        assert back.gram == s.gram and back.action == s.action
        assert validate(back) is None


def test_divide_rejections():
    s = standard_instance(make_order(5, 1))
    with pytest.raises(DescentError):
        divide_by_symmetric(s, s.order.element(-1, 2))  # principal, kernel trivial
    with pytest.raises(PreconditionError):
        divide_by_symmetric(s, s.order.element(0, 1))  # omega is a unit here
    with pytest.raises(PreconditionError):
        divide_by_symmetric(s, s.order.element(0, 0))


def test_divide_by_symmetric_takes_one_norm(monkeypatch):
    s = standard_instance(make_order(5, 1))
    el = s.order.element(3, 1)
    calls, twists = [], []
    real = OrderElement.norm

    def norm(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(OrderElement, "norm", norm)
    monkeypatch.setattr(
        isogeny, "twist_by_element", lambda *args, **kw: twists.append((args, kw))
    )
    divide_by_symmetric(s, el)
    assert calls == [el]
    assert twists == [((s, el.conjugate(), 11), {"norm": 11})]


def test_scale_polarization():
    s = standard_instance(make_order(5, 1))
    scaled = twist_by_element(s, s.order.element(3, 0), norm=9)
    out = divide_by_symmetric(scaled, s.order.element(3, 0))
    assert out.gram == s.gram
    assert degree(scaled) == 3**4 * degree(out)
    with pytest.raises(DescentError):
        divide_by_symmetric(s, s.order.element(3, 0))


def test_descent_criteria_agree_on_random_subgroups():
    rng = random.Random(17)
    surfaces = []
    for D, p in [(13, 3), (3, 3), (5, 5), (11, 5)]:
        s = standard_instance(make_order(D, 1))
        from rmlattice import solve_norm

        el = solve_norm(s.order, p)
        if el is not None:
            surfaces.append((twist_by_element(s, el, norm=el.norm()), p))
        surfaces.append((s, p))
    checked = 0
    for s, p in surfaces * 25:
        dim = rng.choice((1, 2))
        basis = []
        while len(basis) < dim:
            v = tuple(rng.randrange(p) for _ in range(4))
            if any(v) and intmat.rank_mod_p([*basis, v], p) > len(basis):
                basis.append(v)
        k = kernel_from_subspace(tuple(basis), p)
        assert can_descend(s, k) == descends_by_containment(s, k)
        checked += 1
    assert checked >= 200


def _gram_on(surface, basis):
    """The gram form of surface on the lattice spanned by basis's columns."""
    e = to_fraction(surface.gram)
    return intmat.mat_mul(intmat.mat_mul(intmat.transpose(basis), e), basis)


def _descend_with_basis(surface, kernel):
    """descend_polarization, plus the basis it puts on the overlattice (columns
    in the old coordinates): the kernel's overlattice basis, its last two
    columns swapped when that makes the pfaffian positive."""
    out = descend_polarization(surface, kernel)
    basis = overlattice(kernel)
    if intmat.pfaffian4(_gram_on(surface, basis)) < 0:
        basis = tuple(row[:2] + (row[3], row[2]) for row in basis)
    assert _gram_on(surface, basis) == to_fraction(out.gram)
    return out, basis


def test_quotient_functoriality():
    # quotient by K1 then by K2/K1 lands on the same overlattice as K2
    s = standard_instance(make_order(13, 1))
    el = s.order.element(2, 1)  # norm 3
    tw = twist_by_element(twist_by_element(s, el, norm=el.norm()), el, norm=el.norm())
    assert degree(tw) == 81
    assert intmat.alternating_divisors(tw.gram, tw.pf) == (1, 1, 9, 9)
    sub2 = order_p_squared_subspace(tw, 3)
    assert len(sub2) == 2
    k2 = kernel_from_subspace(sub2, 3)
    line = (sub2[0],)
    k1 = kernel_from_subspace(line, 3)
    if not can_descend(tw, k1):
        k1 = kernel_from_subspace((sub2[1],), 3)
    mid, reb1 = _descend_with_basis(tw, k1)
    # K2/K1 inside the quotient: classes of k2 columns in the new basis
    reb1_inv = inverse(reb1)
    cols = [
        tuple(overlattice(k2)[i][j] for i in range(4)) for j in range(4)
    ]
    moved = [intmat.mat_vec(reb1_inv, c) for c in cols]
    # (moved columns + Z^4) as the integer pair (HNF of den * it, den)
    den = lcm(*(Fraction(x).denominator for c in moved for x in c))
    scaled = [tuple(int(x * den) for x in c) for c in moved]
    rest = KernelSubgroup(reference_hnf_mod(scaled, den), den)
    out2, reb2 = _descend_with_basis(mid, rest)
    direct, reb_direct = _descend_with_basis(tw, k2)
    combined = intmat.mat_mul(reb1, reb2)
    combined_cols = [tuple(combined[i][j] for i in range(4)) for j in range(4)]
    direct_cols = [tuple(reb_direct[i][j] for i in range(4)) for j in range(4)]
    assert hnf_column_basis(combined_cols) == hnf_column_basis(direct_cols)
    assert degree(out2) == degree(direct)


def test_every_operation_output_validates():
    rng = random.Random(23)
    for D, p in [(5, 11), (13, 3), (5, 5)]:
        s = standard_instance(make_order(D, 1))
        from rmlattice import solve_norm

        el = solve_norm(s.order, p)
        tw = twist_by_element(s, el, norm=el.norm())
        moved = apply_unimodular(tw, random_unimodular(rng))
        assert validate(moved) is None
        lam = polarization_kernel_mod_p(moved, p)
        for v in lam:
            k = kernel_from_subspace((v,), p)
            if can_descend(moved, k):
                try:
                    out = descend_polarization(moved, k)
                except PreconditionError:
                    continue  # action-unstable line
                assert validate(out) is None


# ---------------------------------------------------------------------------
# the pfaffian each primitive carries by identity
# ---------------------------------------------------------------------------


SMALL_PRIMES = (3, 5, 7, 11, 13)


def _carries_its_pfaffian(out):
    """The pfaffian a move carried is the gram's, and positive."""
    assert out.pf == intmat.pfaffian4(out.gram) > 0
    return out


class _Pick:
    """In place of the generator's rng: picks the option at index i."""

    def __init__(self, i):
        self.i = i

    def choice(self, options):
        return options[self.i]


@pytest.mark.parametrize(
    "D, p, norm", [(3, 11, -11), (13, 3, -3), (13, 13, -13), (5, 11, 11), (2, 7, 7)]
)
def test_both_twist_callers_carry_the_fresh_pfaffian_from_their_norm(D, p, norm, monkeypatch):
    # _raise_degree twists by each factor of p with the norm prime_norm
    # reads mod 4, and divide_by_symmetric divides by it again with the one
    # norm it computes; twist_by_element computes none
    s = apply_unimodular(standard_instance(make_order(D, 1)), random_unimodular(random.Random(p)))
    factors = factor_prime(s.order, p)
    assert prime_norm(factors[0], p) == norm
    calls = []
    real = OrderElement.norm

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(OrderElement, "norm", counting)
    for i, el in enumerate(factors):
        raised = _carries_its_pfaffian(_raise_degree(s, p, _Pick(i)))
        assert calls == []
        assert raised.pf == p
        assert _carries_its_pfaffian(divide_by_symmetric(raised, el)) == s
        assert calls == [el]
        calls.clear()
    monkeypatch.undo()
    assert [el.norm() for el in factors] == [norm, norm]


def test_generate_refuses_a_twist_that_breaks_alternation(monkeypatch):
    # a pull-back in the next move computes only the alternating half of its
    # gram, so the generator checks alternation after each move
    def broken_twist(surface, el, den=1, *, norm):
        tw = twist_by_element(surface, el, den, norm=norm)
        (r0, *rest) = tw.gram
        gram = ((r0[0], r0[1] + 1, *r0[2:]), *rest)
        return PolarizedRMSurface(tw.order, tw.action, gram)

    monkeypatch.setattr(generator, "twist_by_element", broken_twist)
    # 5 is ramified in Q(sqrt(5)), so its only options are the two twists
    with pytest.raises(InvariantBreach, match="gram form is not antisymmetric"):
        generate_instance(5, 1, [5, 11], 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    D=st.sampled_from([2, 3, 5, 13, 17, 29, 41]),
    conductor=st.sampled_from([1, 3, 5, 7, 9, 15]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_every_primitive_carries_the_fresh_pfaffian(D, conductor, seed, data):
    order = make_order(D, conductor)
    maximal = make_order(D, 1)
    eligible = [p for p in SMALL_PRIMES if conductor % p and factor_prime(maximal, p)]
    primes = data.draw(st.lists(st.sampled_from(eligible), max_size=2)) if eligible else []
    try:
        s = generate_instance(D, conductor, primes, seed)
    except PreconditionError:  # a degree profile that fails the Humbert test
        s = standard_instance(order)
    rng = random.Random(seed)
    u = random_unimodular(rng)
    moved = _carries_its_pfaffian(apply_unimodular(s, u))
    flipped = intmat.freeze((-row[0], *row[1:]) for row in u)  # determinant -1
    _carries_its_pfaffian(apply_unimodular(s, flipped))

    coords = st.integers(-40, 40)
    x, y = data.draw(coords), data.draw(coords)
    if (x, y) == (0, 0):
        x = 1
    el = order.element(x, y)
    twisted = _carries_its_pfaffian(twist_by_element(moved, el, norm=el.norm()))
    den = data.draw(st.integers(2, 12))
    assert _carries_its_pfaffian(
        twist_by_element(moved, order.element(den * x, den * y), den, norm=den * den * el.norm())
    ) == twisted
    try:
        _carries_its_pfaffian(twist_by_element(twisted, el, den, norm=el.norm()))
    except DescentError:
        pass
    if not el.is_unit():
        assert _carries_its_pfaffian(divide_by_symmetric(twisted, el)) == moved

    for p in sorted(set(primes)):
        kernel_p = polarization_kernel_mod_p(moved, p)
        for basis in [kernel_p, *((v,) for v in kernel_p)]:
            try:
                _carries_its_pfaffian(
                    descend_polarization(moved, kernel_from_subspace(basis, p))
                )
            except (DescentError, PreconditionError):
                pass  # not integral on the overlattice, or not action stable
    for p in SMALL_PRIMES:
        if conductor % p and degree(moved) % p and splitting_type(order, p) == SPLIT:
            index = data.draw(st.sampled_from([0, 1]))
            _carries_its_pfaffian(eigen_sublattice_pullback(moved, p, index))
            break
    if conductor > 1:
        p = min(q for q in (3, 5, 7) if conductor % q == 0)
        _carries_its_pfaffian(enlarge_order_step(moved, p)[0])
