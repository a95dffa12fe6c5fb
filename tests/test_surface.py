"""Lattice model invariants: constructors, degrees, kernels."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import lcm

import pytest
import sympy

from rmlattice import (
    PreconditionError,
    degree,
    eigen_sublattice_pullback,
    element_action,
    humbert_holds,
    make_order,
    solve_norm,
    splitting_type,
    stabilizer_order,
    standard_instance,
    twist_by_element,
    validate,
)
from rmlattice import intmat
from rmlattice.arith import factorize
from rmlattice.generator import random_unimodular
from rmlattice.surface import (
    KernelSubgroup,
    PolarizedRMSurface,
    apply_unimodular,
    polarization_kernel_mod_p,
    rebase,
)
from test_intmat_oracles import mat_add, mat_sub, overlattice, reference_hnf_mod, scalar_mul

ORDERS = [(5, 1), (5, 3), (2, 1), (13, 1), (13, 9), (17, 7), (3, 7)]


@pytest.mark.parametrize("D,f", ORDERS)
def test_standard_instance_is_principal(D, f):
    s = standard_instance(make_order(D, f))
    assert validate(s) is None
    assert degree(s) == 1
    assert s.pf == 1
    assert stabilizer_order(s).conductor == f


def test_validate_diagnostics():
    s = standard_instance(make_order(5, 1))
    bad_gram = [list(r) for r in s.gram]
    bad_gram[0][0] = 1
    assert "antisymmetric" in validate(
        PolarizedRMSurface(s.order, s.action, intmat.freeze(bad_gram))
    )
    bumped = mat_add(s.action, intmat.identity())
    assert "minimal polynomial" in validate(
        PolarizedRMSurface(s.order, bumped, s.gram)
    )
    swapped = PolarizedRMSurface(make_order(2, 1), s.action, s.gram)
    assert validate(swapped) is not None
    flat = [list(r) for r in s.gram]
    flat[0][3], flat[3][0] = 0, 0  # still antisymmetric, now pfaffian 0
    assert "degenerate" in validate(
        PolarizedRMSurface(s.order, s.action, intmat.freeze(flat))
    )


def test_repr_of_valid_surfaces():
    s = standard_instance(make_order(5, 3))
    assert repr(s) == "PolarizedRMSurface(D=5, conductor=3, degree=1)"
    tw = twist_by_element(s, s.order.element(3, 0), norm=9)
    assert repr(tw) == "PolarizedRMSurface(D=5, conductor=3, degree=81)"


def test_repr_never_raises_on_an_invalid_gram():
    s = standard_instance(make_order(5, 1))
    skew = [list(r) for r in s.gram]
    skew[0][0] = 1  # not antisymmetric: pfaffian4 raises ValueError
    for gram in (intmat.freeze(skew), tuple((0,) * 4 for _ in range(4))):
        bad = PolarizedRMSurface(s.order, s.action, gram)
        assert repr(bad) == "PolarizedRMSurface(D=5, conductor=1, degree=invalid)"


def test_repr_past_the_digit_limit():
    s = standard_instance(make_order(5, 1))
    c = 10**3000  # degree c^4 has 12001 digits
    big = PolarizedRMSurface(s.order, s.action, tuple(tuple(c * x for x in r) for r in s.gram))
    assert repr(big) == f"PolarizedRMSurface(D=5, conductor=1, degree=1{'0' * 12000})"


def test_cached_pfaffian_is_not_part_of_the_value():
    s = twist_by_element(standard_instance(make_order(13, 1)), make_order(13, 1).element(2, 1), norm=3)
    fresh = PolarizedRMSurface(s.order, s.action, s.gram)
    assert s.pf == fresh.pf == 3
    assert "pf" in vars(s)
    assert s == fresh and hash(s) == hash(fresh)
    assert list(PolarizedRMSurface._fields) == ["order", "action", "gram"]
    assert s.__getstate__() == fresh.__getstate__()


def test_polarization_kernel_is_the_kernel_of_the_gram_mod_p():
    # a degree-51^2 surface, asked in turn at 3, 17 and 7: each answer is the
    # kernel of the gram mod p, and nothing is kept on the surface
    o = make_order(13, 1)
    s = standard_instance(o)
    for p in (3, 17):
        el = solve_norm(o, p)
        s = twist_by_element(s, el, norm=el.norm())
    assert s.pf == 3 * 17
    kept = dict(vars(s))
    for p in (3, 17, 17, 3, 7, 3):
        kernel = polarization_kernel_mod_p(s, p)
        assert kernel == intmat.kernel_mod_p(intmat.mat_mod(s.gram, p), p)
        assert len(kernel) == (0 if p == 7 else 2)
    assert vars(s) == kept
    assert s == PolarizedRMSurface(s.order, s.action, s.gram)


def test_element_action_examples():
    s = standard_instance(make_order(5, 1))
    o = s.order
    assert element_action(s, o.one()) == intmat.identity()
    assert element_action(s, o.omega()) == s.action
    a = element_action(s, o.element(3, 1))
    assert intmat.det(a) == 121  # norm 11 squared
    with pytest.raises(PreconditionError):
        element_action(s, make_order(5, 3).element(1, 0))


def test_element_action_is_multiplicative():
    rng = random.Random(3)
    s = standard_instance(make_order(13, 1))
    o = s.order
    for _ in range(25):
        a = o.element(rng.randint(-9, 9), rng.randint(-9, 9))
        b = o.element(rng.randint(-9, 9), rng.randint(-9, 9))
        assert intmat.mat_mul(element_action(s, a), element_action(s, b)) == \
            element_action(s, a * b)
        assert intmat.det(element_action(s, a)) == a.norm() ** 2


def test_twist_degree_and_inverse_examples():
    s = standard_instance(make_order(5, 1))
    o = s.order
    assert twist_by_element(s, o.one(), norm=o.one().norm()) == s
    tw3 = twist_by_element(s, o.element(3, 0), norm=9)
    assert degree(tw3) == 3**4  # gram becomes 3E; norm(3)^2 = 81
    a = o.element(3, 1)
    tw = twist_by_element(s, a, norm=a.norm())
    assert degree(tw) == 121
    assert validate(tw) is None
    with pytest.raises(PreconditionError):
        twist_by_element(s, o.element(0, 0), norm=0)


def test_twist_canonicalizes_orientation():
    s = standard_instance(make_order(5, 1))
    tw = twist_by_element(s, s.order.element(-1, 2), norm=-5)
    assert tw.pf > 0
    assert degree(tw) == 25


def _dual_kernel(surface):
    """Reference for the polarization kernel L*/L: the dual lattice
    E^-1 Z^4, whose pf^2 multiple the columns of adj(E) span."""
    den = surface.pf * surface.pf
    columns = intmat.transpose(intmat.adjugate(surface.gram))
    return KernelSubgroup(reference_hnf_mod(columns, den), den)


def test_kernel_of_polarization_divisor_examples():
    s = standard_instance(make_order(5, 1))
    k = _dual_kernel(s)
    assert intmat.alternating_divisors(s.gram, s.pf) == (1, 1, 1, 1)
    assert k.group_order == 1 and k.is_trivial()

    scaled = twist_by_element(s, s.order.element(3, 0), norm=9)
    k3 = _dual_kernel(scaled)
    assert intmat.alternating_divisors(scaled.gram, scaled.pf) == (3, 3, 3, 3)
    assert k3.group_order == 81 == degree(scaled)
    assert lcm(*(Fraction(x).denominator for row in overlattice(k3) for x in row)) == 3

    el = s.order.element(3, 1)
    tw = twist_by_element(s, el, norm=el.norm())
    k11 = _dual_kernel(tw)
    assert intmat.alternating_divisors(tw.gram, tw.pf) == (1, 1, 11, 11)
    assert k11.group_order == 121 == degree(tw)


def test_torsion_kernel_even_dimension_for_norm_divisors():
    # action elements with norm divisible by p have even-dimensional p-kernels
    # whenever p does not divide the degree
    for D, p in [(5, 11), (5, 5), (13, 3), (2, 7)]:
        s = standard_instance(make_order(D, 1))
        el = solve_norm(s.order, p)
        if el is None:
            continue
        gens = intmat.kernel_mod_p(intmat.mat_mod(element_action(s, el), p), p)
        assert len(gens) % 2 == 0 and len(gens) > 0


@pytest.mark.parametrize("D,f", ORDERS)
def test_basis_change_equivariance(D, f):
    rng = random.Random(D * 100 + f)
    s = standard_instance(make_order(D, f))
    if solve_norm(s.order, 11) is not None:
        el = solve_norm(s.order, 11)
        s = twist_by_element(s, el, norm=el.norm())
    for _ in range(5):
        u = random_unimodular(rng)
        moved = apply_unimodular(s, u)
        # rebase takes only Hermite bases; a unimodular one is the identity
        with pytest.raises(PreconditionError, match="lower-triangular basis"):
            rebase(s, u)
        assert rebase(moved, intmat.identity()) == moved
        assert validate(moved) is None
        assert degree(moved) == degree(s)
        assert intmat.alternating_divisors(
            moved.gram, moved.pf
        ) == intmat.alternating_divisors(s.gram, s.pf)
        assert stabilizer_order(moved).conductor == stabilizer_order(s).conductor


def test_stabilizer_examples():
    assert stabilizer_order(standard_instance(make_order(5, 3))).conductor == 3
    assert stabilizer_order(standard_instance(make_order(5, 1))).conductor == 1
    # an action stored at conductor 3 that really is 3 * (conductor-1 action)
    s1 = standard_instance(make_order(5, 1))
    loose = PolarizedRMSurface(
        make_order(5, 3), scalar_mul(3, s1.action), s1.gram
    )
    assert validate(loose) is None
    assert stabilizer_order(loose).conductor == 1


def test_eigen_sublattice_pullback():
    s = standard_instance(make_order(5, 1))
    for idx in (0, 1):
        pulled = eigen_sublattice_pullback(s, 11, idx)
        assert degree(pulled) == 121
        assert validate(pulled) is None
        assert stabilizer_order(pulled).conductor == 1
        assert len(polarization_kernel_mod_p(pulled, 11)) == 2
    with pytest.raises(PreconditionError):
        eigen_sublattice_pullback(s, 3, 0)  # inert
    with pytest.raises(PreconditionError):
        eigen_sublattice_pullback(s, 5, 0)  # ramified
    with pytest.raises(PreconditionError):
        eigen_sublattice_pullback(standard_instance(make_order(5, 3)), 3, 0)


def _pullback_by_scan(surface, p, eigenvalue_index):
    """eigen_sublattice_pullback with its eigenvalues found by the
    value-linear root scan it replaced, as the reference."""
    t, n = surface.order.trace_omega, surface.order.norm_omega
    roots = sorted(r for r in range(p) if (r * r - t * r + n) % p == 0)
    shift = scalar_mul(roots[eigenvalue_index], intmat.identity())
    v = intmat.kernel_mod_p(mat_sub(intmat.transpose(surface.action), shift), p)[0]
    return rebase(surface, intmat.hnf_mod_p(intmat.kernel_mod_p(intmat.freeze([v]), p), p))


def test_pullback_eigenvalues_match_the_root_scan():
    checked = 0
    for D in (2, 3, 5, 13, 17):
        for f in (1, 3, 7, 9):
            s = standard_instance(make_order(D, f))
            for p in sympy.primerange(3, 200):
                if splitting_type(s.order, p) != "split":
                    continue
                for idx in (0, 1):
                    assert eigen_sublattice_pullback(s, p, idx) == _pullback_by_scan(s, p, idx)
                    checked += 1
    assert checked > 500


def test_pullback_at_a_prime_near_10_to_the_12():
    p = 10**12 + 39  # split in Q(sqrt 5): p = -1 mod 5
    s = standard_instance(make_order(5, 1))
    start = time.perf_counter()
    for idx in (0, 1):
        pulled = eigen_sublattice_pullback(s, p, idx)
        assert degree(pulled) == p * p
        assert validate(pulled) is None
    assert time.perf_counter() - start < 1.0


def test_generated_instances_satisfy_humbert():
    for D, f in ORDERS:
        s = standard_instance(make_order(D, f))
        el = solve_norm(s.order, 11) if splitting_type(s.order, 11) != "inert" else None
        if el is not None:
            s = twist_by_element(s, el, norm=el.norm())
        assert humbert_holds(s.order.discriminant, factorize(s.pf))


def test_degree_is_pfaffian_squared_both_ways():
    rng = random.Random(9)
    for D, f in ORDERS:
        s = standard_instance(make_order(D, f))
        u = random_unimodular(rng)
        moved = apply_unimodular(s, u)
        assert intmat.det(moved.gram) == moved.pf ** 2
        assert degree(moved) == abs(intmat.det(moved.gram))
