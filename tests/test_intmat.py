"""Exact matrix helpers checked against sympy and brute force."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from rmlattice import intmat
from test_intmat_oracles import hnf_column_basis, inverse, scalar_mul, snf_with_transforms


def random_int_matrix(rng, n=4, lo=-9, hi=9):
    return intmat.freeze([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_unimodular(rng, ops=10):
    u = [list(r) for r in intmat.identity()]
    for _ in range(ops):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-2, -1, 1, 2))
        for r in range(4):
            u[r][i] += c * u[r][j]
    return intmat.freeze(u)


def test_det_and_adjugate_against_sympy():
    rng = random.Random(1)
    for _ in range(40):
        m = random_int_matrix(rng)
        sm = sympy.Matrix(m)
        assert intmat.det(m) == sm.det()
        if sm.det() != 0:
            adj = intmat.adjugate(m)
            prod = intmat.mat_mul(m, adj)
            assert prod == scalar_mul(intmat.det(m), intmat.identity())


def test_pfaffian_squares_to_determinant():
    rng = random.Random(2)
    for _ in range(60):
        m = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = rng.randint(-9, 9)
                m[i][j], m[j][i] = v, -v
        m = intmat.freeze(m)
        assert intmat.pfaffian4(m) ** 2 == intmat.det(m)


def test_pfaffian_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        intmat.pfaffian4(intmat.identity())


def test_hnf_canonical_shape_and_lattice_equality():
    rng = random.Random(3)
    for _ in range(40):
        cols = [
            tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(4))
            for _ in range(6)
        ]
        cols += [tuple(Fraction(1 if i == j else 0) for i in range(4)) for j in range(4)]
        h = hnf_column_basis(cols)
        # lower triangular with positive diagonal, reduced entries to the left
        for i in range(4):
            assert h[i][i] > 0
            for j in range(i + 1, 4):
                assert h[i][j] == 0
            for j in range(i):
                assert 0 <= h[i][j] < h[i][i]
        # spans the same lattice as the generators: mutual integral expression
        h_inv = inverse(h)
        for c in cols:
            coords = intmat.mat_vec(h_inv, c)
            assert all(Fraction(x).denominator == 1 for x in coords)


def test_hnf_is_basis_invariant():
    rng = random.Random(4)
    for _ in range(25):
        m = random_int_matrix(rng)
        if intmat.det(m) == 0:
            continue
        u = random_unimodular(rng)
        cols = [tuple(m[i][j] for i in range(4)) for j in range(4)]
        mu = intmat.mat_mul(m, u)
        cols_u = [tuple(mu[i][j] for i in range(4)) for j in range(4)]
        assert hnf_column_basis(cols) == hnf_column_basis(cols_u)


def test_snf_matches_sympy_and_transforms():
    rng = random.Random(5)
    for _ in range(40):
        m = random_int_matrix(rng)
        u, s, v = snf_with_transforms(m)
        assert intmat.mat_mul(intmat.mat_mul(u, m), v) == s
        assert intmat.det(u) in (1, -1)
        assert intmat.det(v) in (1, -1)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert s[i][j] == 0
        divisors = [s[i][i] for i in range(4)]
        for a, b in zip(divisors, divisors[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        expected = smith_normal_form(sympy.Matrix(m))
        expected_div = [abs(expected[i, i]) for i in range(4)]
        assert [abs(d) for d in divisors] == expected_div


def test_kernel_mod_p_by_enumeration():
    rng = random.Random(6)
    p = 3
    for _ in range(20):
        m = intmat.mat_mod(random_int_matrix(rng), p)
        basis = intmat.kernel_mod_p(m, p)
        brute = [
            v
            for v in (
                (a, b, c, d)
                for a in range(p)
                for b in range(p)
                for c in range(p)
                for d in range(p)
            )
            if all(x % p == 0 for x in intmat.mat_vec(m, v))
        ]
        assert len(brute) == p ** len(basis)
        for v in basis:
            assert all(x % p == 0 for x in intmat.mat_vec(m, v))
