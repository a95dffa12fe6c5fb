"""Structure of the degree-reduction branch decision.

For a class-number-one field the lattice is a free rank-2 module over the
order, so the alternating forms compatible with the standard action form a
rank-2 lattice, and scanning its coefficients classifies every valid
surface with that action up to basis change. On every degree-p^2 class the
kernel p-torsion comes out as a full factor kernel, so the reduction move
always divides: the quotient branches are unreachable on valid input.
Acceptance criterion 4 (test_criterion_4_branch_coverage) asserts the same
structure on the seeded branch corpus: only divide branches, the kernel
equal to the divide element's mod-p kernel, and both factor arms taken at
split primes.

Where the kernel splits across two non-associate factor kernels, the
conductor identity f = a1*b1 + a2*b2 always has a solution, on the branch
corpus and in suborders of conductor 3, 5 and 9; degree reduction
therefore does not call bezout_conductor as an existence check.
"""

from __future__ import annotations

import pytest

import rmlattice as rm
from rmlattice import intmat
from rmlattice.generator import generate_instance
from rmlattice.reduction import _branch_decision, reduce_degree_step, squarefree_reduce
from rmlattice.surface import canonicalize_orientation, polarization_kernel_mod_p
from test_acceptance import branch_corpus  # noqa: F401  (module-scoped fixture)
from test_intmat_oracles import mat_add, scalar_mul, snf_with_transforms


def symmetric_form_lattice_basis(surface):
    """Integer basis of the antisymmetric forms E with action^T E = E action."""
    a = surface.action
    positions = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rows = []
    for r in range(4):
        for c in range(4):
            row = []
            for (i, j) in positions:
                val = 0
                if c == j:
                    val += a[i][r]
                if c == i:
                    val -= a[j][r]
                if r == i:
                    val -= a[j][c]
                if r == j:
                    val += a[i][c]
                row.append(val)
            rows.append(tuple(row))
    _, snf, v = snf_with_transforms(intmat.freeze(rows))
    basis = []
    for j in range(6):
        divisor = snf[j][j] if j < len(snf) else 0
        if divisor == 0:
            coeffs = tuple(v[i][j] for i in range(6))
            m = [[0] * 4 for _ in range(4)]
            for (i, jj), cval in zip(positions, coeffs):
                m[i][jj] = cval
                m[jj][i] = -cval
            basis.append(intmat.freeze(m))
    return basis


@pytest.mark.parametrize(
    "D,p",
    [(13, 3), (3, 3), (7, 3), (6, 3), (5, 5), (11, 5), (30, 5), (2, 7)],
)
def test_every_degree_p2_class_takes_a_divide_branch(D, p):
    order = rm.make_order(D, 1)
    factors = rm.factor_prime(order, p)
    assert factors is not None
    base = rm.standard_instance(order)
    basis = symmetric_form_lattice_basis(base)
    assert len(basis) == 2
    branches = set()
    classes = 0
    bound = 60
    for c1 in range(-bound, bound + 1):
        for c2 in range(-bound, bound + 1):
            gram = mat_add(
                scalar_mul(c1, basis[0]), scalar_mul(c2, basis[1])
            )
            pf = intmat.pfaffian4(gram)
            if abs(pf) != p:
                continue
            surface = canonicalize_orientation(order, base.action, gram, pf)
            if rm.validate(surface) is not None:
                continue
            stable, _ = squarefree_reduce(surface, p)
            assert rm.degree(stable) == p * p
            branch, element = _branch_decision(stable, p, factors)
            kernel_el = intmat.kernel_mod_p(
                intmat.mat_mod(rm.element_action(stable, element), p), p
            )
            assert kernel_el == polarization_kernel_mod_p(stable, p)
            branches.add(branch)
            classes += 1
    assert classes > 0
    assert branches <= {"split_divide", "associate_divide"}


def _bezout_where_kernel_splits(stable, p):
    """Solve the conductor identity wherever degree reduction sees a split kernel.

    Where degree reduction's branch decision on the stabilized surface is
    split_divide (non-associate factors, the kernel p-torsion one factor's
    mod-p kernel), bezout_conductor must succeed and satisfy
    conductor = a1*b1 + a2*b2. Returns whether that case arose.
    """
    order = stable.order
    a1, a2 = rm.factor_prime(order, p)
    if _branch_decision(stable, p, (a1, a2))[0] != "split_divide":
        return False
    b1, b2 = rm.bezout_conductor(a1, a2, order)
    assert a1 * b1 + a2 * b2 == order.element(order.conductor, 0)
    return True


def test_conductor_identity_holds_on_the_branch_corpus(branch_corpus):
    checked = 0
    for case in branch_corpus:
        p = case["prime"]
        stable, _ = squarefree_reduce(case["surface"], p)
        checked += _bezout_where_kernel_splits(stable, p)
    assert checked > 0


@pytest.mark.parametrize("f", [3, 5, 9])
def test_conductor_identity_holds_in_suborders(f):
    checked = 0
    for D in (2, 5, 13, 17, 29):
        order = rm.make_order(D, f)
        for p in (3, 5, 7, 11, 13):
            if f % p == 0 or rm.factor_prime(order, p) is None:
                continue  # degree reduction needs a norm +-p element here
            for seed in range(3):
                surface = generate_instance(D, f, [p], seed)
                stable, _ = squarefree_reduce(surface, p)
                if rm.degree(stable) % p == 0:
                    checked += _bezout_where_kernel_splits(stable, p)
                out, steps = reduce_degree_step(surface, p)
                assert rm.degree(out) % p != 0
                assert steps[-1].branch in (None, "split_divide", "associate_divide")
    assert checked > 0
