"""Exact lattice models of polarized abelian surfaces with real multiplication.

The package provides integral models (rank-4 lattices with an order action
and an alternating gram form), isogeny primitives, reduction pipelines that
produce principal polarizations with maximal real multiplication, a
brute-force oracle layer, and stable JSON formats with a CLI front end.
"""

from .errors import DescentError, InvariantBreach, LatticeModelError, PreconditionError
from .quadratic import (
    OrderElement,
    RealQuadraticOrder,
    are_associates_in_maximal,
    bezout_conductor,
    factor_prime,
    fundamental_unit,
    humbert_holds,
    make_order,
    solve_norm,
    splitting_type,
)
from .surface import (
    KernelSubgroup,
    PolarizedRMSurface,
    degree,
    eigen_sublattice_pullback,
    element_action,
    standard_instance,
    stabilizer_order,
    twist_by_element,
    validate,
)
from .isogeny import (
    CertificateData,
    IsogenyStep,
    descend_polarization,
    divide_by_symmetric,
)
from .reduction import (
    principalize,
    reduce_degree_step,
    squarefree_reduce,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateData",
    "DescentError",
    "InvariantBreach",
    "IsogenyStep",
    "KernelSubgroup",
    "LatticeModelError",
    "OrderElement",
    "PolarizedRMSurface",
    "PreconditionError",
    "RealQuadraticOrder",
    "are_associates_in_maximal",
    "bezout_conductor",
    "degree",
    "descend_polarization",
    "divide_by_symmetric",
    "eigen_sublattice_pullback",
    "element_action",
    "factor_prime",
    "fundamental_unit",
    "humbert_holds",
    "make_order",
    "principalize",
    "reduce_degree_step",
    "solve_norm",
    "splitting_type",
    "squarefree_reduce",
    "stabilizer_order",
    "standard_instance",
    "twist_by_element",
    "validate",
]
