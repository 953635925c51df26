"""Exact contact invariants of toric contact manifolds from rational toric diagrams."""

from .contact import (
    ReebVector,
    ToricDiagram,
    contact_betti_direct,
    contact_betti_from_delta,
    mean_euler_characteristic,
    minimal_discrepancy,
    validate_diagram,
)
from .ehrhart import delta_vector, is_reflexive, quasipolynomial
from .polytope import convex_hull, dual_polytope, labelled_polytope
from .prequant import (
    diagram_from_labelled,
    hc_from_quotient,
    orbifold_cohomology_of_base,
    quotient_polytope,
)
from .resolution import (
    hc_from_resolution,
    orbifold_poincare,
    stapledon_check,
    star_triangulation,
    trivial_triangulation,
)

__version__ = "0.1.0"

__all__ = [
    "ReebVector",
    "ToricDiagram",
    "contact_betti_direct",
    "contact_betti_from_delta",
    "convex_hull",
    "delta_vector",
    "diagram_from_labelled",
    "dual_polytope",
    "hc_from_quotient",
    "hc_from_resolution",
    "is_reflexive",
    "labelled_polytope",
    "mean_euler_characteristic",
    "minimal_discrepancy",
    "orbifold_cohomology_of_base",
    "orbifold_poincare",
    "quasipolynomial",
    "quotient_polytope",
    "stapledon_check",
    "star_triangulation",
    "trivial_triangulation",
    "validate_diagram",
]
