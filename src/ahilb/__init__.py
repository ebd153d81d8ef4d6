"""Exact toric geometry of abelian SL(3,C) quotient singularities: simplex
partitions into regular triangles, the crepant resolution fan, invariant
monomial data and cluster equation systems."""

from .errors import AhilbError, GroupSpecError, InvariantError
from .lattice import (
    GroupSpec,
    LatticeContext,
    junior_points,
    lattice_context,
    pair_index,
    parse_group_spec,
    primitive_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AhilbError",
    "GroupSpecError",
    "InvariantError",
    "GroupSpec",
    "LatticeContext",
    "junior_points",
    "lattice_context",
    "pair_index",
    "parse_group_spec",
    "primitive_vector",
    "__version__",
]
