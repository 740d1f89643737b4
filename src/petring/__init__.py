"""Exact-arithmetic structure constants for the Peterson variety cohomology
ring in type A, by three independent engines: the left-right diagram game,
run-rule term rewriting, and relation-matrix linear algebra."""

from .errors import ConsistencyError, PresentationError
from .intervals import (
    ComponentDecomposition,
    IndexSet,
    all_index_sets,
    decompose,
    factor_ranks,
    hessenberg_function,
    m_factor,
)
from .ring import (
    CohomologyClass,
    add,
    integral,
    monomial,
    multiply,
    multiply_generator,
    pairing,
    peterson_schubert_class,
    scale,
    structure_constants_rewrite,
    to_varpi_basis,
    unit,
    zero,
)
from .diagrams import (
    GameRow,
    LeftRightDiagram,
    Move,
    enumerate_diagrams,
    expand_all,
    render_ascii,
    structure_constant,
    weight,
)
from .oracle import (
    Monomial,
    normal_form,
    quotient_dimension,
    relation_rows,
    structure_constants_linalg,
)

__version__ = "0.1.0"
