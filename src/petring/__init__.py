"""Exact-arithmetic structure constants for the Peterson variety cohomology
ring in type A, by three independent engines: the left-right diagram game,
run-rule term rewriting, and relation-matrix linear algebra.

The public names below are loaded on first use (PEP 562), so importing one
submodule, such as ``petring.intervals``, loads none of the others."""

import importlib

_EXPORTS = {  # module: the public names it defines
    "errors": ("ConsistencyError", "PresentationError"),
    "intervals": ("ComponentDecomposition", "IndexSet", "all_index_sets", "decompose", "factor_ranks",
                  "hessenberg_function", "m_factor"),
    "algebra": ("CohomologyClass", "add", "integral", "monomial", "multiply", "multiply_generator", "pairing",
                "peterson_schubert_class", "scale", "to_varpi_basis", "unit", "zero"),
    "ring": ("structure_constants_rewrite",),
    "diagrams": ("expand_all",),
    "listings": ("GameRow", "LeftRightDiagram", "Move", "enumerate_diagrams", "render_ascii", "structure_constant",
                 "weight"),
    "oracle": ("quotient_dimension", "structure_constants_linalg"),
    "relations": ("Monomial", "normal_form", "relation_rows"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines a public name, and keep the name."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
