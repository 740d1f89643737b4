"""Exact-arithmetic structure constants for the Peterson variety cohomology
ring in type A, by three independent engines: the left-right diagram game,
run-rule term rewriting, and relation-matrix linear algebra.

Its ``__getattr__`` (PEP 562) serves the public names below, each from its
module, and the submodules, bound as an import binds them but run on first
attribute access, so ``import petring.intervals`` runs no other submodule."""

import importlib.util
import sys

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
    """A public name from its module, or a submodule: the one in ``sys.modules``, else one registered to run on use."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif (value := sys.modules.get(f"{__name__}.{name}")) is None:
        if name.startswith("_") or (spec := importlib.util.find_spec(f"{__name__}.{name}")) is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        value = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(value)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
