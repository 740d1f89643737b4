"""The line rule: the lines of ``src/petring/*.py``, in total and as code,
stay at or under their ceilings.  Code is every non-blank line outside a
docstring that is not a comment alone; a docstring is that of a module,
class or function, and its blank lines count as blank."""

import ast
from pathlib import Path

import petring

TOTAL, CODE = 1758, 1082


def _line_kinds() -> dict[str, int]:
    """The lines of the package's modules by kind: docstring, comment, blank and code."""
    counts = dict.fromkeys(("docstring", "comment", "blank", "code"), 0)
    for path in sorted(Path(petring.__file__).parent.glob("*.py")):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            kind = "blank" if not stripped else "docstring" if number in docstrings else \
                "comment" if stripped.startswith("#") else "code"
            counts[kind] += 1
    return counts


def test_src_lines_within_their_ceilings():
    counts = _line_kinds()
    assert sum(counts.values()) <= TOTAL and counts["code"] <= CODE, counts
