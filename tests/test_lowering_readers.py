"""The lowered format of a matrix is read by `matrices` and `fusion` alone.

`matrices` holds each matrix's lowering (D and its rows of (column,
low(x)) pairs) and its module docstring says that outside it only
`fusion` reads lowerings.  This walks every module of the package with
`ast` and collects those that name the lowering's attributes and
helpers, as attributes, as imported or bare names, or as strings (such
as a hasattr check); no module is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfrec"
LOWERED = {"_lowered", "_low", "_from_low", "_reduced"}


def names_used(tree: ast.AST) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_only_matrices_and_fusion_read_lowerings():
    readers = {
        path.stem: sorted(used)
        for path in sorted(PACKAGE.glob("*.py"))
        if (used := names_used(ast.parse(path.read_text(encoding="utf-8"))) & LOWERED)
    }
    assert set(readers) == {"matrices", "fusion"}, readers
    assert readers["matrices"] == sorted(LOWERED)
