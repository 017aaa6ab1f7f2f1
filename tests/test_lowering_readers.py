"""The lowered format of a matrix is read by `matrices` and two functions
of `fusion` alone.

`matrices` holds each matrix's lowering (D and its rows of (column,
low(x)) pairs), decides every identity A * B == C on it (`_is_product`),
and its module docstring says that outside it only `fusion.tree_maps`
reads lowerings, through its helper `_trees`.  This walks every module of
the package with `ast` and collects those that name the lowering's
attributes and helpers, as attributes, as imported or bare names, or as
strings (such as a hasattr check); no module is imported.  In `fusion` it
collects the top-level functions that name them, so a comparison on
lowerings cannot move back out of `matrices`.
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


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_only_matrices_and_fusion_read_lowerings():
    readers = {
        path.stem: sorted(used)
        for path in sorted(PACKAGE.glob("*.py"))
        if (used := names_used(parsed(path)) & LOWERED)
    }
    assert set(readers) == {"matrices", "fusion"}, readers
    assert readers["matrices"] == sorted(LOWERED)


def test_in_fusion_only_the_tree_realization_reads_lowerings():
    readers = set()
    for node in parsed(PACKAGE / "fusion.py").body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue  # the import of `_reduced` names it for tree_maps
        if names_used(node) & LOWERED:
            readers.add(getattr(node, "name", type(node).__name__))
    assert readers == {"tree_maps", "_trees"}
