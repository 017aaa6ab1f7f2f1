"""The category checkers run where a verdict is not proved, and nowhere else.

`repcat._skeletalize` proves its output coherent (Coherence by
construction), so the CLI reports those verdicts from the proof and sweeps
only input files.  This walks every module of the package with `ast`,
imports none, and collects the functions that call verify_category,
verify_pentagon, verify_tensorator or verify_duality: the CLI's check of
loaded files, reconstruct_hopf with verify on, the audit of skeletalize
with verify on, and verify_category itself, the suite of the other three.
It also pins the private names of `repcat` that the CLI imports to the one
whose output it certifies.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfrec"
CHECKERS = {"verify_category", "verify_pentagon", "verify_tensorator", "verify_duality"}


def parsed(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def called(node: ast.AST) -> set:
    """The names that node calls, as bare names or attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                out.add(sub.func.id)
            elif isinstance(sub.func, ast.Attribute):
                out.add(sub.func.attr)
    return out


def test_only_unproved_verdicts_call_the_category_checkers():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path.stem)):
            if isinstance(node, ast.FunctionDef) and called(node) & CHECKERS:
                callers.add(f"{path.stem}.{node.name}")
    assert callers == {
        "cli._verified_category",
        "fusion.verify_category",
        "reconstruct.reconstruct_hopf",
        "repcat.skeletalize",
    }


def test_the_cli_imports_one_private_name_of_repcat():
    private = {
        alias.name
        for node in ast.walk(parsed("cli"))
        if isinstance(node, ast.ImportFrom) and node.module == "repcat"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {"_skeletalize"}
