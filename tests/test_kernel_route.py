"""Every kernel of the package is cut by `matrices._joint_kernel`.

`mat_kernel` is `_joint_kernel` on one matrix's lowered rows, so the
package builds kernels one way, and the fraction-free elimination
`_eliminate` serves that cut, `Matrix._echelon` (rank and rref) and the
right solve alone; the split-prime certificate `_full_rank_mod_p` serves
`Matrix.rank` alone.  This walks every module of the package with `ast`
and collects, per top-level function or method, the names it calls
(bare or as attributes, nested functions included); no module is
imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfrec"


def called(node: ast.AST) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            out.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    return out


def calls_by_function() -> dict:
    """(module, qualified name) -> the names it calls, for every top-level
    function and every method of a top-level class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        out[path.stem, f"{node.name}.{fn.name}"] = called(fn)
            elif isinstance(node, ast.FunctionDef):
                out[path.stem, node.name] = called(node)
    return out


def callers(name: str) -> set:
    return {key for key, names in calls_by_function().items() if name in names}


def test_only_echelon_the_joint_kernel_and_the_right_solve_eliminate():
    want = {("matrices", "Matrix._echelon"), ("matrices", "_joint_kernel"), ("matrices", "mat_rsolve")}
    assert callers("_eliminate") == want


def test_only_rank_takes_the_split_prime_certificate():
    assert callers("_full_rank_mod_p") == {("matrices", "Matrix.rank")}


def test_mat_kernel_is_the_joint_kernel():
    names = calls_by_function()["matrices", "mat_kernel"]
    assert "_joint_kernel" in names
    assert not names & {"_eliminate", "_echelon", "_full_rank_mod_p", "rref", "_reduced"}
