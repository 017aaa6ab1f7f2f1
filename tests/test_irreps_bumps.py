"""Single-entry bumps of K[S3] against verify_irreps and skeletalize.

Three sweeps, each pinned line by line by `golden/irreps-bumps.txt`:

- every action cell of the std module of K[S3], bumped by 1, in the family
  triv, sgn, std: the verify_irreps report;
- every nonzero cell of the K[S3] mult, bumped by 1, which breaks
  associativity: the verify_irreps report of the shipped family;
- every cell of the K[S3] comult, and every 7th cell of the comult of
  K[S3] rebuilt from its skeleton (with its zeta_modules family), bumped
  by 1: the serialized skeleton and fiber of skeletalize, or the class and
  message of what it raised.  The tensor products of the family are then
  not modules.

Regenerate the golden file with `python tests/test_irreps_bumps.py`.
"""

import hashlib
import pathlib

from hopfrec import serialize
from hopfrec.errors import HopfrecError
from hopfrec.examples import EXAMPLES
from hopfrec.hopf import AlgebraPresentation, HopfPresentation
from hopfrec.matrices import Matrix
from hopfrec.reconstruct import reconstruct_hopf, zeta_modules
from hopfrec.repcat import ModuleRep, skeletalize, verify_irreps

GOLDEN = pathlib.Path(__file__).parent / "golden" / "irreps-bumps.txt"


def ks3():
    return EXAMPLES["ks3"][1](), EXAMPLES["ks3-modules"][1]()


def bumped(t, i, j, k):
    """A copy of a dim^3 tensor as nested lists, with cell (i, j, k) plus 1."""
    out = [[list(row) for row in plane] for plane in t]
    out[i][j][k] = out[i][j][k] + 1
    return out


def report_lines(label, rep) -> list[str]:
    return [label] + ["  " + line for line in rep.lines()]


def action_bumps():
    """(label, algebra, family) for each cell of each std action matrix."""
    h, mods = ks3()
    std = mods[2]
    for i, act in enumerate(std.action):
        for r in range(act.rows):
            for c in range(act.cols):
                rows = act.to_rows()
                rows[r][c] = rows[r][c] + 1
                action = list(std.action)
                action[i] = Matrix.from_rows(rows)
                yield f"std/action{i}/{r}.{c} +1", h.alg, mods[:2] + [ModuleRep(std.dim, action, std.name)]


def mult_bumps():
    h, mods = ks3()
    n = h.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if h.alg.mult[i][j][k]:
                    yield f"mult/{i}.{j}.{k} +1", AlgebraPresentation(n, bumped(h.alg.mult, i, j, k), h.alg.unit), mods


def comult_bumps():
    h, mods = ks3()
    rec = reconstruct_hopf(*skeletalize(h, mods))
    for name, base, fam, step in (("comult", h, mods, 1), ("rebuilt-comult", rec.hopf, zeta_modules(rec), 7)):
        n = base.dim
        for o in range(0, n**3, step):
            i, j, k = o // (n * n), o // n % n, o % n
            hb = HopfPresentation(base.alg, bumped(base.comult, i, j, k), base.counit, base.antipode)
            yield f"{name}/{i}.{j}.{k} +1", hb, fam


def skeletalize_lines(label, h, mods) -> list[str]:
    try:
        skel, fiber = skeletalize(h, mods, verify=True)
    except HopfrecError as exc:
        return [label, f"  {type(exc).__name__}: {exc}"]
    digest = hashlib.sha256((serialize.dumps(skel) + serialize.dumps(fiber)).encode()).hexdigest()
    return [label, f"  skeleton and fiber sha256 {digest}"]


def golden_lines() -> list[str]:
    h, mods = ks3()
    lines = report_lines("unbumped", verify_irreps(h.alg, mods))
    for label, alg, fam in action_bumps():
        lines += report_lines(label, verify_irreps(alg, fam))
    for label, alg, fam in mult_bumps():
        lines += report_lines(label, verify_irreps(alg, fam))
    lines += skeletalize_lines("unbumped", h, mods)
    for label, hb, fam in comult_bumps():
        lines += skeletalize_lines(label, hb, fam)
    return lines


def test_irreps_and_skeletalize_bumps_match_golden():
    assert golden_lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
