"""Sweedler's 4-dim Hopf algebra H4 and its 2-dim indecomposable module V.

H4 has basis 1, g, x, gx with g^2 = 1, x^2 = 0 and xg = -gx; g is
grouplike, Delta(x) = x (x) 1 + g (x) x, eps(x) = 0 and S(x) = -gx.  It
passes every Hopf axiom, S^2 != id, and it is not semisimple.  On V,
g = diag(1, -1) and x = gx = E_12: V is a module with End(V) = K, and
its one squared dim fills dim H4, but V is not irreducible (the line
spanned by the first basis vector is a submodule).  gamma: H4 -> End(V)
has rank 3, so the irreps gate rejects [V] with the rank line alone.
"""

from hopfrec import cli, repcat, serialize
from hopfrec.hopf import AlgebraPresentation, HopfPresentation, run_hopf_checks
from hopfrec.matrices import Matrix
from hopfrec.repcat import ModuleRep, verify_irreps

ONE, G, X, GX = range(4)  # basis indices

# e_i e_j = c e_k as (i, j): (c, k), beside the products with the unit; every
# other product of two of x, gx is 0
PRODUCTS = {(G, G): (1, ONE), (G, X): (1, GX), (G, GX): (1, X), (X, G): (-1, GX), (GX, G): (-1, X)}
# Delta(e_i) as the pairs (j, k) of its terms e_j (x) e_k, each with coefficient 1
COPRODUCTS = {ONE: [(ONE, ONE)], G: [(G, G)], X: [(X, ONE), (G, X)], GX: [(GX, G), (ONE, GX)]}


def sweedler_h4() -> HopfPresentation:
    mult = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    comult = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        mult[ONE][i][i] = mult[i][ONE][i] = 1
        for j, k in COPRODUCTS[i]:
            comult[i][j][k] = 1
    for (i, j), (c, k) in PRODUCTS.items():
        mult[i][j][k] = c
    # column i holds S(e_i): S(1) = 1, S(g) = g, S(x) = -gx, S(gx) = x
    antipode = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return HopfPresentation(AlgebraPresentation(4, mult, [1, 0, 0, 0]), comult, [1, 1, 0, 0], antipode)


def indecomposable_v() -> ModuleRep:
    e12 = Matrix.from_rows([[0, 1], [0, 0]])
    return ModuleRep(2, (Matrix.identity(2), Matrix.from_rows([[1, 0], [0, -1]]), e12, e12), "V")


def test_h4_passes_its_hopf_checks_and_is_not_involutive():
    reports = run_hopf_checks(sweedler_h4())
    assert all(rep.passed for rep in reports)
    flags = {k: v for rep in reports for k, v in rep.flags.items()}
    assert flags["involutive"] is False


def test_v_is_a_module_with_one_dim_end_and_gamma_of_rank_three():
    h, v = sweedler_h4(), indecomposable_v()
    assert len(repcat.hom_space(v, v)) == 1
    assert repcat._gamma([v], h.dim).rank() == 3


def test_the_gate_rejects_v_with_the_rank_line_alone():
    rep = verify_irreps(sweedler_h4().alg, [indecomposable_v()])
    assert rep.lines() == [
        "irreducible-family: FAIL (1 failing tuples)",
        "  complete at (): rank of gamma = 3 != algebra dim = 4",
    ]


def test_cli_repcat_rejects_v_and_writes_nothing(tmp_path, capsys):
    hopf, mods, out = tmp_path / "h4.json", tmp_path / "v.json", tmp_path / "skel.json"
    serialize.save(hopf, sweedler_h4())
    serialize.save(mods, [indecomposable_v()])
    assert cli.main(["repcat", str(hopf), str(mods), "-o", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "command: repcat",
        "irreducible-family: FAIL (1 failing tuples)",
        "  complete at (): rank of gamma = 3 != algebra dim = 4",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h4.json", "v.json"]
