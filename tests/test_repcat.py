"""Module categories over a presented Hopf algebra: Hom spaces, tensor
decompositions, skeletalization, and the reconstruction round trip."""

import dataclasses
import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest

from hopfrec import fusion, hopf, repcat
from hopfrec.errors import DecompositionGap, ShapeError
from hopfrec.examples import EXAMPLES, gen_function_algebra, gen_group_algebra
from hopfrec.fusion import verify_category
from hopfrec.groups import cyclic_group, direct_product, symmetric_group
from hopfrec.matrices import Matrix, _intertwiner_constraint, _kron_sum, block_diag, mat_inverse
from hopfrec.reconstruct import reconstruct_hopf, zeta_modules
from hopfrec.repcat import (
    ModuleRep,
    _act,
    _roundtrip,
    decompose,
    dual_module,
    gamma_roundtrip,
    hom_space,
    skeletalize,
    tensor_module,
    trivial_module,
    verify_irreps,
)
from hopfrec.scalars import ONE, ZERO, Scalar, sc
from test_hopf_bumps import promoted
from test_matrices import two_rref_kernel
from test_generators import base
from test_skeletal_coherence import FAMILIES, cyclic_characters
from test_tensorator_bumps import alternating_group_4, modules_a4

S3 = symmetric_group(3)
KS3 = gen_group_algebra(S3)


def s3_modules():
    return EXAMPLES["ks3-modules"][1]()


def test_verify_irreps_s3():
    assert verify_irreps(KS3.alg, s3_modules()).passed


def test_verify_irreps_flags_duplicates_and_gaps():
    triv, sgn, std = s3_modules()
    rep = verify_irreps(KS3.alg, [triv, std, std])
    names = {f.check for f in rep.failures}
    assert "distinct" in names  # std appears twice
    assert "complete" in names  # 1 + 4 + 4 != 6
    assert rep.failures  # and nothing passed silently


def test_verify_irreps_flags_a_reducible_member():
    # triv (+) sgn has a two dimensional End, and shares a line of Hom with
    # each of its summands; 1 + 1 + 4 = 6 still fills the algebra
    triv, sgn, _ = s3_modules()
    both = ModuleRep(2, [block_diag([t, s]) for t, s in zip(triv.action, sgn.action)], "triv+sgn")
    rep = verify_irreps(KS3.alg, [triv, sgn, both])
    assert [f.line() for f in rep.failures] == [
        "split-irreducible at (2,): dim End = 2 != dim End = 1",
        "distinct at (0, 2): dim Hom = 1 != dim Hom = 0",
        "distinct at (1, 2): dim Hom = 1 != dim Hom = 0",
        "distinct at (2, 0): dim Hom = 1 != dim Hom = 0",
        "distinct at (2, 1): dim Hom = 1 != dim Hom = 0",
    ]


def test_verify_irreps_rejects_a_0_dim_module():
    # a 0-dim module adds nothing to the squared dims or to gamma's rows, so
    # the family fills the algebra and gamma has rank 6; End(0) = 0 decides
    zero = ModuleRep(0, [Matrix.zeros(0, 0)] * KS3.dim, "Z")
    rep = verify_irreps(KS3.alg, [*s3_modules(), zero])
    assert [f.line() for f in rep.failures] == ["split-irreducible at (3,): dim End = 0 != dim End = 1"]


def test_hom_space_character_oracle():
    triv, sgn, std = s3_modules()
    assert len(hom_space(triv, sgn)) == 0
    assert len(hom_space(std, std)) == 1
    t = tensor_module(KS3, std, std)
    # chi(std x std) = chi_triv + chi_sgn + chi_std, so each Hom is a line
    for irr in (triv, sgn, std):
        assert len(hom_space(irr, t)) == 1
    # and every basis element returned is an actual intertwiner
    for m in hom_space(std, t):
        for i in range(6):
            assert t.action[i] * m == m * std.action[i]


def test_hom_space_rejects_modules_over_algebras_of_different_dims():
    # a module over a 1-dim algebra into one over a 2-dim algebra
    v = ModuleRep(1, (Matrix.identity(1),), "V")
    w = ModuleRep(1, (Matrix.identity(1), Matrix.identity(1)), "W")
    with pytest.raises(ShapeError, match="V and W are modules over algebras of dims 1 and 2"):
        hom_space(v, w)
    with pytest.raises(ShapeError, match="W and V are modules over algebras of dims 2 and 1"):
        hom_space(w, v)
    with pytest.raises(ShapeError, match="V and W are modules over algebras of dims 1 and 2"):
        decompose(w, [v])  # through hom_space(v, w)


def test_hom_space_dim_is_basis_independent():
    triv, sgn, std = s3_modules()
    g = Matrix.from_rows([[1, 1], [0, 1]])
    conj = ModuleRep(
        dim=2,
        action=tuple(mat_inverse(g) * a * g for a in std.action),
        name="std-conj",
    )
    t = tensor_module(KS3, std, std)
    assert len(hom_space(conj, t)) == len(hom_space(std, t))
    assert len(hom_space(conj, conj)) == 1


def constraint_matrix(av: Matrix, aw: Matrix) -> Matrix:
    """The matrix of the rows that `_intertwiner_constraint` returns, at
    the D it returns; its conductor is the one returned beside them."""
    d, n, rows = _intertwiner_constraint(av, aw)
    size = av.rows * aw.rows
    m = Matrix._from_low(size, size, d, rows)
    assert m._n == n
    return m


def test_intertwiner_constraint_is_the_kron_form():
    # hom_space builds the rows of act_w (x) I - I (x) act_v^T; on
    # conductor 1 they hold the lowering that Matrix._lowered would compute
    mods = s3_modules()
    p = Matrix.from_rows([[2, 1], [0, 3]])
    pinv = mat_inverse(p)
    std = mods[2]
    mods.append(ModuleRep(2, tuple(p * a * pinv for a in std.action), "std/P"))
    for v in mods:
        for w in mods:
            iv, iw = Matrix.identity(v.dim), Matrix.identity(w.dim)
            for av, aw in zip(v.action, w.action):
                got = constraint_matrix(av, aw)
                assert got == aw.kron(iv) - iw.kron(av.transpose())
                assert {e.conductor for e in got.entries} == {1}
                if got.cols > 1:  # a product lowers only a factor with more than one column
                    assert got._low == Matrix._of(got.rows, got.cols, got.entries)._lowered()
    # denominators that cancel on the diagonal leave D = 1, as a fresh lowering finds
    a = Matrix.from_rows([[Fraction(1, 2), 0], [1, Fraction(1, 2)]])
    got = constraint_matrix(a, a)
    i2 = Matrix.identity(2)
    assert got == a.kron(i2) - i2.kron(a.transpose())
    assert got._low == Matrix._of(4, 4, got.entries)._lowered() and got._low[0] == 1


def ref_constraint(av: Matrix, aw: Matrix) -> Matrix:
    """aw (x) I - I (x) av^T written entry by entry: each nonzero aw[i, j]
    is placed, then each nonzero av[l, k] subtracted from its cell, so a
    cell whose terms cancel is a zero at their conductor and an untouched
    cell stays ZERO."""
    nv, nw = av.rows, aw.rows
    n = nv * nw
    out = [ZERO] * (n * n)
    for i in range(nw):
        for j, x in enumerate(aw.row(i)):
            if x:
                for k in range(nv):
                    out[(i * nv + k) * n + j * nv + k] = x
        for k in range(nv):
            for l in range(nv):
                y = av.at(l, k)
                if y:
                    p = (i * nv + k) * n + i * nv + l
                    out[p] = out[p] - y
    return Matrix._of(n, n, out)


def test_intertwiner_constraint_off_conductor_1_matches_the_entrywise_form():
    # conductor-3 actions, actions across conductors 1 and 3, and 1x1 pairs
    # give the entries, conductor and text of the entrywise form
    z = Scalar.zeta(3)
    zero3 = Scalar(3, [0, 0])
    p = Matrix.from_rows([[1, z], [0, 1]])
    pinv = mat_inverse(p)
    triv, sgn, std = s3_modules()
    std3 = ModuleRep(2, tuple(p * a * pinv for a in std.action), "std/Pz")
    assert {a._n for a in std3.action} == {3}
    ones = [Matrix(1, 1, [x]) for x in (0, 1, -1, z, z * z, zero3, Fraction(1, 2) * z)]
    actions = [a for v in (triv, sgn, std, std3) for a in v.action] + ones
    cancelled = 0
    for av in actions:
        for aw in actions:
            got, want = constraint_matrix(av, aw), ref_constraint(av, aw)
            iv, iw = Matrix.identity(av.rows), Matrix.identity(aw.rows)
            assert got == aw.kron(iv) - iw.kron(av.transpose())
            assert (got._n, str(got)) == (want._n, str(want))
            assert [(e.conductor, e.coeffs) for e in got.entries] == [(e.conductor, e.coeffs) for e in want.entries]
            if hasattr(got, "_low"):
                assert repr(got._low) == repr(Matrix._of(got.rows, got.cols, got.entries)._lowered())
            cancelled += any(e.conductor == 3 and not e for e in want.entries)
    assert cancelled
    # the text and conductor the entrywise form gives, pinned
    zero, one, neg, mz, mz2, mzero3, mzhalf = ones
    pins = [
        (zero, zero, 1, "[0/1]"),
        (mzero3, mzero3, 1, "[0/1]"),
        (mzero3, one, 1, "[1/1]"),
        (one, mzero3, 1, "[-1/1]"),
        (mz, mzero3, 3, "[z3[0/1,-1/1]]"),
        (mz, mz, 3, "[z3[0/1,0/1]]"),
        (one, mz2, 3, "[z3[-2/1,-1/1]]"),
        (mzhalf, neg, 3, "[z3[-1/1,-1/2]]"),
    ]
    assert all(av.rows == aw.rows == 1 for av, aw, *_ in pins)
    pins += [
        (mz, std3.action[1], 3, "[z3[1/1,0/1] z3[1/1,-1/1]; z3[1/1,0/1] z3[-1/1,-2/1]]"),
        (std3.action[1], mz, 3, "[z3[-1/1,0/1] z3[-1/1,0/1]; z3[-1/1,1/1] z3[1/1,2/1]]"),
        (
            std3.action[3],
            std.action[3],
            3,
            "[z3[0/1,-1/1] z3[-1/1,0/1] z3[-1/1,0/1] z3[0/1,0/1]; z3[0/1,0/1] z3[1/1,1/1] z3[0/1,0/1] z3[-1/1,0/1]; "
            "z3[1/1,0/1] z3[0/1,0/1] z3[-1/1,-1/1] z3[-1/1,0/1]; z3[0/1,0/1] z3[1/1,0/1] z3[0/1,0/1] z3[0/1,1/1]]",
        ),
    ]
    for av, aw, n, text in pins:
        got = constraint_matrix(av, aw)
        assert (got._n, str(got)) == (n, text)


def _promoted(v: ModuleRep) -> ModuleRep:
    act = tuple(Matrix(a.rows, a.cols, [e.promote(2) for e in a.entries]) for a in v.action)
    return ModuleRep(v.dim, act, v.name)


def chain_hom_space(v: ModuleRep, w: ModuleRep) -> list:
    """hom_space as a chain of Matrix operations: the entrywise constraint
    C of each action, in index order, cuts the kernel K so far to K k(C K)
    unless C K is zero, k the two-rref kernel of test_matrices, which
    shares no code with the kernel cuts of hom_space; a K with no column
    ends it, and the basis is the rows of the rref of K^T; no cut leaves
    the matrix units."""
    n = w.dim * v.dim
    ker = None
    for av, aw in zip(v.action, w.action):
        hit = ref_constraint(av, aw)
        if ker is not None:
            hit = hit * ker
        if hit.is_zero():
            continue
        ker = two_rref_kernel(hit) if ker is None else ker * two_rref_kernel(hit)
        if not ker.cols:
            return []
    if ker is None:
        return [Matrix._of(w.dim, v.dim, [ONE if k == j else ZERO for k in range(n)]) for j in range(n)]
    red, _ = ker.transpose().rref()
    return [Matrix._of(w.dim, v.dim, red.row(i)) for i in range(red.rows)]


def basis_cells(basis: list) -> list:
    return [(t._n, [(e.conductor, e.coeffs) for e in t.entries]) for t in basis]


def zero_module(h) -> ModuleRep:
    return ModuleRep(0, [Matrix.zeros(0, 0)] * h.dim, "0")


def hom_chain_case(name: str):
    if name == "rebuilt-ks4":
        return base(name)
    if name == "ka4":  # written over Q(zeta_3)
        g = alternating_group_4()
        return gen_group_algebra(g), modules_a4(g)
    if name == "ks3-mixed":  # std at conductor 1 beside its conjugate at 3, and a 0-dim module
        z = Scalar.zeta(3)
        p = Matrix.from_rows([[1, z], [0, 1]])
        mods = s3_modules()
        std3 = ModuleRep(2, tuple(p * a * mat_inverse(p) for a in mods[2].action), "std/Pz")
        return KS3, mods + [std3, zero_module(KS3)]
    if name == "kz3-mixed":  # chi_0 + chi_1: a cut whose kernel holds ints only, at conductor 3
        z = Scalar.zeta(3)
        both = ModuleRep(2, tuple(Matrix(2, 2, [1, 0, 0, z**k]) for k in range(3)), "chi0+chi1")
        return gen_group_algebra(cyclic_group(3)), cyclic_characters(3) + [both]
    h, mods = EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1]()
    return h, mods + [zero_module(h)] if name == "ks3" else mods


MIXED = ("ka4", "ks3-mixed", "kz3-mixed")


@pytest.mark.parametrize("name", FAMILIES + ["rebuilt-ks4", *MIXED])
def test_hom_space_is_the_matrix_chain(name):
    """The fraction-free kernel of hom_space gives, entry by entry and in
    conductor, the basis of the Matrix chain it replaced, between every
    module of the family and each tensor module, on every action and on
    the generators alone."""
    h, mods = hom_chain_case(name)
    gens = h.alg._gens
    conductors = set()
    for v, w in itertools.product(mods, repeat=2):
        t = tensor_module(h, v, w)
        for rows in ([range(h.dim)] + [gens] * bool(gens)):
            def cut(m, rows=rows):
                return ModuleRep(m.dim, [m.action[i] for i in rows], m.name)
            for u in mods:
                for a, b in ((cut(u), cut(t)), (cut(t), cut(u))):
                    got, want = hom_space(a, b), chain_hom_space(a, b)
                    assert basis_cells(got) == basis_cells(want), (a.name, b.name)
                    conductors |= {t._n for t in got}
    assert conductors == ({1, 3} if name in MIXED else {1})


def test_hom_space_same_on_rational_and_scalar_paths():
    # conductor 2 is still Q but takes the Scalar loops, so the canonical
    # bases must come out identical
    h = gen_group_algebra(symmetric_group(4))
    irreps = EXAMPLES["ks4-modules"][1]()
    mods = irreps + [tensor_module(h, irreps[3], irreps[4])]
    twins = [_promoted(v) for v in mods]
    for v, pv in zip(irreps, twins):
        for w, pw in zip(mods, twins):
            basis = hom_space(v, w)
            assert basis == hom_space(pv, pw)
            assert all(e.conductor == 1 for t in basis for e in t.entries)
    assert [len(hom_space(v, mods[-1])) for v in irreps] == [0, 1, 1, 1, 1]


def dense_tensor_action(h, v, w) -> tuple:
    """The comultiplication summed over every cell, zeros included."""
    out = []
    for plane in h.comult:
        acc = Matrix.zeros(v.dim * w.dim, v.dim * w.dim)
        for j, row in enumerate(plane):
            for k, c in enumerate(row):
                acc = acc + c * v.action[j].kron(w.action[k])
        out.append(acc)
    return tuple(out)


def test_sparse_tensor_module_matches_the_dense_sum():
    cases = [(EXAMPLES[n][1](), EXAMPLES[f"{n}-modules"][1]()) for n in ("fun-s3", "dz2")]
    # rebuilt K[S3] on its own simples has comult coefficients other than 1
    recon = reconstruct_hopf(*skeletalize(KS3, s3_modules(), verify=False), verify=False)
    cases.append((recon.hopf, zeta_modules(recon)))
    assert any(c and c != 1 for plane in recon.hopf.comult for row in plane for c in row)
    for h, mods in cases:
        for v in mods:
            for w in mods:
                got = tensor_module(h, v, w).action
                assert got == dense_tensor_action(h, v, w)
                assert all(e.conductor == 1 for a in got for e in a.entries)


def zero_folded(dim: int, terms) -> Matrix:
    """sum c * m over the (c, m) terms with c nonzero, folded from the
    dim x dim zero matrix."""
    acc = Matrix.zeros(dim, dim)
    for c, m in terms:
        if c:
            acc = acc + c * m
    return acc


def entry_cells(m: Matrix) -> list:
    return [(x.conductor, x.coeffs, str(x)) for x in m.entries]


def combination_case(name: str):
    if name.startswith("kz"):
        n = int(name.removeprefix("kz"))
        return gen_group_algebra(cyclic_group(n)), cyclic_characters(n)
    if name == "ks3-promoted":
        return promoted(KS3, 2), s3_modules()
    if name in ("fun-s3", "dz2"):
        return EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1]()
    g = alternating_group_4()
    h, mods = gen_group_algebra(g), modules_a4(g)
    if name == "ka4":
        return h, mods
    recon = reconstruct_hopf(*skeletalize(h, mods, verify=False), verify=False)
    return recon.hopf, zeta_modules(recon)


@pytest.mark.parametrize("name", ["ka4", "kz5", "kz8", "kz12", "fun-s3", "dz2", "rebuilt-ka4", "ks3-promoted"])
def test_combinations_match_the_zero_folded_sums(name):
    """_act sums from its first nonzero term and tensor_module sums its
    krons on their lowered rows, yet every entry equals the fold from the
    zero matrix in value, conductor and text.  tensor_module adds a kron
    whose comult coefficient equals 1 unscaled at any conductor, so its
    reference reads such a coefficient as the rational 1: on K[S3]
    promoted to conductor 2, scaling by that coefficient would lift the
    rational cells."""
    h, mods = combination_case(name)
    n = h.dim
    lifted = False
    for v in mods:
        coeffs = [h.alg.unit] + [h.alg.mult[i][j] for i in range(n) for j in range(n)]
        for cs in coeffs:
            assert entry_cells(_act(v, enumerate(cs))) == entry_cells(zero_folded(v.dim, zip(cs, v.action)))
        for i, a in enumerate(dual_module(h, v).action):
            ref = zero_folded(v.dim, zip(h.antipode.entries[i::n], v.action)).transpose()
            assert entry_cells(a) == entry_cells(ref)
        for w in mods:
            d = v.dim * w.dim
            for i, a in enumerate(tensor_module(h, v, w).action):
                krons = [(c, v.action[j].kron(w.action[k])) for j, row in enumerate(h.comult[i]) for k, c in enumerate(row) if c]
                want = zero_folded(d, [(1 if c == 1 else c, m) for c, m in krons])
                assert (a._n, entry_cells(a)) == (want._n, entry_cells(want))
                lifted |= entry_cells(a) != entry_cells(zero_folded(d, krons))
    assert lifted == (name == "ks3-promoted")


def test_a_kron_that_places_no_cell_still_lifts_the_conductor():
    # a zero factor, or a zero at conductor 3, adds no cell to the sum, yet
    # scaling it by a conductor-3 coefficient lifts the zero-folded sum
    z = Scalar.zeta(3)
    a, zero, zero3 = Matrix.from_rows([[1, 2], [0, 1]]), Matrix.zeros(2, 2), Matrix(2, 2, [Scalar(3, [0, 0])] * 4)
    for terms in ([(z, zero, a), (ONE, a, a)], [(ONE, a, zero3), (sc(2), a, a)], [(z, a, zero)], []):
        got = _kron_sum(4, 4, terms)
        want = zero_folded(4, [(c, x.kron(y)) for c, x, y in terms])
        assert (got._n, entry_cells(got)) == (want._n, entry_cells(want))


def constraint_route(v: ModuleRep, w: ModuleRep) -> list:
    """hom_space of two 1-dim modules as a kernel: each action's 1x1
    constraint aw - av, in index order, cuts a kernel of the identity by
    the two-rref kernel of test_matrices."""
    ker = Matrix.identity(1)
    for av, aw in zip(v.action, w.action):
        if ker.cols and not (hit := constraint_matrix(av, aw) * ker).is_zero():
            ker = ker * two_rref_kernel(hit)
    return [Matrix(1, 1, [ker.at(0, j)]) for j in range(ker.cols)]


def test_one_dim_hom_is_the_constraint_route():
    # every pair of characters of K[Z/n] for n = 5, 8, 12, and the
    # characters of K[Z/12] of order dividing 4 written at conductor 4,
    # which equal their twins at conductor 12 and differ from the others
    twelve = cyclic_characters(12)
    i = Scalar.zeta(4)
    fours = [ModuleRep(1, tuple(Matrix(1, 1, [i ** (s * t % 4)]) for t in range(12)), f"psi{s}") for s in range(4)]
    assert {v.action[1]._n for v in fours} == {1, 4} and all(v.action == twelve[3 * s].action for s, v in enumerate(fours))
    families = [cyclic_characters(5), cyclic_characters(8), twelve + fours]
    dims = []
    for mods in families:
        for v, w in itertools.product(mods, repeat=2):
            got, want = hom_space(v, w), constraint_route(v, w)
            assert [(t._n, str(t)) for t in got] == [(t._n, str(t)) for t in want]
            dims.append(len(got))
    assert sum(dims) == 5 + 8 + 12 + 2 * 4 + 4


def test_tensor_with_trivial_module():
    triv, sgn, std = s3_modules()
    t = tensor_module(KS3, std, trivial_module(KS3))
    # V x 1 realized on the same underlying space: actions match entrywise
    assert t.dim == std.dim
    assert all(t.action[i] == std.action[i] for i in range(6))


def test_tensor_module_literal_associativity():
    triv, sgn, std = s3_modules()
    lhs = tensor_module(KS3, tensor_module(KS3, std, sgn), std)
    rhs = tensor_module(KS3, std, tensor_module(KS3, sgn, std))
    assert lhs.dim == rhs.dim == 4
    assert all(lhs.action[i] == rhs.action[i] for i in range(6))


def test_dual_module_of_std_is_std():
    triv, sgn, std = s3_modules()
    d = dual_module(KS3, std)
    assert d.dim == 2
    assert len(hom_space(d, std)) == 1


def test_dual_module_needs_one_action_per_basis_element():
    triv, sgn, std = s3_modules()
    with pytest.raises(ShapeError, match="has 5 action matrices for dim 6"):
        dual_module(KS3, dataclasses.replace(std, action=std.action[:5]))


def test_tensor_module_needs_one_action_per_basis_element():
    # a module listed on the generators alone, as the first or second factor
    h, std = EXAMPLES["ks3"][1](), EXAMPLES["ks3-modules"][1]()[2]
    v = ModuleRep(2, [std.action[i] for i in h.alg._gens], "std|gens")
    for a, b in ((v, std), (std, v)):
        with pytest.raises(ShapeError, match=r"^module std\|gens has 2 action matrices for dim 6$"):
            tensor_module(h, a, b)


def test_decompose_std_squared():
    triv, sgn, std = s3_modules()
    t = tensor_module(KS3, std, std)
    dec = decompose(t, [triv, sgn, std])
    assert dec.mult == (1, 1, 1)
    # tau conjugates the tensor action into block-diagonal form; check one
    tau = dec.tau
    assert tau.rows == 4 and not tau.det().is_zero()


def test_decompose_needs_complete_family():
    triv, sgn, std = s3_modules()
    t = tensor_module(KS3, std, std)
    with pytest.raises(DecompositionGap):
        decompose(t, [triv, sgn])


def test_decompose_rejects_degenerate_isotypic_images():
    # triv is counted twice, so the multiplicities add up to dim V but the
    # two embeddings of triv into triv + sgn coincide
    triv, sgn, std = s3_modules()
    v = ModuleRep(2, tuple(block_diag([a, b]) for a, b in zip(triv.action, sgn.action)))
    with pytest.raises(DecompositionGap) as err:
        decompose(v, [triv, triv])
    assert str(err.value) == "isotypic images of V are degenerate"


def test_decompose_solves_every_member_of_an_ungated_family(monkeypatch):
    # decompose takes no isotypic bound: it solves one Hom per member, and
    # on [std, std] the total counts both copies, which a bound that stops
    # at dim std would have read as one copy and an invertible stack
    triv, sgn, std = s3_modules()
    calls = []
    real = repcat.hom_space
    monkeypatch.setattr(repcat, "hom_space", lambda v, w: calls.append(v) or real(v, w))
    t = tensor_module(KS3, std, std)
    assert decompose(t, [std, sgn, triv]).mult == (1, 1, 1)
    assert calls == [std, sgn, triv]
    with pytest.raises(DecompositionGap) as err:
        decompose(std, [std, std])
    assert str(err.value) == "module std has dim 2 but the family accounts for 4"
    assert calls[3:] == [std, std]


def test_skeletalize_kz2_is_trivial_pointed():
    h = gen_group_algebra(cyclic_group(2))
    mods = EXAMPLES["kz2-modules"][1]()
    skel, fiber = skeletalize(h, mods)
    assert skel.rank == 2
    assert fiber.dims == (1, 1)
    assert fiber.iota == sc(1)
    for m in skel.F.values():
        assert m == Matrix.identity(1)
    for j in fiber.J.values():
        assert j == Matrix.identity(1)
    assert all(r.passed for r in verify_category(skel, fiber))


def test_gamma_roundtrip_kz2():
    h = gen_group_algebra(cyclic_group(2))
    rep, gamma = gamma_roundtrip(h, EXAMPLES["kz2-modules"][1]())
    assert rep.passed, [f.line() for f in rep.failures]
    # gamma sends e to (1,1) and g to (1,-1): the character table
    assert gamma == Matrix.from_rows([[1, 1], [1, -1]])


def test_gamma_roundtrip_kz2z2():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    h = gen_group_algebra(g)
    rep, gamma = gamma_roundtrip(h, EXAMPLES["kz2z2-modules"][1]())
    assert rep.passed
    assert gamma.rows == 4 and not gamma.det().is_zero()


def test_gamma_roundtrip_fun_s3():
    h = gen_function_algebra(S3)
    rep, gamma = gamma_roundtrip(h, EXAMPLES["fun-s3-modules"][1]())
    assert rep.passed, [f.line() for f in rep.failures]
    assert gamma.rows == 6


def test_gamma_roundtrip_ks4():
    # largest shipped example: 24-dim algebra, irrep dims 1,1,2,3,3
    h = gen_group_algebra(symmetric_group(4))
    rep, gamma = gamma_roundtrip(h, EXAMPLES["ks4-modules"][1]())
    assert rep.passed, [f.line() for f in rep.failures]
    assert gamma.rows == 24


def test_gamma_roundtrip_sweeps_no_category_data(monkeypatch):
    # the skeletal data is coherent by construction (repcat._skeletalize), so
    # the round trip calls no category checker; skeletalize audits it once
    calls = []
    checkers = ("verify_category", "verify_pentagon", "verify_tensorator", "verify_duality")
    reals = {name: getattr(fusion, name) for name in checkers}
    # every hopfrec module that binds one of them by name
    for modname, mod in list(sys.modules.items()):
        for name, real in reals.items():
            if modname.startswith("hopfrec") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    for verify in (True, False):
        rep, gamma = gamma_roundtrip(KS3, s3_modules(), verify=verify)
        assert rep.passed and gamma.rows == 6
    assert calls == []
    skeletalize(KS3, s3_modules(), verify=True)
    assert calls == list(checkers)




def counted_products(monkeypatch) -> Counter:
    """Matrix-by-Matrix products from here on, by the function that asks."""
    calls = Counter()
    real = Matrix.__mul__

    def counted(self, other):
        if isinstance(other, Matrix):
            calls[sys._getframe(1).f_code.co_name] += 1
        return real(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    return calls


def test_a_passing_ks4_round_trip_builds_six_products(monkeypatch):
    # every identity is decided by matrices._is_product: the gate's module
    # laws, S' gamma = gamma S and the involutive flag build no product; the
    # coevaluations of _rigidity and gamma S itself are the six
    h, mods = EXAMPLES["ks4"][1](), EXAMPLES["ks4-modules"][1]()
    calls = counted_products(monkeypatch)
    rep, _, _ = _roundtrip(h, mods)
    assert rep.passed
    assert calls == {"_rigidity": 5, "_roundtrip": 1}


@pytest.mark.parametrize("name", ["ks4", "ks3", "dz2"])
def test_a_passing_round_trip_sweeps_the_bialgebra_once(monkeypatch, name):
    # _decompositions decides the bialgebra on the generators, and transport
    # reads that verdict instead of running check_bialgebra again
    sweeps = []
    real = hopf._bialgebra_sweep
    for mod in (hopf, repcat):
        monkeypatch.setattr(mod, "_bialgebra_sweep", lambda *a: sweeps.append(a[1]) or real(*a))
    h, mods = EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1]()
    rep, _, _ = _roundtrip(h, mods)
    assert rep.passed
    assert len(sweeps) == 1


@pytest.mark.parametrize("name", ["ks3", "dz2", "kz2z2"])
def test_verify_category_builds_no_product(monkeypatch, name):
    # the tensorator and both zigzags are decided by matrices._is_product
    skel, fiber = skeletalize(EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1](), verify=False)
    calls = counted_products(monkeypatch)
    assert all(rep.passed for rep in verify_category(skel, fiber))
    assert calls == {}
