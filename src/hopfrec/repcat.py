"""Finite dimensional modules over a presented algebra, their tensor
calculus, and the passage from a complete family of split irreducibles to
skeletal category data with the forgetful fiber functor.

A module is the tuple of action matrices of the algebra basis.  hom_space
and decompose also take a module listed on the generators alone, once it
is known to be a module (see Generators); tensor_module, dual_module and
verify_irreps raise ShapeError on one.  A tensor action of a generator
sums over comult terms that need the actions of non-generators, the
dual's action of e_i is that of S(e_i), which is in general no
generator, and the gate checks the module laws and ranks gamma on every
basis element.  All decompositions use the canonical echelon bases of
intertwiner spaces, so every derived object (J, F, duals,
coevaluations) is deterministic.

The gate.  Once each V_a of a family is a module, gamma = act_1 + ... +
act_r: H -> End(V_1) + ... + End(V_r) is a unital algebra map.  When the
squared dims sum to n = dim H and every V_a is nonzero, the family is a
complete set of pairwise distinct split irreducibles exactly when gamma
has rank n, and verify_irreps decides by that rank.  If gamma is onto,
so is each act_a: a subspace of the nonzero V_a that End(V_a) keeps is 0
or V_a, so V_a is irreducible, and End_H(V_a), the commutant of
End(V_a), is K (Burnside).  An isomorphism T: V_a -> V_b, a != b, would
confine the image of gamma to the pairs with act_b = T act_a T^-1, so
Hom(V_a, V_b) = 0 by Schur's lemma.  Conversely, gamma is onto for
distinct split irreducibles by the density theorem (Etingof et al.,
Introduction to Representation Theory, 3.2.2), and H = End(V_1) + ... +
End(V_r) (Artin-Wedderburn).  dim End = 1 is weaker than irreducible:
Sweedler's H4 on its 2-dim indecomposable module has it, and gamma has
rank 3 of 4.  A 0-dim module adds nothing to the squared dims or to
gamma, and fails with dim End = 0.  Each module law act(e_i) act(e_j) =
act(e_i e_j) is decided by `matrices._is_product` on the lowerings of
the three actions, so a passing gate builds no product; only a failing
pair is multiplied out, to render its report.

Generators.  The basis indices `AlgebraPresentation._gens` generate the
algebra, and exist only once check_algebra has passed (see hopf).  The
e_x on which a module's action is multiplicative form a unital subalgebra
once the unit acts as the identity, so verify_irreps checks module
structure at (g, j) for g in the generators and every j, and sweeps every
(i, j) of a module on any failure.  Between modules, the generators
decide Hom as well.  Take modules V, W and T: V -> W linear.  The x in H
with T act_V(x) = act_W(x) T form a subspace that holds 1, which acts as
the identity on both sides, and is closed under products, since both
actions are multiplicative: a unital subalgebra.  If it holds every e_g,
g a generator, it holds every e_i.  So Hom(V, W) is the joint kernel of
the generators' constraints, which hom_space cuts out of V and W
restricted to the generators; it ends with the rref of the kernel, so
the basis is the canonical one that every action gives, and so is each
decomposition read off such bases.  _skeletalize decomposes each tensor
module on the generators once H passes check_bialgebra, which makes it a
module (the premises are in _skeletalize), and on every action otherwise.
On either path it solves Hom(V_c, M) under the isotypic bound: after the
gate, the sum over c of dim Hom(V_c, M) d_c is at most dim M, so a V_c
with d_c above what the solves made so far leave of dim M is skipped,
its Hom proved 0 (the proof in _decompositions).  Public decompose takes
a family that nothing has gated and solves every member.

Skeletal data.  skeletalize reads N and J off the decompositions of the
tensor modules, F off the trees that J realizes, every row of each, and
each dual off N; it reads no antipode.  skeletalize, the CLI repcat and
roundtrip and gamma_roundtrip all decompose through _decompositions,
under the isotypic bound (see Generators): a K[S4] round trip solves 53
of the 125 Hom spaces that one solve per irreducible per tensor module
would, and the 72 it skips are 0.  The tensor actions, the Hom
kernels, the trees and the F solve run on the lowered rows that the
matrices hold (matrices, Lowered kernel): no Scalar matrix is built per
comult term, per tree, or per step of a kernel, whose elimination runs
fraction-free on ints at conductor 1; hom_space builds Scalars for its
answer alone.  Whatever skeletalize returns passes verify_category by
construction (the proof is in _skeletalize).

Round trip.  gamma_roundtrip rebuilds the Hopf algebra from N, J and the
duals (FusionRules), reading no F, and compares it with the source along
gamma.  It sweeps no category data, since the proof leaves nothing for a
sweep to find.  Of the five laws of a Hopf morphism, gamma is unital,
multiplicative, counital and comultiplicative by construction, and
bijective by the gate, so the round trip decides only S' gamma = gamma S,
as one exact matrix identity: `matrices._is_product` compares S' gamma
with the one product gamma S that it builds.  check_hopf_morphism runs
only when that fails, to list every failing tuple.  The rebuilt side is
certified by transport of structure along gamma when the source passes
its Hopf checks, its bialgebra verdict the one sweep of the
decompositions, and gamma is a bijective Hopf morphism; only otherwise
does it run the Hopf axiom suite of reconstruct_hopf (see _roundtrip).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DecompositionGap, NonRigid, RoundTripFailure, ShapeError, SkeletalizationFailure
from .fusion import FiberData, FusionRules, FusionSkeleton, _copy_offset, pairing_matrix, tree_maps, verify_category
from .hopf import AlgebraPresentation, HopfPresentation, _bialgebra_sweep, check_antipode, check_hopf_morphism
from .matrices import Matrix, _intertwiner_constraint, _is_product, _joint_kernel, _kron_sum, mat_inverse, mat_rsolve
from .reports import CheckReport
from .scalars import ONE, is_one


@dataclass(frozen=True)
class ModuleRep:
    dim: int
    action: tuple  # one dim x dim Matrix per listed algebra element: the basis, or the generators
    name: str = "V"

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(self.action))
        if not self.action:
            raise ShapeError("module over a zero dimensional algebra")
        for m in self.action:
            if not isinstance(m, Matrix) or m.rows != self.dim or m.cols != self.dim:
                raise ShapeError(f"action matrix is not {self.dim}x{self.dim}")


@dataclass(frozen=True)
class Decomposition:
    """V presented as a direct sum of a fixed irreducible family: mult[b]
    copies of the b-th irreducible, with tau mapping V isomorphically onto
    the ordered sum (b ascending, copy index outer, irreducible basis inner)."""

    mult: tuple
    tau: Matrix


@dataclass(frozen=True)
class SliceMorphismData:
    """A linear functor between two fibered categories, recorded per source
    simple a: the multiplicities mult[a][b] of target simples in the image
    of a, and an invertible tau[a] from the source fiber of a onto the
    realized sum of target fibers (b ascending, copy outer, fiber inner).
    """

    mult: tuple  # mult[a][b] nonnegative integers, one row per source simple
    tau: tuple  # one invertible Matrix per source simple

    def __post_init__(self):
        object.__setattr__(
            self, "mult", tuple(tuple(int(x) for x in row) for row in self.mult)
        )
        object.__setattr__(self, "tau", tuple(self.tau))
        if len(self.mult) != len(self.tau):
            raise ShapeError("one multiplicity row and one tau per source simple")
        for m in self.tau:
            if not isinstance(m, Matrix) or not m.is_square():
                raise ShapeError("tau components must be square matrices")


def trivial_module(h: HopfPresentation) -> ModuleRep:
    return ModuleRep(1, tuple(Matrix(1, 1, [x]) for x in h.counit), "1")


def tensor_module(h: HopfPresentation, v: ModuleRep, w: ModuleRep) -> ModuleRep:
    """Action through the comultiplication on the row-major tensor basis.
    A module with other than one action per basis element raises
    ShapeError."""
    _require_actions(v, h.dim, v.name)
    _require_actions(w, h.dim, w.name)
    return ModuleRep(v.dim * w.dim, _tensor_actions(h, v, w, range(h.dim)), _tensor_name(v, w))


def _tensor_name(v: ModuleRep, w: ModuleRep) -> str:
    return f"({v.name}(x){w.name})"


def _tensor_actions(h: HopfPresentation, v: ModuleRep, w: ModuleRep, rows) -> list:
    """The actions of e_i on v (x) w, for i in rows: sum over the stored
    nonzero comult[i][j][k] of that coefficient times act_v(e_j) (x)
    act_w(e_k), summed on the lowered rows by `matrices._kron_sum`.  A
    coefficient equal to 1, at any conductor, leaves its kron unscaled, at
    the kron's own conductor; a single such term is the kron itself."""
    d, planes = v.dim * w.dim, h.comult.planes
    out = []
    for terms in (planes[i] for i in rows):
        if len(terms) == 1 and is_one(terms[0][2]):
            out.append(v.action[terms[0][0]].kron(w.action[terms[0][1]]))
        else:
            out.append(_kron_sum(d, d, [(c, v.action[j], w.action[k]) for j, k, c in terms]))
    return out


def dual_module(h: HopfPresentation, v: ModuleRep) -> ModuleRep:
    """Contragredient action: transpose of the action of the antipode.  A
    module with other than one action per basis element raises ShapeError."""
    n = h.dim
    _require_actions(v, n, v.name)
    action = tuple(_act(v, enumerate(h.antipode.entries[i::n])).transpose() for i in range(n))
    return ModuleRep(v.dim, action, f"{v.name}*")


def _require_actions(v: ModuleRep, n: int, label) -> None:
    """v lists one action per basis element of an algebra of dim n, or
    ShapeError names it by label."""
    if len(v.action) != n:
        raise ShapeError(f"module {label} has {len(v.action)} action matrices for dim {n}")


def _act(v: ModuleRep, terms) -> Matrix:
    """The action of the sum of c e_k over the (k, c) pairs of terms, zeros
    skipped.  Only the rational 1 leaves an action unscaled, as in kron, so
    the sum equals the one folded from the zero matrix, in value and in
    conductor."""
    act = v.action
    return _sum(v.dim, (act[k] if c.conductor == 1 and c.coeffs[0] == 1 else c * act[k] for k, c in terms if c))


def _sum(dim: int, terms) -> Matrix:
    """The sum of the matrices in terms, folded from the first; the dim x
    dim zero matrix when there is none."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return Matrix.zeros(dim, dim) if acc is None else acc


def hom_space(v: ModuleRep, w: ModuleRep) -> list:
    """Canonical basis of intertwiners v -> w, as dim(w) x dim(v) matrices.

    T intertwines iff act_w(e_i) T = T act_v(e_i) for every listed action;
    row-major vectorization turns each constraint into a kernel condition
    on act_w (x) I - I (x) act_v^T, whose rows
    `matrices._intertwiner_constraint` builds on the actions' lowerings.
    `matrices._joint_kernel` refines an integer spanning set of the kernel
    by each constraint in index order, fraction-free on ints at conductor
    1, building no matrix per step, and returns the canonical reduced
    basis of the joint kernel, the one Scalar matrix of the call; a
    constraint is built only while the kernel is not 0.  Between two 1-dim
    modules each constraint is the difference of two entries, so Hom is
    [[1]] when every pair of actions is equal and 0 otherwise.  Modules
    with different numbers of actions raise ShapeError.
    """
    if len(v.action) != len(w.action):
        dims = f"{len(v.action)} and {len(w.action)}"
        raise ShapeError(f"{v.name} and {w.name} are modules over algebras of dims {dims}")
    if v.dim == w.dim == 1:
        same = all(av.entries[0] == aw.entries[0] for av, aw in zip(v.action, w.action))
        return [Matrix._of(1, 1, [ONE])] if same else []
    constraints = (_intertwiner_constraint(av, aw) for av, aw in zip(v.action, w.action))
    red = _joint_kernel(constraints, w.dim * v.dim)
    return [Matrix._of(w.dim, v.dim, red.row(i)) for i in range(red.rows)]


def verify_irreps(alg: AlgebraPresentation, modules: list) -> CheckReport:
    """The family is a complete set of pairwise distinct split irreducible
    modules: unit and product act (decided on the generators, swept in
    full on any miss), every module is nonzero, the squared dims fill the
    algebra and gamma has rank n (see The gate).  A failing family lists
    its End and Hom failures on every action, and the rank of gamma if
    these find none."""
    rep = CheckReport("irreducible-family")
    n = alg.dim
    gens = alg._gens
    for idx, v in enumerate(modules):
        _require_actions(v, n, idx)
        uni = _act(v, enumerate(alg.unit))
        if uni != Matrix.identity(v.dim):
            rep.add("module-unit", (idx,), uni, Matrix.identity(v.dim))
        elif gens is not None and _module_structure(CheckReport(rep.name), alg, idx, v, gens).passed:
            continue
        _module_structure(rep, alg, idx, v, range(n))

    total = sum(v.dim * v.dim for v in modules)
    rank = _gamma(modules, n).rank() if rep.passed and total == n and all(v.dim for v in modules) else None
    if rank == n:
        return rep
    for idx, v in enumerate(modules):
        endo = len(hom_space(v, v))
        if endo != 1:
            rep.add("split-irreducible", (idx,), f"dim End = {endo}", "dim End = 1")
    for a, b in product(range(len(modules)), repeat=2):
        if a != b and (cross := len(hom_space(modules[a], modules[b]))):
            rep.add("distinct", (a, b), f"dim Hom = {cross}", "dim Hom = 0")
    if total != n:
        rep.add("complete", (), f"sum of squared dims = {total}", f"algebra dim = {n}")
    elif rep.passed:  # no failure: every module is nonzero, and the rank was taken and is below n
        rep.add("complete", (), f"rank of gamma = {rank}", f"algebra dim = {n}")
    return rep


def _gamma(modules: list, n: int) -> Matrix:
    """gamma: H -> End(V_1) + ... + End(V_r), whose column i holds the
    actions of e_i block by block, each block row-major (endf_offsets)."""
    return Matrix.from_rows([[x for v in modules for x in v.action[i].entries] for i in range(n)]).transpose()


def _module_structure(rep: CheckReport, alg: AlgebraPresentation, idx: int, v: ModuleRep, rows) -> CheckReport:
    """act(e_i) act(e_j) = act(e_i e_j) for i in rows and every j, each
    right side summed over the stored nonzeros of e_i e_j."""
    act = v.action
    for i in rows:
        for j, terms in enumerate(alg.mult.rows(i)):
            rhs = _act(v, terms)
            if not _is_product(act[i], act[j], rhs):
                rep.add("module-structure", (idx, i, j), act[i] * act[j], rhs)
    return rep


def decompose(v: ModuleRep, irreps: list) -> Decomposition:
    """Multiplicities and the isomorphism onto the ordered isotypic sum,
    read off the canonical hom_space bases, one solve per member of
    irreps.  Raises DecompositionGap when the family does not exhaust v."""
    return _isotypic_sum(v, [hom_space(w, v) for w in irreps])


def _isotypic_sum(v: ModuleRep, bases: list) -> Decomposition:
    """The Decomposition of v whose b-th isotypic part is spanned by the
    maps of bases[b], or DecompositionGap when they do not fill v or their
    images are degenerate."""
    maps = [t for basis in bases for t in basis]
    total = sum(t.cols for t in maps)
    if total != v.dim:
        raise DecompositionGap(
            f"module {v.name} has dim {v.dim} but the family accounts for {total}"
        )
    # the columns of every basis map, in order, embed the sum into v
    stack = Matrix._of(v.dim, total, [t.at(i, j) for i in range(v.dim) for t in maps for j in range(t.cols)])
    try:
        return Decomposition(tuple(len(b) for b in bases), mat_inverse(stack))
    except ValueError:
        raise DecompositionGap(f"isotypic images of {v.name} are degenerate") from None


# -- skeletal data from a module family -------------------------------------

def skeletalize(h: HopfPresentation, modules: list, verify: bool = True):
    """Skeletal fusion data of the module category on the given family,
    with the forgetful functor's tensor structure.

    Returns (FusionSkeleton, FiberData).  The multiplicity bases are the
    canonical intertwiner bases, so J, F and the duality coefficients are
    uniquely determined by the input.  A family that fails verify_irreps
    raises SkeletalizationFailure with its report.  With verify on, the
    output is audited by verify_category, which realizes every tree once
    more; the proof in _skeletalize shows the audit cannot fail, and a
    failure would raise SkeletalizationFailure.  The audit is the test
    suite's oracle for that proof; the CLI `repcat` runs no audit and
    reports the three verdicts from the proof.
    """
    _require_family(h, modules)
    skel, fiber = _skeletalize(h, modules)
    if verify:
        reports = verify_category(skel, fiber)
        bad = [rep for rep in reports if not rep.passed]
        if bad:
            raise SkeletalizationFailure(
                f"derived skeletal data fails its own coherence: {bad[0].name}", bad[0]
            )
    return skel, fiber


def _require_family(h: HopfPresentation, modules: list) -> None:
    """The gate of skeletalize and the round trip, by verify_irreps."""
    fam = verify_irreps(h.alg, modules)
    if not fam.passed:
        raise SkeletalizationFailure("modules are not a complete split irreducible family", fam)


def _skeletalize(h: HopfPresentation, modules: list):
    """skeletalize on a family that verify_irreps has passed: (skel, fiber),
    with no sweep of verify_category.

    N and J alone.  The skeletal data is read off the fusion rules N and
    the decompositions J of the tensor modules, which depend only on the
    bialgebra (mult, unit, comult, counit); no antipode is read.  F at
    (a, b, c, d) solves R_y = sum_x F[y, x] L_x on the flat trees of
    tree_maps, every row of each realized.  dual[a] is the first b with
    N[a][b][unit] >= 1: in a rigid category Hom(1, a (x) b) = Hom(a*, b)
    (Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories, 2.10), which for a
    simple b is nonzero exactly when b is a*.  On a Hopf presentation this
    is the simple that dual_module finds, since V* with its action through
    S is a left dual of V whose ev is H-linear.  Rigidity is checked, not
    assumed: FusionRules requires the duals to form an involution with
    N[a][a*][unit] = N[a*][a][unit] = 1, a singular pairing raises
    NonRigid, and the coevaluation below must lie on the unit copy.  So a
    presentation whose antipode is wrong skeletalizes to the category of
    its bialgebra, and the round trip reports morphism-antipode wherever
    S' gamma differs from gamma S.

    Generators.  Each V_a (x) V_b is built at gens = h.alg._gens alone and
    decomposed against the family restricted to them, when
      (a) gens is not empty: the algebra passed check_algebra, and the
          unital subalgebra that the e_g generate holds every e_i (see
          hopf);
      (b) H passes check_bialgebra, read as _bialgebra_sweep(h._views,
          gens, True), which equals that verdict whenever it passes.  Then
          Delta is multiplicative and Delta(1) = 1 (x) 1, so V (x) W, with
          e_i acting by (act_V (x) act_W) Delta(e_i), is a module whenever
          V and W are;
      (c) every V_u in the family is a module: verify_irreps has passed,
          the gate of skeletalize and of the CLI repcat.
    By the proof in the module docstring, N, J and everything after them
    are then those of decompose(tensor_module(h, V_a, V_b), modules), with
    no action at a non-generator built.  Where (a) or (b) fails, every
    action is built and decomposed, exactly as that call does.  On either
    path each tensor module M is decomposed under the isotypic bound: the
    Hom(V_c, M) are solved in descending order of d_c, and a c with d_c
    above dim M less the m_c d_c solved so far is skipped with the basis
    [], which is what hom_space returns there (the proof is in
    _decompositions).  So the solves are a subset of that call's, each on
    the same inputs, and N, J and every raise are those of the call.

    Existence.  The round trip skips the F solve (_associator) where (a)
    and (b) hold, since every solve then succeeds.  The left trees of
    (a, b, c, d) are H-linear, J being so, and independent (step 3).
    There are dim Hom_H(V_a (x) V_b (x) V_c, V_d) of them, H being
    semisimple once gamma is onto, so they form a basis of that space.
    It holds every right tree, an H-linear map out of the same module by
    coassociativity.

    Coherence by construction.  Whenever this returns without raising,
    verify_category(skel, fiber) passes: it raises nothing and lists no
    failing tuple.  A faithful monoidal functor to Vec reflects coherence
    (Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories), and every step
    below is an identity that the construction decided exactly.
      1. Compatibility.  F solves F * left = right exactly (mat_rsolve,
         one elimination of the transposed system), and the solve returns
         None on an inconsistent system.  So F * left == right at every (a, b,
         c, d): the compatibility checks of verify_tensorator hold.
         validate_fiber's shapes hold by construction (J[(a, b)] is the
         square tau of a decomposition, the unit has dim 1, and the ev and
         coev vectors have length N[a*][a][unit] = N[a][a*][unit] = 1).
      2. J invertible.  Each J is the tau of decompose, which is
         mat_inverse(stack); so NonInvertibleJ cannot fire.
      3. F invertible.  The left trees of (a, b, c) are the components,
         onto the copies of each F(d), of one invertible map: the direct
         sum of the J[(e, c)] after J[(a, b)] (x) I.  Every dims[d] >= 1,
         so the realized trees of one total are linearly independent:
         left has full row rank, and so has right.  right = F * left then
         gives rank F = rows: recoordinatization-invertible holds, and the
         solve of step 1 has one solution.
      4. Pentagon.  Realize the five trees of a (x) b (x) c (x) d ->
         total through J.  Each step of either path applies one F block
         inside a context: precomposed with a J copy tensored with
         identities, or tensored with an identity and composed with a J
         copy.  Step 1 is a linear identity between realized maps, so it
         holds in every such context, and realize(T5) = P2 realize(T1) =
         P3 realize(T1), P2 and P3 being the two-step and the three-step
         products that verify_pentagon compares.  The realized T1 trees
         are independent, by step 3's argument applied to the invertible
         direct sum of the J[(y, d)] after that of the J[(x, c)] (x) I
         after J[(a, b)] (x) I (x) I.  So P2 = P3.
      5. Units.  FusionSkeleton rejects a unit-argument F block that is
         not an identity, and iota = 1.  J[(unit, unit)] = 1, the inverse
         of the pivot-1 canonical basis of a 1-dim Hom.  Step 1 at
         F[(unit, unit, a, a)] = 1 gives J[(unit, a)]^2 = J[(unit, a)],
         and at F[(a, unit, unit, a)] it gives J[(a, unit)]^2 =
         J[(a, unit)].  An invertible idempotent is I = iota I.
      6. Duality.  The coevaluation is J[(a, a*)] vec(P_a^-1), and it lies
         on the unit copy, or this raises.  So the copairing read back
         through J^-1 is P_a^-1, and both zigzags hold.
    """
    unit, N, J, _ = _decompositions(h, modules)
    return _rigidity(modules, unit, N, J, _associator(N, J, modules))


def _decompositions(h: HopfPresentation, modules: list):
    """_skeletalize up to F: (unit, N, J, whether (a) and (b) hold).

    Isotypic bound.  The listed actions are the generators where (a) and
    (b) hold, and every basis element otherwise; A is the free unital
    algebra on them, which acts on any space with one matrix per listed
    action.  After the gate each V_c is absolutely simple over A: the
    listed actions generate act_c(H), since act_c is a unital algebra map
    and they generate H, and act_c(H) = End(V_c), gamma being onto (The
    gate).  The V_c are pairwise non-isomorphic over A: a T: V_a -> V_b
    that commutes with the listed actions is H-linear (Generators, in the
    module docstring), and Hom(V_a, V_b) = 0 for a != b.  So for every
    such space M, a module or not, the evaluation (+)_c Hom_A(V_c, M) (x)
    V_c -> M is injective (Schur's lemma; Etingof et al., Introduction to
    Representation Theory).  Its kernel is a submodule of a semisimple
    module, so if it were not 0 it would hold a simple submodule; that
    lies in one isotypic part Hom_A(V_c, M) (x) V_c, since Hom_A(V_c, V_b)
    = 0 for b != c, and is f (x) V_c for one nonzero f, End_A(V_c) being
    K; but f (x) v evaluates to f(v), which is not 0 for every v.  Hence
    the sum of m_c d_c over all c is at most dim M, m_c = dim Hom(V_c,
    M).  The solves run
    in descending order of d_c, ties in family order, with rem = dim M
    less the m_c d_c solved so far; every unsolved c has m_c d_c <= rem,
    so d_c > rem forces m_c = 0, and the c is skipped with the basis []
    that hom_space would return.  The bases are then those of
    decompose(M, fam), and _isotypic_sum reads the same N and J, or
    raises the same DecompositionGap, off them."""
    r = len(modules)
    unit = None
    triv = trivial_module(h)
    for idx, v in enumerate(modules):
        if v.dim == 1 and v.action == triv.action:
            unit = idx
            break
    if unit is None:
        raise SkeletalizationFailure("the family does not contain the trivial module")

    gens = h.alg._gens
    premises = bool(gens) and _bialgebra_sweep(h._views, gens, True).passed
    if not premises:
        gens = range(h.dim)
    fam = [ModuleRep(v.dim, [v.action[i] for i in gens], v.name) for v in modules]
    order = sorted(range(r), key=lambda c: -modules[c].dim)  # stable: ties in family order
    decs = {}
    for (a, v), (b, w) in product(enumerate(modules), repeat=2):
        vw = ModuleRep(v.dim * w.dim, _tensor_actions(h, v, w, gens), _tensor_name(v, w))
        bases, rem = [[] for _ in fam], vw.dim
        for c in order:
            if fam[c].dim <= rem:
                bases[c] = hom_space(fam[c], vw)
                rem -= len(bases[c]) * fam[c].dim
        decs[a, b] = _isotypic_sum(vw, bases)
    J = {key: dec.tau for key, dec in decs.items()}
    N = tuple(tuple(decs[a, b].mult for b in range(r)) for a in range(r))
    return unit, N, J, premises


def _associator(N, J, modules: list) -> dict:
    """The F of _skeletalize, solved on every row of every tree: F * left =
    right by `matrices.mat_rsolve`, off the trees' lowered rows."""
    dims = tuple(v.dim for v in modules)
    F = {}
    for a, b, c in product(range(len(modules)), repeat=3):
        for d, left, right in tree_maps(N, J, dims, a, b, c):
            if left.rows != right.rows:
                raise SkeletalizationFailure(
                    f"tree spaces at {(a, b, c, d)} have dims {left.rows} and {right.rows}"
                )
            f = mat_rsolve(left, right)
            if f is None:
                raise SkeletalizationFailure(f"recoordinatization at {(a, b, c, d)} is not solvable")
            F[(a, b, c, d)] = f
    return F


def _rigidity(modules: list, unit: int, N, J, F):
    """_skeletalize after F: the duals and coevaluations, on FusionRules
    where F is None."""
    r = len(modules)
    dims = tuple(v.dim for v in modules)
    dual = [next((b for b in range(r) if N[a][b][unit]), None) for a in range(r)]
    if None in dual:
        raise SkeletalizationFailure(f"no dual in the family for module {dual.index(None)}")

    rules = dict(rank=r, fusion=N, dual=tuple(dual), unit=unit, names=tuple(v.name for v in modules))
    skel = FusionRules(**rules) if F is None else FusionSkeleton(**rules, F=F)
    # ev is normalized to coefficient 1; solve coev so the zigzags close.
    # The echelon-normalized J gives J[(unit, a)] = identity, hence iota = 1.
    fiber = FiberData(dims=dims, J=J)

    coev = []
    for a in range(r):
        try:
            q = mat_inverse(pairing_matrix(skel, fiber, a))
        except (ShapeError, ValueError):
            raise NonRigid(f"pairing for simple {a} is singular") from None
        w = J[(a, dual[a])] * Matrix.column(q.entries)
        off = _copy_offset(N[a][dual[a]], dims, unit)
        for i in range(w.rows):
            if i != off and w.at(i, 0):
                raise SkeletalizationFailure(
                    f"copairing for simple {a} is not supported on the unit"
                )
        coev.append((w.at(off, 0),))
    return skel, FiberData(dims=dims, J=J, coev_coeff=tuple(coev))


def gamma_roundtrip(h: HopfPresentation, modules: list, verify: bool = True):
    """Rebuild a Hopf algebra from the module category and its fiber
    functor, and compare with the original along the evaluation map.

    gamma sends a basis element to the block diagonal of its actions.  The
    returned report is that of check_hopf_morphism on gamma: a bijective
    map respecting multiplication, unit, comultiplication, counit and
    antipode.  Only the antipode law is decided, the rest holding by
    construction (see _roundtrip); the matrix of gamma is returned
    alongside.  verify governs only the rebuilt side:
    with it on, the rebuilt presentation is certified a Hopf algebra by
    transport along gamma, or checked against every Hopf axiom where
    transport does not apply (see _roundtrip); a failure raises
    ReconstructionAxiomFailure.  The category data is never swept: it is
    coherent by construction (see _skeletalize).
    """
    return _roundtrip(h, modules, verify)[:2]


def _roundtrip(h: HopfPresentation, modules: list, verify: bool = True):
    """gamma_roundtrip, returning (report, gamma, reconstruction), with no
    sweep of verify_category (the proof in _skeletalize).

    No F.  This solves F only where premise (a) or (b) of _skeletalize
    fails, and so raises what _skeletalize raises (Existence, there).

    Transport.  The rebuilt presentation H' is assembled unchecked, and
    with verify on it is certified by transport of structure when
      (a) the source H passes check_algebra with generators,
          check_bialgebra and check_antipode.  The first two are premises
          (a) and (b) of _skeletalize, which _decompositions decides by one
          generator sweep; that verdict is False while both checks pass
          only on a 1-dim algebra, whose generators are none, and there the
          rebuilt side runs the axiom suite instead, to the same verdict;
      (b) gamma is multiplicative, unital, comultiplicative, counital and
          has S' gamma = gamma S, the five laws of check_hopf_morphism.
          The first four hold by construction once the gate has passed.
          gamma = act_1 + ... + act_r sends e_i to its actions, block by
          block, into the block algebra H' of endf_algebra:
            unit: gamma(1) = act_1(1) + ... + act_r(1) = I + ... + I, the
                unit of H', by the gate's module-unit check;
            multiplicative: H' multiplies block by block, so gamma(e_i
                e_j) = gamma(e_i) gamma(e_j) is act_a(e_i e_j) = act_a(e_i)
                act_a(e_j) for every a, the gate's module-structure check,
                which the generators decide (see Generators);
            counit: eps' reads the 1x1 block of the unit simple, which
                _decompositions picks as the module whose action equals
                the counit entrywise, so eps'(gamma(e_i)) = eps(e_i);
            comultiplicative: H' (x) H' is the sum of the End(V_a (x)
                V_b).  The (a, b) block of Delta'(gamma(e_i)) is J^-1
                (+ act_c(e_i)) J, over the copies c in J = J[(a, b)], and
                that of (gamma (x) gamma) Delta(e_i) is (act_a (x) act_b)
                Delta(e_i), the action of e_i on V_a (x) V_b.  They agree
                once J intertwines all n actions.  Under premises (a) and
                (b) of _skeletalize, V_a (x) V_b and each V_c are modules
                and J intertwines the generators' actions, hence all of
                them (Generators); otherwise hom_space has constrained
                all n actions.  So the law holds on every path that
                reaches gamma.
          The antipode law is the one left open.  It is decided as the
          exact identity S' gamma == gamma S, by `matrices._is_product`
          against the one product gamma S, and only on a miss does the
          full check_hopf_morphism run, to list every failing tuple;
      (c) gamma is bijective: the gate passes only when the squared dims
          sum to n and rank(gamma) = n (The gate), so the report flags it
          with no second rank.
    Then every axiom of H' is the gamma-image of the same axiom of H: each
    element of H' is gamma(x) for some x, and by (b), for instance,
    (gamma(x) gamma(y)) gamma(z) = gamma((xy)z) = gamma(x(yz)) =
    gamma(x) (gamma(y) gamma(z)), Delta'(gamma(x) gamma(y)) = (gamma (x)
    gamma)(Delta(x) Delta(y)) = Delta'(gamma(x)) Delta'(gamma(y)), and
    m'(S' (x) id) Delta' gamma(x) = gamma m(S (x) id) Delta(x) =
    eps(x) gamma(1) = eps'(gamma(x)) 1'; the unit, counit and
    coassociativity laws go the same way.  The argument is linear algebra
    over any field, so it holds at every conductor, and every identity in
    it is one that (a), (b) and the gate decided exactly.  Where the
    certificate fails, the rebuilt side runs the full axiom suite and
    raises ReconstructionAxiomFailure on a failure, with the reports of
    reconstruct_hopf.
    """
    if not modules:
        raise RoundTripFailure("no modules given")
    _require_family(h, modules)
    unit, N, J, premises = _decompositions(h, modules)
    rules, fiber = _rigidity(modules, unit, N, J, None if premises else _associator(N, J, modules))
    from .reconstruct import _assemble, _require_hopf

    recon = _assemble(rules, fiber)
    gamma = _gamma(modules, h.dim)

    if _is_product(recon.hopf.antipode, gamma, gamma * h.antipode):
        rep = CheckReport("hopf-morphism", flags={"bijective": True})
    else:
        rep = check_hopf_morphism(h, recon.hopf, gamma)
    if verify and not (rep.passed and rep.flags["bijective"] and premises and check_antipode(h).passed):
        _require_hopf(recon.hopf)
    return rep, gamma, recon
