"""The names that the traced benchmark wraps exist in the package.

`perfbench/spans.py` wraps hopfrec functions and methods by name from
outside the package, so a rename in `src/` would otherwise fail only the
traced benchmark run.  The module is loaded from its path; no tracer is
installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_names", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def package_module(name: str):
    return importlib.import_module(f"hopfrec.{name}")


def test_every_wrapped_name_exists_in_the_package():
    spans = load_spans()
    functions = [target for targets in spans.FUNCTION_SPANS.values() for target in targets]
    methods = [target for targets in spans.METHOD_SPANS.values() for target in targets]
    assert functions and methods
    for modname, attr in functions:
        assert callable(getattr(package_module(modname), attr, None)), f"{modname}.{attr}"
    # the tracer wraps a method found in its class's own namespace
    counted = [("matrices", "Matrix", "_echelon"), ("matrices", "Matrix", "det")]
    counted += [("scalars", "Scalar", m) for m in ("__init__", "__add__", "__mul__", "inverse")]
    for modname, cls, attr in methods + counted:
        klass = getattr(package_module(modname), cls)
        assert callable(klass.__dict__.get(attr)), f"{modname}.{cls}.{attr}"
    for attr in ("loads", "dumps"):
        assert callable(getattr(package_module("serialize"), attr, None)), f"serialize.{attr}"
    assert isinstance(package_module("examples").EXAMPLES, dict)


def test_round_trip_calls_the_wrapped_hom_and_decompose(monkeypatch):
    """The tracer replaces module attributes, so the repcat.decompose and
    repcat.hom_space spans see exactly the calls made through them.  A
    K[S3] round trip decomposes its r^2 = 9 tensor modules in
    _decompositions, not through decompose, in 13 hom_space calls: the
    isotypic bound skips 14 of the r^3 = 27 that one per irreducible would
    make, and the gate decides by the rank of gamma and makes none.  A
    call of decompose on the r irreducibles makes one decompose and r
    hom_space calls."""
    from hopfrec.examples import EXAMPLES
    from hopfrec.repcat import gamma_roundtrip

    spans = load_spans()
    counts = {}
    for layer in ("repcat.decompose", "repcat.hom_space"):
        for modname, attr in spans.FUNCTION_SPANS[layer]:
            mod = package_module(modname)

            def counted(*args, real=getattr(mod, attr), layer=layer):
                counts[layer] = counts.get(layer, 0) + 1
                return real(*args)

            monkeypatch.setattr(mod, attr, counted)
    h, mods = EXAMPLES["ks3"][1](), EXAMPLES["ks3-modules"][1]()
    rep, _ = gamma_roundtrip(h, mods)
    assert rep.passed
    assert counts == {"repcat.hom_space": 13}  # and no repcat.decompose
    repcat = package_module("repcat")
    repcat.decompose(repcat.tensor_module(h, mods[2], mods[2]), mods)
    assert counts == {"repcat.decompose": 1, "repcat.hom_space": 16}


def test_cyclic_round_trip_inverts_nothing_above_conductor_1(monkeypatch):
    """The traced `scalars.inverse.calls` counts `Scalar.inverse`.  A K[Z/8]
    round trip on its characters ranks gamma and solves its Hom spaces off
    conductor 1; the split-prime certificate answers the rank, and
    hom_space compares the entries of two 1-dim modules, neither inverting
    a field element there."""
    from hopfrec.examples import gen_group_algebra
    from hopfrec.groups import cyclic_group
    from hopfrec.repcat import gamma_roundtrip
    from hopfrec.scalars import Scalar
    from test_skeletal_coherence import cyclic_characters

    inverted = []

    def counted(self, real=Scalar.inverse):
        if self.conductor > 1:
            inverted.append(self)
        return real(self)

    monkeypatch.setattr(Scalar, "inverse", counted)
    rep, _ = gamma_roundtrip(gen_group_algebra(cyclic_group(8)), cyclic_characters(8), verify=True)
    assert rep.passed
    assert inverted == []
