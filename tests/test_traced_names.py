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
    K[S3] round trip (r = 3 irreducibles) makes r^2 decompositions, one per
    tensor module, and r^3 hom_space calls, r per decomposition; the gate
    decides by the rank of gamma and makes none."""
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
    rep, _ = gamma_roundtrip(EXAMPLES["ks3"][1](), EXAMPLES["ks3-modules"][1]())
    assert rep.passed
    assert counts == {"repcat.decompose": 9, "repcat.hom_space": 27}
