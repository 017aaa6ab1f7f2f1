"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the API: `Tracer.install`
replaces the public functions of the hopfrec modules, in every module
namespace that binds them, and methods of its classes, with wrappers that
open a span around each call.  Scalar arithmetic is only counted, because
a span per field operation would cost more than the operation.

A span is [name, start, end, parent], parent being the index of the
enclosing span or -1.  A call made while a span of the same name is the
innermost open span joins it instead of nesting (mat_inverse calls rank,
an example builder calls a generator), so `calls` counts outermost entries.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer name -> public functions, by module, that open a span of that name
FUNCTION_SPANS = {
    "matrices.elim": [("matrices", "mat_kernel"), ("matrices", "mat_solve"), ("matrices", "mat_inverse")],
    "hopf.check_algebra": [("hopf", "check_algebra")],
    "hopf.check_bialgebra": [("hopf", "check_bialgebra")],
    "hopf.check_antipode": [("hopf", "check_antipode")],
    "hopf.check_hopf_morphism": [("hopf", "check_hopf_morphism")],
    "repcat.verify_irreps": [("repcat", "verify_irreps")],
    "repcat.skeletalize": [("repcat", "skeletalize")],
    "repcat.hom_space": [("repcat", "hom_space")],
    "repcat.decompose": [("repcat", "decompose")],
    "repcat.tensor_module": [("repcat", "tensor_module")],
    "repcat.dual_module": [("repcat", "dual_module")],
    "repcat.gamma_roundtrip": [("repcat", "gamma_roundtrip")],
    "fusion.verify_category": [("fusion", "verify_category")],
    "fusion.verify_pentagon": [("fusion", "verify_pentagon")],
    "fusion.verify_tensorator": [("fusion", "verify_tensorator")],
    "fusion.verify_duality": [("fusion", "verify_duality")],
    "fusion.compute_delta": [("fusion", "compute_delta")],
    "reconstruct.reconstruct_hopf": [("reconstruct", "reconstruct_hopf")],
    "reconstruct.zeta_modules": [("reconstruct", "zeta_modules")],
    "serialize.load": [("serialize", "load")],
    "serialize.save": [("serialize", "save")],
    "cli.main": [("cli", "main")],
    "examples.build": [
        ("examples", name)
        for name in (
            "gen_group_algebra",
            "gen_function_algebra",
            "gen_drinfeld_double",
            "gen_pointed_category",
            "gen_pointed_fiber",
            "modules_elementary_abelian",
            "modules_s3",
            "modules_s4",
            "modules_function_algebra",
            "modules_double_z2",
        )
    ],
}

# layer name -> methods, by (module, class), that open a span of that name
METHOD_SPANS = {
    "matrices.mul": [("matrices", "Matrix", "__mul__"), ("matrices", "Matrix", "__rmul__")],
    "matrices.kron": [("matrices", "Matrix", "kron")],
    "matrices.elim": [("matrices", "Matrix", m) for m in ("rref", "rank", "det")],
    "hopf.presentation": [
        ("hopf", "AlgebraPresentation", "__post_init__"),
        ("hopf", "HopfPresentation", "__post_init__"),
    ],
    "reports.add": [("reports", "CheckReport", "add")],
}

# every per-layer metric the traced run reports, in output order
PER_LAYER = (
    ("scalars.init.calls", "count"),
    ("scalars.mul.calls", "count"),
    ("scalars.add.calls", "count"),
    ("scalars.inverse.calls", "count"),
    ("scalars.mul.cyclotomic_frac", "ratio"),
    ("matrices.mul.calls", "count"),
    ("matrices.mul.self_s", "s"),
    ("matrices.kron.calls", "count"),
    ("matrices.kron.self_s", "s"),
    ("matrices.elim.calls", "count"),
    ("matrices.elim.self_s", "s"),
    ("matrices.elim.cells", "count"),
    ("hopf.presentation.self_s", "s"),
    ("hopf.check_algebra.self_s", "s"),
    ("hopf.check_bialgebra.self_s", "s"),
    ("hopf.check_antipode.self_s", "s"),
    ("hopf.check_hopf_morphism.self_s", "s"),
    ("repcat.verify_irreps.self_s", "s"),
    ("repcat.skeletalize.calls", "count"),
    ("repcat.skeletalize.self_s", "s"),
    ("repcat.hom_space.calls", "count"),
    ("repcat.hom_space.self_s", "s"),
    ("repcat.decompose.self_s", "s"),
    ("repcat.tensor_module.self_s", "s"),
    ("repcat.dual_module.self_s", "s"),
    ("repcat.gamma_roundtrip.self_s", "s"),
    ("fusion.verify_category.calls", "count"),
    ("fusion.verify_pentagon.self_s", "s"),
    ("fusion.verify_tensorator.self_s", "s"),
    ("fusion.verify_duality.self_s", "s"),
    ("fusion.compute_delta.self_s", "s"),
    ("reconstruct.reconstruct_hopf.calls", "count"),
    ("reconstruct.reconstruct_hopf.self_s", "s"),
    ("reconstruct.zeta_modules.self_s", "s"),
    ("serialize.load.self_s", "s"),
    ("serialize.save.self_s", "s"),
    ("serialize.bytes_in", "B"),
    ("serialize.bytes_out", "B"),
    ("cli.main.self_s", "s"),
    ("reports.failures", "count"),
    ("reports.add.self_s", "s"),
    ("examples.build.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
)

# spans whose nesting makes up the stage split printed after a traced run
STAGES = {
    "bench.setup",
    "bench.job",
    "cli.main",
    "repcat.gamma_roundtrip",
    "repcat.skeletalize",
    "repcat.verify_irreps",
    "reconstruct.reconstruct_hopf",
    "fusion.verify_category",
    "fusion.verify_pentagon",
    "hopf.check_algebra",
    "hopf.check_bialgebra",
    "hopf.check_antipode",
    "hopf.check_hopf_morphism",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the imported hopfrec package.  Call after every
        module of the package that the run uses has been imported."""
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name.startswith("hopfrec.")
        }
        namespaces = [sys.modules["hopfrec"], *mods.values()]

        for name, targets in FUNCTION_SPANS.items():
            for modname, attr in targets:
                fn = getattr(mods[modname], attr)
                wrapper = self._spanned(name, fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapper)
        # the registry's builders are lambdas reached only through the dict,
        # which the package, examples and cli modules share
        examples = mods["examples"].EXAMPLES
        for key, (kind, builder) in list(examples.items()):
            examples[key] = (kind, self._spanned("examples.build", builder))

        for name, targets in METHOD_SPANS.items():
            for modname, cls, attr in targets:
                klass = getattr(mods[modname], cls)
                setattr(klass, attr, self._spanned(name, klass.__dict__[attr]))

        self._count_scalars(mods["scalars"].Scalar)
        self._count_matrix_cells(mods["matrices"].Matrix)
        self._count_bytes(mods["serialize"])

    def _count_scalars(self, scalar) -> None:
        counts = self.counts
        init, add, mul, inverse = (
            scalar.__init__,
            scalar.__add__,
            scalar.__mul__,
            scalar.inverse,
        )

        def __init__(self, conductor, coeffs):
            counts["scalars.init.calls"] += 1
            init(self, conductor, coeffs)

        def __add__(self, other):
            counts["scalars.add.calls"] += 1
            return add(self, other)

        def __mul__(self, other):
            counts["scalars.mul.calls"] += 1
            out = mul(self, other)
            if out is not NotImplemented and out.conductor != 1:
                counts["scalars.mul.cyclotomic"] += 1
            return out

        def inverse_(self):
            counts["scalars.inverse.calls"] += 1
            return inverse(self)

        scalar.__init__ = __init__
        scalar.__add__ = scalar.__radd__ = __add__
        scalar.__mul__ = scalar.__rmul__ = __mul__
        scalar.inverse = inverse_

    def _count_matrix_cells(self, matrix) -> None:
        """Entries entering elimination: every echelon pass and every
        determinant sweep adds rows x cols of the matrix it reduces."""
        counts = self.counts
        for attr in ("_echelon", "det"):
            fn = matrix.__dict__[attr]

            def counted(self, *args, _fn=fn):
                counts["matrices.elim.cells"] += self.rows * self.cols
                return _fn(self, *args)

            setattr(matrix, attr, counted)

    def _count_bytes(self, serialize) -> None:
        counts = self.counts
        loads, dumps = serialize.loads, serialize.dumps

        def loads_(text):
            counts["serialize.bytes_in"] += len(text.encode("utf-8"))
            return loads(text)

        def dumps_(obj, **extras):
            out = dumps(obj, **extras)
            counts["serialize.bytes_out"] += len(out.encode("utf-8"))
            return out

        serialize.loads = loads_
        serialize.dumps = dumps_

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Every PER_LAYER metric over all recorded spans; bench.self_s is
        the harness's own time and that of unwrapped code it calls."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        values = dict(self.counts)
        values.pop("scalars.mul.cyclotomic", None)
        muls = self.counts["scalars.mul.calls"]
        values["scalars.mul.cyclotomic_frac"] = (
            self.counts["scalars.mul.cyclotomic"] / muls if muls else 0.0
        )
        values["reports.failures"] = calls["reports.add"]
        values["bench.self_s"] = sum(self_s[n] for n in ("bench.setup", "bench.pass", "bench.job"))
        values["trace.wall_s"] = traced_wall_s
        out = {}
        for metric, unit in PER_LAYER:
            if metric not in values:
                layer, _, kind = metric.rpartition(".")
                values[metric] = calls[layer] if kind == "calls" else self_s[layer]
            out[metric] = {"value": values[metric], "unit": unit}
        return out

    def stage_split(self) -> list[tuple[str, int, float]]:
        """Inclusive time per chain of STAGES spans, in first-seen order:
        (path, calls, seconds)."""
        paths: dict[int, str] = {}
        agg: dict[str, list] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            base = paths.get(parent, "") if parent >= 0 else ""
            if name not in STAGES:
                paths[idx] = base
                continue
            path = f"{base} > {name}" if base else name
            paths[idx] = path
            row = agg.setdefault(path, [0, 0.0])
            row[0] += 1
            row[1] += end - start
        return [(path, n, secs) for path, (n, secs) in agg.items()]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
