"""Canonical JSON forms for every object the tool exchanges.

Five payload kinds, tagged by a top level "kind": hopf, fusion, fiber,
modules, group.  Scalars are strings "p/q" (reduced, positive
denominator, always written with one) or, beyond the rationals, objects
{"conductor": n, "coeffs": [...]} whose coefficient list has the degree
of the n-th cyclotomic polynomial.  Dumps are compact with sorted keys,
so equal data serializes to identical bytes.

Lexically malformed input, a file that is not UTF-8 or JSON nested too
deep included, raises ParseError (with line and column for JSON syntax
errors); structurally invalid input, including any unknown field, raises
SchemaError.  Integer fields take exact ints only (`type(x) is int`):
JSON true and false load as bools, an int subclass, and are rejected
rather than read as 1 and 0.  A rational is ASCII only, matched in full
by -?[0-9]+(/[0-9]+)?: no Unicode digits, no newline.

Each call parses a distinct string once: `loads` keeps a memo from string
to Scalar, so equal cells share one immutable Scalar, and `dumps` keeps
one from id(Scalar) to its formatted value.  Both are locals of the call.

The checkers lower a payload's Scalars at the lcm L of their conductors
(`scalars.packing`), at a cost that grows with phi(L), so a payload whose
L has phi(L) above MAX_PHI is a SchemaError.  The loader's memo folds
each conductor into L as it is read.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import ParseError, SchemaError
from .fusion import FiberData, FusionSkeleton
from .groups import GroupTable
from .hopf import AlgebraPresentation, HopfPresentation, StructureTensor
from .matrices import Matrix
from .repcat import ModuleRep
from .scalars import ZERO, Scalar, _make, _rat, phi_degree

_RAT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

# check-category on vec-z4 with two coprime conductors in its F blocks, one
# 2-core machine: 0.2 s of checking at phi(L) = 9,600, 0.7 s at 16,380, 5 s
# at 46,620
MAX_PHI = 10_000


class _Memo(dict):
    """The parsed Scalars of one load by string, and the lcm of the
    conductors read so far."""

    lcm = 1

    def take(self, n: int) -> None:
        """Fold conductor n into the lcm, whose phi may not exceed MAX_PHI."""
        L = lcm(self.lcm, n)
        # phi(L) >= sqrt(L / 2), so a larger L cannot pass and is never factored
        if L != self.lcm and (L > 2 * MAX_PHI**2 or phi_degree(L) > MAX_PHI):
            raise SchemaError(f"conductors have lcm {L}, whose phi exceeds {MAX_PHI}")
        self.lcm = L


def format_scalar(s: Scalar):
    if s.conductor == 1:
        f = s.coeffs[0]
        return f"{f.numerator}/{f.denominator}"
    return {
        "conductor": s.conductor,
        "coeffs": [f"{c.numerator}/{c.denominator}" for c in s.coeffs],
    }


def _format(s: Scalar, memo: dict):
    """format_scalar once per Scalar: the dumped object keeps each alive, so ids stay unique."""
    if (out := memo.get(id(s))) is None:
        out = memo[id(s)] = format_scalar(s)
    return out


def _parse_text(text, memo: dict) -> Scalar:
    """The conductor 1 Scalar of a JSON string, parsed once per memo, which stores successes only."""
    if not isinstance(text, str):
        raise SchemaError(f"scalar must be a string or conductor object, got {type(text).__name__}")
    if (s := memo.get(text)) is not None:
        return s
    if not _RAT.fullmatch(text):
        raise ParseError(f"malformed rational {text!r}")
    try:
        p, q = (int(x) for x in text.split("/")) if "/" in text else (int(text), 1)
    except ValueError:  # beyond the interpreter's limit on integer digits
        raise ParseError(f"rational of {len(text)} characters is too long") from None
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return memo.setdefault(text, _rat(Fraction(p, q)))


def parse_scalar(obj) -> Scalar:
    return _scalar(obj, _Memo())


def _scalar(obj, memo: _Memo) -> Scalar:
    if isinstance(obj, dict):
        _expect_fields(obj, {"conductor", "coeffs"}, "scalar")
        n = obj["conductor"]
        if type(n) is not int or n < 1:
            raise SchemaError("conductor must be a positive integer")
        coeffs = obj["coeffs"]
        # phi(n) >= sqrt(n / 2), so a larger n cannot fit and is never factored
        if not isinstance(coeffs, list) or n > 2 * len(coeffs) ** 2:
            raise SchemaError(f"coeffs must be a list of length phi({n}) for conductor {n}")
        if len(coeffs) != phi_degree(n):
            raise SchemaError(f"coeffs must be a list of length {phi_degree(n)} for conductor {n}")
        memo.take(n)
        return _make(n, tuple(_parse_text(c, memo).coeffs[0] for c in coeffs))
    return _parse_text(obj, memo)


def format_matrix(m: Matrix):
    return _matrix_payload(m, {})


def _matrix_payload(m: Matrix, memo: dict):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[_format(x, memo) for x in m.row(i)] for i in range(m.rows)],
    }


def parse_matrix(obj) -> Matrix:
    return _matrix(obj, _Memo())


def _matrix(obj, memo: dict) -> Matrix:
    if not isinstance(obj, dict):
        raise SchemaError("matrix must be an object")
    _expect_fields(obj, {"rows", "cols", "entries"}, "matrix")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise SchemaError("matrix rows and cols must be nonnegative integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise SchemaError(f"matrix needs {rows} entry rows")
    data = []
    for r in entries:
        if not isinstance(r, list) or len(r) != cols:
            raise SchemaError(f"matrix rows must have {cols} entries")
        data.append([_scalar(x, memo) for x in r])
    return Matrix(rows, cols, [x for r in data for x in r]) if rows * cols else Matrix.zeros(rows, cols)


def _expect_fields(d: dict, fields: set, where: str):
    unknown = set(d) - fields
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)} in {where}")
    missing = fields - set(d)
    if missing:
        raise SchemaError(f"missing fields {sorted(missing)} in {where}")


def _tensor3_payload(t: StructureTensor, memo: dict):
    """The dense nested list of t, format_scalar(ZERO) in every absent cell."""
    zero = format_scalar(ZERO)
    out = []
    for plane in t.planes:
        rows = [[zero] * t.n for _ in range(t.n)]
        for j, k, x in plane:
            rows[j][k] = _format(x, memo)
        out.append(rows)
    return out


def _parse_tensor3(obj, n: int, where: str, memo: dict) -> StructureTensor:
    """The nonzero cells of a dense nested list.  Every cell is validated
    in order, but a string that has parsed to zero once is not parsed
    again; a zero conductor object is parsed, its conductor folded into
    the lcm, and dropped."""
    if (
        not isinstance(obj, list)
        or len(obj) != n
        or any(not isinstance(p, list) or len(p) != n for p in obj)
        or any(not isinstance(r, list) or len(r) != n for p in obj for r in p)
    ):
        raise SchemaError(f"{where} must be a {n}x{n}x{n} nested list")
    zeros = set()
    planes = []
    for plane in obj:
        nz = []
        for j, row in enumerate(plane):
            for k, x in enumerate(row):
                if type(x) is str and x in zeros:
                    continue
                if s := _scalar(x, memo):
                    nz.append((j, k, s))
                elif type(x) is str:
                    zeros.add(x)
        planes.append(nz)
    return StructureTensor(n, planes)


def _parse_scalar_list(obj, n: int, where: str, memo: dict):
    if not isinstance(obj, list) or len(obj) != n:
        raise SchemaError(f"{where} must be a list of length {n}")
    return [_scalar(x, memo) for x in obj]


class Loaded(NamedTuple):
    kind: str
    obj: object
    extras: dict


# -- per kind ---------------------------------------------------------------

def _hopf_payload(h: HopfPresentation, extras: dict, memo: dict):
    out = {
        "kind": "hopf",
        "dim": h.dim,
        "mult": _tensor3_payload(h.alg.mult, memo),
        "unit": [_format(x, memo) for x in h.alg.unit],
        "comult": _tensor3_payload(h.comult, memo),
        "counit": [_format(x, memo) for x in h.counit],
        "antipode": _matrix_payload(h.antipode, memo),
    }
    if "basis" in extras:
        out["basis"] = [list(b) for b in extras["basis"]]
    return out


def _hopf_parse(d: dict, memo: dict) -> Loaded:
    fields = {"kind", "dim", "mult", "unit", "comult", "counit", "antipode"}
    if "basis" in d:
        fields.add("basis")
    _expect_fields(d, fields, "hopf")
    n = d["dim"]
    if type(n) is not int or n < 1:
        raise SchemaError("hopf dim must be a positive integer")
    h = HopfPresentation(
        AlgebraPresentation(
            n,
            _parse_tensor3(d["mult"], n, "mult", memo),
            _parse_scalar_list(d["unit"], n, "unit", memo),
        ),
        _parse_tensor3(d["comult"], n, "comult", memo),
        _parse_scalar_list(d["counit"], n, "counit", memo),
        _matrix(d["antipode"], memo),
    )
    extras = {}
    if "basis" in d:
        basis = d["basis"]
        if not isinstance(basis, list) or any(
            not isinstance(b, list) or len(b) != 3 or any(type(x) is not int for x in b)
            for b in basis
        ):
            raise SchemaError("basis must be a list of integer triples")
        if len(basis) != n:
            raise SchemaError(f"basis must list {n} triples, one per basis element")
        extras["basis"] = tuple(tuple(b) for b in basis)
    return Loaded("hopf", h, extras)


def _fusion_payload(s: FusionSkeleton, extras: dict, memo: dict):
    return {
        "kind": "fusion",
        "rank": s.rank,
        "unit": s.unit,
        "names": list(s.names),
        "fusion": [[[x for x in row] for row in plane] for plane in s.fusion],
        "dual": list(s.dual),
        "F": [
            {"key": list(key), "matrix": _matrix_payload(s.F[key], memo)}
            for key in sorted(s.F)
        ],
    }


def _keyed_matrices(recs, name: str, arity: int, keys: str, memo: dict) -> dict:
    """The {"key": [...], "matrix": ...} records of F or J, keyed by tuple."""
    if not isinstance(recs, list):
        raise SchemaError(f"{name} must be a list of key/matrix records")
    out = {}
    for rec in recs:
        if not isinstance(rec, dict):
            raise SchemaError(f"{name} records must be objects")
        _expect_fields(rec, {"key", "matrix"}, f"{name} record")
        key = rec["key"]
        if not isinstance(key, list) or len(key) != arity or any(type(x) is not int for x in key):
            raise SchemaError(f"{name} keys must be integer {keys}")
        if tuple(key) in out:
            raise SchemaError(f"duplicate {name} key {key}")
        out[tuple(key)] = _matrix(rec["matrix"], memo)
    return out


def _fusion_parse(d: dict, memo: dict) -> Loaded:
    _expect_fields(d, {"kind", "rank", "unit", "names", "fusion", "dual", "F"}, "fusion")
    r = d["rank"]
    if type(r) is not int or r < 1:
        raise SchemaError("fusion rank must be a positive integer")
    fus = d["fusion"]
    if (
        not isinstance(fus, list)
        or len(fus) != r
        or any(not isinstance(p, list) or len(p) != r for p in fus)
        or any(not isinstance(row, list) or len(row) != r for p in fus for row in p)
        or any(type(x) is not int for p in fus for row in p for x in row)
    ):
        raise SchemaError(f"fusion must be a {r}x{r}x{r} nested list of integers")
    if not isinstance(d["dual"], list) or any(type(x) is not int for x in d["dual"]):
        raise SchemaError("dual must be a list of integers")
    if not isinstance(d["names"], list) or any(not isinstance(x, str) for x in d["names"]):
        raise SchemaError("names must be a list of strings")
    if type(d["unit"]) is not int:
        raise SchemaError("unit must be an integer")
    skel = FusionSkeleton(
        rank=r,
        fusion=fus,
        dual=tuple(d["dual"]),
        F=_keyed_matrices(d["F"], "F", 4, "quadruples", memo),
        unit=d["unit"],
        names=tuple(d["names"]),
    )
    return Loaded("fusion", skel, {})


def _coeff_vectors_payload(vecs, memo: dict):
    return [[_format(x, memo) for x in v] for v in vecs]


def _parse_coeff_vectors(obj, where: str, memo: dict):
    if not isinstance(obj, list) or any(not isinstance(v, list) for v in obj):
        raise SchemaError(f"{where} must be a list of scalar lists")
    return tuple(tuple(_scalar(x, memo) for x in v) for v in obj)


def _fiber_payload(f: FiberData, extras: dict, memo: dict):
    return {
        "kind": "fiber",
        "dims": list(f.dims),
        "iota": _format(f.iota, memo),
        "ev": _coeff_vectors_payload(f.ev_coeff, memo),
        "coev": _coeff_vectors_payload(f.coev_coeff, memo),
        "J": [{"key": list(key), "matrix": _matrix_payload(f.J[key], memo)} for key in sorted(f.J)],
    }


def _fiber_parse(d: dict, memo: dict) -> Loaded:
    _expect_fields(d, {"kind", "dims", "iota", "ev", "coev", "J"}, "fiber")
    dims = d["dims"]
    if not isinstance(dims, list) or any(type(x) is not int for x in dims):
        raise SchemaError("dims must be a list of integers")
    fiber = FiberData(
        dims=tuple(dims),
        J=_keyed_matrices(d["J"], "J", 2, "pairs", memo),
        iota=_scalar(d["iota"], memo),
        ev_coeff=_parse_coeff_vectors(d["ev"], "ev", memo),
        coev_coeff=_parse_coeff_vectors(d["coev"], "coev", memo),
    )
    return Loaded("fiber", fiber, {})


def _modules_payload(mods: list, extras: dict, memo: dict):
    return {
        "kind": "modules",
        "algebra_dim": len(mods[0].action) if mods else 0,
        "modules": [
            {
                "name": v.name,
                "dim": v.dim,
                "action": [_matrix_payload(m, memo) for m in v.action],
            }
            for v in mods
        ],
    }


def _modules_parse(d: dict, memo: dict) -> Loaded:
    _expect_fields(d, {"kind", "algebra_dim", "modules"}, "modules")
    n = d["algebra_dim"]
    if type(n) is not int or n < 1:
        raise SchemaError("algebra_dim must be a positive integer")
    if not isinstance(d["modules"], list):
        raise SchemaError("modules must be a list")
    out = []
    for rec in d["modules"]:
        if not isinstance(rec, dict):
            raise SchemaError("module records must be objects")
        _expect_fields(rec, {"name", "dim", "action"}, "module record")
        if not isinstance(rec["name"], str) or type(rec["dim"]) is not int:
            raise SchemaError("module name must be a string and dim an integer")
        if not isinstance(rec["action"], list) or len(rec["action"]) != n:
            raise SchemaError(f"module action must list {n} matrices")
        out.append(
            ModuleRep(rec["dim"], tuple(_matrix(m, memo) for m in rec["action"]), rec["name"])
        )
    return Loaded("modules", out, {})


def _group_payload(g: GroupTable, extras: dict, memo: dict):
    out = {
        "kind": "group",
        "order": g.order,
        "name": g.name,
        "table": [list(row) for row in g.table],
    }
    if g.elements:
        out["elements"] = [list(e) for e in g.elements]
    return out


def _group_parse(d: dict, memo: dict) -> Loaded:
    fields = {"kind", "order", "name", "table"}
    if "elements" in d:
        fields.add("elements")
    _expect_fields(d, fields, "group")
    n = d["order"]
    if type(n) is not int or n < 1:
        raise SchemaError("group order must be a positive integer")
    t = d["table"]
    if (
        not isinstance(t, list)
        or len(t) != n
        or any(not isinstance(r, list) or len(r) != n for r in t)
        or any(type(x) is not int for r in t for x in r)
    ):
        raise SchemaError(f"table must be a {n}x{n} list of integers")
    if not isinstance(d["name"], str):
        raise SchemaError("group name must be a string")
    elements = ()
    if "elements" in d:
        e = d["elements"]
        if not isinstance(e, list) or any(
            not isinstance(p, list) or any(type(x) is not int for x in p) for p in e
        ):
            raise SchemaError("elements must be lists of integers")
        elements = tuple(tuple(p) for p in e)
    g = GroupTable(n, tuple(tuple(r) for r in t), name=d["name"], elements=elements)
    return Loaded("group", g, {})


_PARSERS = {
    "hopf": _hopf_parse,
    "fusion": _fusion_parse,
    "fiber": _fiber_parse,
    "modules": _modules_parse,
    "group": _group_parse,
}


def to_payload(obj, **extras) -> dict:
    if isinstance(obj, HopfPresentation):
        return _hopf_payload(obj, extras, {})
    if isinstance(obj, FusionSkeleton):
        return _fusion_payload(obj, extras, {})
    if isinstance(obj, FiberData):
        return _fiber_payload(obj, extras, {})
    if isinstance(obj, GroupTable):
        return _group_payload(obj, extras, {})
    if isinstance(obj, list) and obj and all(isinstance(v, ModuleRep) for v in obj):
        return _modules_payload(obj, extras, {})
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, **extras) -> str:
    return json.dumps(to_payload(obj, **extras), sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> Loaded:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    except ValueError:  # an integer literal beyond the interpreter's digit limit
        raise ParseError("integer literal is too long") from None
    except RecursionError:
        raise ParseError("nesting is too deep") from None
    if not isinstance(d, dict):
        raise SchemaError("top level must be an object")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise SchemaError(f"unknown kind {kind!r}")
    return _PARSERS[kind](d, _Memo())


def save(path, obj, **extras) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, **extras))


def load(path) -> Loaded:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: {e.reason} at byte {e.start}") from None
    return loads(text)
