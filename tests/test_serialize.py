"""The load path of `serialize`: byte-exact round trips of every golden file,
a cell-by-cell reference parse, the order in which malformed cells are
reported, the checks that skipping parsed zeros keeps, the per-call memo
of parsed strings, the ASCII rule for rationals, and a fuzz of `loads`
over single-value replacements.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrec.errors import ParseError, SchemaError, ShapeError
from hopfrec.examples import gen_pointed_category
from hopfrec.groups import cyclic_group
from hopfrec.scalars import Scalar, phi_degree
from hopfrec.serialize import MAX_PHI, dumps, loads, parse_scalar

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*.json"))


def _z4_omega_text():
    """Vec_Z/4^omega with omega(a, b, c) = i^(a floor((b + c) / 4)): F blocks
    of conductor 4, so the payload holds conductor objects."""
    i = Scalar.zeta(4)
    text = dumps(gen_pointed_category(cyclic_group(4), lambda a, b, c: i ** (a * ((b + c) // 4))))
    assert '"conductor":4' in text
    return text


PAYLOADS = [(p.stem, p.read_text()) for p in GOLDEN_FILES] + [("vec-z4-omega", _z4_omega_text())]


@pytest.mark.parametrize("name,text", PAYLOADS, ids=[name for name, _ in PAYLOADS])
def test_every_payload_loads_and_dumps_to_the_same_bytes(name, text):
    loaded = loads(text)
    assert dumps(loaded.obj, **loaded.extras) == text


def _scalar_pairs(kind, d, obj):
    """(JSON cell, loaded Scalar) for every scalar of a payload, as nested
    lists walked side by side."""
    if kind == "hopf":
        a = obj.alg
        yield from _zip(
            [d["mult"], d["unit"], d["comult"], d["counit"], d["antipode"]["entries"]],
            [a.mult, a.unit, obj.comult, obj.counit, obj.antipode.to_rows()],
        )
    elif kind == "fusion":
        for rec in d["F"]:
            yield from _zip(rec["matrix"]["entries"], obj.F[tuple(rec["key"])].to_rows())
    elif kind == "fiber":
        for rec in d["J"]:
            yield from _zip(rec["matrix"]["entries"], obj.J[tuple(rec["key"])].to_rows())
        yield from _zip([[d["iota"]], d["ev"], d["coev"]], [[obj.iota], obj.ev_coeff, obj.coev_coeff])
    elif kind == "modules":
        for rec, mod in zip(d["modules"], obj, strict=True):
            for m, action in zip(rec["action"], mod.action, strict=True):
                yield from _zip(m["entries"], action.to_rows())


def _zip(cells, values):
    if isinstance(cells, list):
        assert len(cells) == len(values)
        for c, v in zip(cells, values):
            yield from _zip(c, v)
    else:
        yield cells, values


@pytest.mark.parametrize("name,text", PAYLOADS, ids=[name for name, _ in PAYLOADS])
def test_loaded_scalars_match_a_cell_by_cell_parse(name, text):
    d = json.loads(text)
    loaded = loads(text)
    pairs = list(_scalar_pairs(loaded.kind, d, loaded.obj))
    assert bool(pairs) == (loaded.kind != "group")
    for cell, x in pairs:
        want = parse_scalar(cell)
        assert (x.conductor, x.coeffs) == (want.conductor, want.coeffs), (name, cell)


def _kz2_with(cells):
    """The kz2 payload with the given mult cells, (i, j, k) -> JSON value."""
    d = json.loads((GOLDEN / "kz2.json").read_text())
    for (i, j, k), value in cells.items():
        d["mult"][i][j][k] = value
    return json.dumps(d)


BAD_CELLS = [
    ("x", ParseError, "malformed rational 'x'"),
    ("1/0", ParseError, "zero denominator in '1/0'"),
    ("1" * 5000, ParseError, "rational of 5000 characters is too long"),
    (7, SchemaError, "scalar must be a string or conductor object, got int"),
    ({"conductor": 4, "coeffs": ["1/1", "x"]}, ParseError, "malformed rational 'x'"),
]


@pytest.mark.parametrize("bad,error,message", BAD_CELLS, ids=["text", "zero", "long", "int", "coeff"])
def test_a_malformed_cell_fails_alike_once_or_everywhere(bad, error, message):
    everywhere = {(i, j, k): bad for i in range(2) for j in range(2) for k in range(2)}
    for text in (_kz2_with({(1, 0, 1): bad}), _kz2_with(everywhere)):
        with pytest.raises(error) as exc:
            loads(text)
        assert str(exc.value) == message
    # cells are validated in order: the first malformed one is reported
    with pytest.raises(ParseError) as exc:
        loads(_kz2_with({(0, 1, 1): "first/", (1, 0, 0): bad, (1, 1, 1): "last"}))
    assert str(exc.value) == "malformed rational 'first/'"


def _zero_object(n: int, count: int | None = None) -> dict:
    """A conductor-n zero as a JSON conductor object of count coeffs, phi(n) by default."""
    return {"conductor": n, "coeffs": ["0/1"] * (phi_degree(n) if count is None else count)}


# zeros the loader must still reject, with the message of each
BAD_ZEROS = [
    ("0/0", ParseError, "zero denominator in '0/0'"),
    (_zero_object(4, 3), SchemaError, "coeffs must be a list of length 2 for conductor 4"),
]


@pytest.mark.parametrize("bad,error,message", BAD_ZEROS, ids=["text", "coeffs"])
def test_skipping_parsed_zeros_keeps_every_check_of_a_zero_cell(bad, error, message):
    """A string that parsed to zero is not parsed again, but every other
    cell is: a bad zero fails where it stands, after zeros already seen,
    and the first bad cell in order is the one reported."""
    everywhere = {(i, j, k): bad for i in range(2) for j in range(2) for k in range(2)}
    for cells in ({(1, 0, 1): bad}, {(0, 1, 1): _zero_object(4), (1, 1, 0): bad}, everywhere):
        with pytest.raises(error) as exc:
            loads(_kz2_with(cells))
        assert str(exc.value) == message
    with pytest.raises(error) as exc:
        loads(_kz2_with({(0, 1, 1): bad, (1, 0, 0): "x", (1, 1, 1): "last"}))
    assert str(exc.value) == message
    with pytest.raises(ParseError) as exc:
        loads(_kz2_with({(0, 1, 1): "x", (1, 0, 0): bad}))
    assert str(exc.value) == "malformed rational 'x'"


def test_zero_conductor_objects_count_toward_the_lcm_cap():
    """Two zero conductor objects alone break MAX_PHI: each conductor is
    folded into the lcm before the zero is dropped."""
    with pytest.raises(SchemaError) as exc:
        loads(_kz2_with({(0, 0, 1): _zero_object(211), (1, 1, 0): _zero_object(223)}))
    assert str(exc.value) == f"conductors have lcm 47053, whose phi exceeds {MAX_PHI}"


def test_a_zero_conductor_object_is_dropped_like_0_over_1():
    golden = (GOLDEN / "kz2.json").read_text()
    loaded = loads(_kz2_with({(0, 0, 1): _zero_object(4), (1, 0, 0): _zero_object(3)})).obj
    assert loaded.alg.mult.planes == loads(golden).obj.alg.mult.planes
    # so it is written back as "0/1"
    assert dumps(loaded) == golden


def _nonzero_texts(text):
    d = json.loads(text)
    return {x for t in ("mult", "comult") for plane in d[t] for row in plane for x in row if x != "0/1"}


def _stored(h):
    return [x for t in (h.alg.mult, h.comult) for plane in t.planes for *_, x in plane]


def test_each_distinct_string_becomes_one_scalar_per_load():
    text = (GOLDEN / "ds3.json").read_text()
    first, second = _stored(loads(text).obj), _stored(loads(text).obj)
    assert len(first) == 432  # D(S3) stores its nonzero cells only
    assert len({id(x) for x in first}) == len(_nonzero_texts(text))
    # no cache outlives a call: a second load builds its own Scalars
    assert not {id(x) for x in first} & {id(x) for x in second}


NOT_ASCII = ["1\n", "٣", "１", "1/２"]  # trailing newline, Arabic-Indic 3, fullwidth 1 and 2


@pytest.mark.parametrize("text", NOT_ASCII, ids=["newline", "arabic-indic", "fullwidth", "fullwidth-denominator"])
def test_rationals_are_ascii_only(text):
    with pytest.raises(ParseError, match="malformed rational"):
        parse_scalar(text)
    with pytest.raises(ParseError, match="malformed rational"):
        parse_scalar({"conductor": 4, "coeffs": ["0/1", text]})
    with pytest.raises(ParseError, match="malformed rational"):
        loads(_kz2_with({(0, 0, 0): text}))


FUZZED = {
    name: json.loads((GOLDEN / f"{name}.json").read_text())
    for name in ("kz2", "vec-z2", "vec-z2-fiber", "kz2-modules", "z2-group")
}
# the payloads' own field names and scalar strings, so that a drawn value
# often gets past the first check it meets
WORDS = ["conductor", "coeffs", "rows", "cols", "entries", "key", "matrix", "name", "dim", "action"]
SCALARS = ["0/1", "1/1", "-1/2", "1/0", "x"]
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(SCALARS),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)


def _paths(node, path=()):
    yield path
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for k, child in items:
        yield from _paths(child, path + (k,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_loads_fails_only_with_the_errors_the_cli_maps_to_exit_2(data):
    doc = json.loads(json.dumps(FUZZED[data.draw(st.sampled_from(sorted(FUZZED)))]))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(JSON)
    if path:
        node = doc
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
    else:
        doc = value
    try:
        loads(json.dumps(doc))
    except (ParseError, SchemaError, ShapeError):
        pass
