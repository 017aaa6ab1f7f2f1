"""Shipped example generators and the JSON serialization layer.

Every registry entry must round-trip bit-exactly, and the checked-in golden
files pin the wire format so accidental format drift fails loudly.
"""

import json
import pathlib

import pytest

from hopfrec.errors import ParseError, SchemaError
from hopfrec.examples import (
    EXAMPLES,
    gen_drinfeld_double,
    gen_function_algebra,
    gen_group_algebra,
)
from hopfrec.groups import cyclic_group, symmetric_group
from hopfrec.hopf import run_hopf_checks, tensor_hopf
from hopfrec.matrices import Matrix
from hopfrec.scalars import ONE, Scalar, sc
from hopfrec.serialize import dumps, loads

GOLDEN = pathlib.Path(__file__).parent / "golden"

Z2 = cyclic_group(2)
S3 = symmetric_group(3)


def test_all_hopf_examples_pass_their_axioms():
    for name, (kind, fac) in sorted(EXAMPLES.items()):
        if kind != "hopf":
            continue
        h = fac()
        for rep in run_hopf_checks(h):
            assert rep.passed, (name, rep.name, [f.line() for f in rep.failures])


def test_drinfeld_double_of_abelian_group_is_plain_tensor():
    d = gen_drinfeld_double(Z2)
    t = tensor_hopf(gen_function_algebra(Z2), gen_group_algebra(Z2))
    assert d.alg.mult == t.alg.mult
    assert d.alg.unit == t.alg.unit
    assert d.comult == t.comult
    assert d.counit == t.counit
    assert d.antipode == t.antipode


def test_drinfeld_double_of_trivial_group():
    d = gen_drinfeld_double(cyclic_group(1))
    assert d.alg.dim == 1
    assert all(rep.passed for rep in run_hopf_checks(d))


def test_drinfeld_double_s3_is_noncommutative_and_noncocommutative():
    d = gen_drinfeld_double(S3)
    assert d.alg.dim == 36
    a = d.alg
    assert any(
        a.mult[i][j] != a.mult[j][i] for i in range(36) for j in range(i)
    )
    assert any(
        d.comult[k][i][j] != d.comult[k][j][i]
        for k in range(36)
        for i in range(36)
        for j in range(i)
    )


def test_function_algebra_s3_noncocommutativity_witness():
    # delta_{(5)} splits along ordered factorizations; 1 * 3 = 5 but 3 * 1 = 2
    f = gen_function_algebra(S3)
    assert S3.mul(1, 3) == 5 and S3.mul(3, 1) == 2
    assert f.comult[5][1][3] == ONE
    assert f.comult[5][3][1].is_zero()


def test_every_registry_entry_round_trips():
    for name, (kind, fac) in sorted(EXAMPLES.items()):
        obj = fac()
        s1 = dumps(obj)
        loaded = loads(s1)
        assert loaded.kind == kind, name
        s2 = dumps(loaded.obj, **loaded.extras)
        assert s1 == s2, f"{name} serialization not idempotent"


def test_golden_files_pin_wire_format():
    names = sorted(EXAMPLES)
    assert GOLDEN.is_dir()
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == names
    for name in names:
        kind, fac = EXAMPLES[name]
        want = (GOLDEN / f"{name}.json").read_text()
        assert dumps(fac()) == want, f"golden file drift for {name}"


def test_cyclotomic_matrix_round_trip():
    from hopfrec.serialize import format_matrix, parse_matrix

    z = Scalar.zeta(12)
    m = Matrix.from_rows([[z, z * z + sc(1)], [Scalar.rational(-7, 3), z ** 5]])
    assert parse_matrix(format_matrix(m)) == m


def test_parse_rejects_zero_denominator():
    from hopfrec.serialize import parse_scalar

    with pytest.raises(ParseError, match="zero denominator"):
        parse_scalar("1/0")


def test_loads_rejects_unknown_kind_and_fields():
    with pytest.raises(SchemaError, match="kind"):
        loads('{"kind": "frobnicator"}\n')
    with pytest.raises(SchemaError, match=r"unknown kind \[\]"):
        loads('{"kind": []}\n')
    good = dumps(gen_group_algebra(Z2))
    import json

    payload = json.loads(good)
    payload["surprise"] = 1
    with pytest.raises(SchemaError, match="unknown fields"):
        loads(json.dumps(payload))
    del payload["surprise"]
    del payload["counit"]
    with pytest.raises(SchemaError):
        loads(json.dumps(payload))


def test_loads_reports_line_and_column_on_syntax_error():
    with pytest.raises(ParseError, match=r"line 2"):
        loads('{\n  "kind": }\n')


def test_loads_rejects_wrong_tensor_shape():
    import json

    payload = json.loads(dumps(gen_group_algebra(Z2)))
    payload["mult"][0][0] = payload["mult"][0][0][:1]  # row too short
    with pytest.raises((SchemaError, ParseError)):
        loads(json.dumps(payload))


def test_loads_rejects_non_object_top_level():
    with pytest.raises(SchemaError, match="top level"):
        loads("[1, 2, 3]\n")


def test_group_payload_round_trip_preserves_element_names():
    s = dumps(S3)
    loaded = loads(s)
    assert loaded.kind == "group"
    assert loaded.obj.order == 6
    assert loaded.obj.mul(1, 3) == 5
    assert dumps(loaded.obj, **loaded.extras) == s


# (example, record field, key word, first key) for the F and J record lists
KEYED = [("vec-z2", "F", "quadruples", "[0, 0, 0, 0]"), ("vec-z2-fiber", "J", "pairs", "[0, 0]")]
BAD_RECORDS = [
    (lambda recs: {"records": recs}, "{name} must be a list of key/matrix records"),
    (lambda recs: recs + [["key", "matrix"]], "{name} records must be objects"),
    (lambda recs: [dict(recs[0], key=recs[0]["key"] + [0])] + recs[1:], "{name} keys must be integer {keys}"),
    (lambda recs: recs + recs[:1], "duplicate {name} key {first}"),
]


@pytest.mark.parametrize("example,name,keys,first", KEYED, ids=["F", "J"])
@pytest.mark.parametrize(
    "mutate,message", BAD_RECORDS, ids=["not-a-list", "not-an-object", "bad-key", "duplicate"]
)
def test_loads_names_each_bad_key_matrix_record(example, name, keys, first, mutate, message):
    payload = json.loads(dumps(EXAMPLES[example][1]()))
    payload[name] = mutate(payload[name])
    with pytest.raises(SchemaError) as exc:
        loads(json.dumps(payload))
    assert str(exc.value) == message.format(name=name, keys=keys, first=first)
