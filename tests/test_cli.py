"""Command line driver: exit codes, report formats, file round trips."""

import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hopfrec import cli, fusion, reconstruct, repcat, serialize
from hopfrec.cli import main
from hopfrec.errors import SchemaError
from hopfrec.examples import EXAMPLES, gen_group_algebra
from hopfrec.fusion import verify_category, verify_pentagon
from hopfrec.groups import GroupTable, cyclic_group
from hopfrec.reports import CheckReport
from hopfrec.repcat import trivial_module
from hopfrec.scalars import Scalar

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out + cap.err


def test_python_m_hopfrec_writes_the_golden_example(tmp_path):
    """`python -m hopfrec` runs the CLI through `__main__` and exits with its code."""
    out = tmp_path / "kz2.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "hopfrec", "example", "kz2", "-o", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "kz2.json").read_bytes()


def test_example_then_check_hopf(tmp_path, capsys):
    f = tmp_path / "kz2.json"
    code, out = run(capsys, "example", "kz2", "-o", str(f))
    assert code == 0 and f.exists()
    code, out = run(capsys, "check-hopf", str(f))
    assert code == 0
    assert "result: pass" in out
    for name in ("algebra", "bialgebra", "antipode"):
        assert f"{name}: pass" in out


def test_check_hopf_json_report(tmp_path, capsys):
    f = tmp_path / "ks3.json"
    run(capsys, "example", "ks3", "-o", str(f))
    code, out = run(capsys, "--report", "json", "check-hopf", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check-hopf"
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} == {"algebra", "bialgebra", "antipode"}
    assert all(c["passed"] for c in doc["checks"])


def test_report_flag_after_subcommand(tmp_path, capsys):
    f = tmp_path / "kz2.json"
    run(capsys, "example", "kz2", "-o", str(f))
    code, out = run(capsys, "check-hopf", str(f), "--report", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main builds its parser once per process: --report before or after the
    # subcommand, and an argparse error (exit 2) on an earlier call, leave
    # each later call's output and exit code those of its first call
    f = str(tmp_path / "kz2.json")
    run(capsys, "example", "kz2", "-o", f)
    calls = [
        ["--report", "json", "check-hopf", f],
        ["check-hopf", f, "--report", "json"],
        ["check-hopf", f],
        ["example", "nope", "-o", "/dev/null"],
        ["check-hopf", f, "--report", "text"],
    ]

    def once(argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        cap = capsys.readouterr()
        return code, re.sub(r'"elapsed": [0-9.e-]+|\(\d+\.\d+s\)', "<elapsed>", cap.out), cap.err

    first = [once(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 0]
    assert first[0][1] == first[1][1] != first[2][1] == first[4][1]
    for order in (range(len(calls) - 1, -1, -1), range(len(calls))):
        assert all(once(calls[i]) == first[i] for i in order)
    assert cli.build_parser() is cli.build_parser()


def test_mutated_hopf_is_exit_1_and_names_the_axiom(tmp_path, capsys):
    f = tmp_path / "kz2.json"
    run(capsys, "example", "kz2", "-o", str(f))
    doc = json.loads(f.read_text())
    doc["comult"][1][1][1] = "2"  # grouplike coefficient bumped
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check-hopf", str(bad))
    assert code == 1
    assert "result: FAIL" in out
    assert "coassociativity" in out or "counit" in out
    # failing tuples are listed, not summarized away
    assert " at (" in out


def test_parse_error_is_exit_2(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text('{"kind": "hopf", "oops"\n')
    code, out = run(capsys, "check-hopf", str(f))
    assert code == 2
    code, out = run(capsys, "check-hopf", str(tmp_path / "missing.json"))
    assert code == 2


def test_unknown_field_is_exit_2(tmp_path, capsys):
    f = tmp_path / "kz2.json"
    run(capsys, "example", "kz2", "-o", str(f))
    doc = json.loads(f.read_text())
    doc["extra"] = True
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "check-hopf", str(f))
    assert code == 2
    assert "unknown fields" in out


def _vec_z2_with_entry(tmp_path, capsys, entry):
    """vec-z2 with its 1x1 F block at (1, 1, 1, 1) holding the given JSON value."""
    f = tmp_path / "vec.json"
    run(capsys, "example", "vec-z2", "-o", str(f))
    doc = json.loads(f.read_text())
    (record,) = [r for r in doc["F"] if r["key"] == [1, 1, 1, 1]]
    record["matrix"]["entries"] = [[entry]]
    f.write_text(json.dumps(doc))
    return f


def test_oversized_integers_are_exit_2(tmp_path, capsys):
    f = _vec_z2_with_entry(tmp_path, capsys, "1" * 5000)
    code, out = run(capsys, "check-category", str(f))
    assert code == 2
    assert "rational of 5000 characters is too long" in out
    # a JSON number literal beyond the interpreter's digit limit
    text = f.read_text()
    assert '"dual": [0, 1]' in text
    f.write_text(text.replace('"dual": [0, 1]', '"dual": [0, ' + "1" * 5000 + "]"))
    code, out = run(capsys, "check-category", str(f))
    assert code == 2
    assert "integer literal is too long" in out


@pytest.mark.parametrize(
    "data,message",
    [(b'{"kind": "hopf", "dim": "\xff"}', "not UTF-8: invalid start byte at byte 25"), (b"[" * 100_000, "nesting is too deep")],
    ids=["not-utf8", "deep-nesting"],
)
def test_undecodable_or_deeply_nested_files_are_exit_2(tmp_path, capsys, data, message):
    f = tmp_path / "bad.json"
    f.write_bytes(data)
    code = main(["check-hopf", str(f)])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == f"error: {f}: {message}\n"


@pytest.mark.parametrize("command", ["example", "repcat", "reconstruct"])
def test_an_unwritable_output_path_is_exit_2(tmp_path, capsys, command):
    inputs = {"example": ["ks3"], "repcat": ["ks3", "ks3-modules"], "reconstruct": ["vec-z2", "vec-z2-fiber"]}[command]
    argv = [command]
    for name in inputs:
        if command == "example":
            argv.append(name)
        else:
            serialize.save(tmp_path / f"{name}.json", EXAMPLES[name][1]())
            argv.append(str(tmp_path / f"{name}.json"))
    out_f = tmp_path / "no-such-dir" / "out.json"
    code = main([*argv, "-o", str(out_f)])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == f"error: [Errno 2] No such file or directory: '{out_f}'\n"


def test_non_ascii_or_newline_rationals_are_exit_2(tmp_path, capsys):
    f = tmp_path / "kz2.json"
    run(capsys, "example", "kz2", "-o", str(f))
    doc = json.loads(f.read_text())
    for one in ("1\n", "\u0661", "\uff11"):  # trailing newline, Arabic-Indic 1, fullwidth 1
        doc["unit"] = [one, "0/1"]
        f.write_text(json.dumps(doc))
        code, out = run(capsys, "check-hopf", str(f))
        assert code == 2
        assert "malformed rational" in out


@pytest.mark.parametrize("count", [0, 1, 3])
def test_hopf_basis_lists_exactly_dim_triples(tmp_path, capsys, count):
    doc = json.loads(serialize.dumps(EXAMPLES["kz2"][1]()))
    doc["basis"] = [[0, 0, 0]] * count
    with pytest.raises(SchemaError, match="basis must list 2 triples"):
        serialize.loads(json.dumps(doc))
    f = tmp_path / "kz2.json"
    f.write_text(json.dumps(doc))
    code, out = run(capsys, "check-hopf", str(f))
    assert code == 2
    assert "basis must list 2 triples" in out


def test_huge_conductor_is_rejected_before_it_is_factored(tmp_path, capsys):
    f = _vec_z2_with_entry(tmp_path, capsys, {"conductor": 10**12, "coeffs": ["1"]})
    t0 = time.perf_counter()
    code, out = run(capsys, "check-category", str(f))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "conductor 1000000000000" in out


def test_oversized_fusion_payload_is_rejected_in_proportion_to_it(tmp_path, capsys):
    # rank 30, every multiplicity 1 off the unit, one F record: the key check
    # stops at the first quadruple with a tree but no block and names it,
    # and the first extra key, instead of every key of the r^4 it would sweep
    r = 30
    def n(a, b, c):  # the unit acts strictly; any other product holds every simple once
        return int(c == b) if a == 0 else int(c == a) if b == 0 else 1

    fusion = [[[n(a, b, c) for c in range(r)] for b in range(r)] for a in range(r)]
    doc = {
        "kind": "fusion",
        "rank": r,
        "unit": 0,
        "names": [f"X{i}" for i in range(r)],
        "fusion": fusion,
        "dual": list(range(r)),
        "F": [{"key": [1, 1, 1, r], "matrix": {"rows": 1, "cols": 1, "entries": [["1/1"]]}}],
    }
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out = run(capsys, "check-category", str(f))
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert f"F keys mismatch: first missing (0, 0, 0, 0), first extra (1, 1, 1, {r})" in out
    assert len(out) < 500


def test_wrong_kind_is_exit_2(tmp_path, capsys):
    f = tmp_path / "vec.json"
    run(capsys, "example", "vec-z2", "-o", str(f))
    code, out = run(capsys, "check-hopf", str(f))
    assert code == 2
    assert "expected a hopf payload" in out


def test_a_payload_of_the_wrong_kind_is_never_built(tmp_path, capsys, monkeypatch):
    # the kind is checked before the payload's parser runs: a group payload
    # given to check-hopf constructs no GroupTable, whose n^3 associativity
    # check took seconds on an order-500 table before the exit
    f = tmp_path / "z5.json"
    serialize.save(f, cyclic_group(5))

    def built(self):
        raise AssertionError("a GroupTable was constructed")

    monkeypatch.setattr(GroupTable, "__post_init__", built)
    code, out = run(capsys, "check-hopf", str(f))
    assert code == 2
    assert f"{f}: expected a hopf payload, found group" in out
    with pytest.raises(SchemaError, match="^expected a hopf payload, found group$"):
        serialize.loads(f.read_text(), "hopf")


def test_bad_example_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "nope", "-o", "/dev/null"])
    assert exc.value.code == 2


def test_check_category_with_and_without_fiber(tmp_path, capsys):
    skel = tmp_path / "vec.json"
    fib = tmp_path / "fib.json"
    run(capsys, "example", "vec-z2", "-o", str(skel))
    run(capsys, "example", "vec-z2-fiber", "-o", str(fib))
    code, out = run(capsys, "check-category", str(skel))
    assert code == 0
    assert "pentagon: pass" in out
    assert "tensor-structure" not in out
    code, out = run(capsys, "check-category", str(skel), str(fib))
    assert code == 0
    assert "tensor-structure: pass" in out and "duality: pass" in out


def test_incoherent_category_fails_with_named_tuples(tmp_path, capsys):
    skel = tmp_path / "vecw.json"
    fib = tmp_path / "fib.json"
    run(capsys, "example", "vec-z2-omega", "-o", str(skel))
    run(capsys, "example", "vec-z2-fiber", "-o", str(fib))
    code, out = run(capsys, "check-category", str(skel), str(fib))
    assert code == 1
    assert "compatibility at (1, 1, 1)" in out


def test_reconstruct_writes_verified_hopf(tmp_path, capsys):
    skel = tmp_path / "vec.json"
    fib = tmp_path / "fib.json"
    out_f = tmp_path / "hopf.json"
    run(capsys, "example", "vec-z2", "-o", str(skel))
    run(capsys, "example", "vec-z2-fiber", "-o", str(fib))
    code, out = run(capsys, "reconstruct", str(skel), str(fib), "-o", str(out_f))
    assert code == 0 and out_f.exists()
    code, out = run(capsys, "check-hopf", str(out_f))
    assert code == 0


def test_reconstruct_writes_nothing_when_a_rebuilt_check_fails(tmp_path, capsys, monkeypatch):
    skel, fib, out_f = (tmp_path / f for f in ("vec.json", "fib.json", "hopf.json"))
    run(capsys, "example", "vec-z2", "-o", str(skel))
    run(capsys, "example", "vec-z2-fiber", "-o", str(fib))
    bad = CheckReport("antipode")
    bad.add("left-snake", (0,), "1", "2")
    monkeypatch.setattr(cli, "run_hopf_checks", lambda hopf: [CheckReport("algebra"), bad])
    code, out = run(capsys, "--report", "json", "reconstruct", str(skel), str(fib), "-o", str(out_f))
    doc = json.loads(out)
    assert code == 1 and not out_f.exists()
    assert doc["passed"] is False and doc["dim"] == 2 and "written" not in doc
    code, out = run(capsys, "reconstruct", str(skel), str(fib), "-o", str(out_f))
    assert code == 1 and not out_f.exists()
    assert "  left-snake at (0,): 1 != 2" in out.splitlines() and "written" not in out


def test_repcat_writes_skeleton_and_fiber(tmp_path, capsys):
    h = tmp_path / "ks3.json"
    mods = tmp_path / "mods.json"
    out_f = tmp_path / "skel.json"
    run(capsys, "example", "ks3", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    code, out = run(capsys, "repcat", str(h), str(mods), "-o", str(out_f))
    assert code == 0
    fiber_f = tmp_path / "skel.fiber.json"
    assert out_f.exists() and fiber_f.exists()
    code, out = run(capsys, "check-category", str(out_f), str(fiber_f))
    assert code == 0


@pytest.fixture
def ks3_files(tmp_path, capsys):
    h, mods = tmp_path / "ks3.json", tmp_path / "mods.json"
    run(capsys, "example", "ks3", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    return str(h), str(mods)


def test_repcat_writes_both_files_or_neither(tmp_path, capsys, ks3_files):
    # the skeleton path is writable and the fiber path is a directory; a
    # skeleton file that was there before the run is left as it was
    for stem, before in (("s2", None), ("s3", "other content\n")):
        out_f, fiber_f = tmp_path / f"{stem}.json", tmp_path / f"{stem}.fiber.json"
        if before is not None:
            out_f.write_text(before)
        fiber_f.mkdir()
        code = main(["repcat", *ks3_files, "-o", str(out_f)])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == ""
        assert cap.err == f"error: [Errno 21] Is a directory: '{fiber_f}'\n"
        assert (out_f.read_text() if out_f.exists() else None) == before
        assert os.listdir(fiber_f) == []


def test_repcat_puts_back_a_fiber_file_whose_write_fails(tmp_path, capsys, monkeypatch, ks3_files):
    # the fiber file opens, and its write fails: both files that were there
    # are put back byte for byte
    out_f, fiber_f = tmp_path / "s.json", tmp_path / "s.fiber.json"
    out_f.write_bytes(b"old skeleton")
    fiber_f.write_bytes(b"old fiber")
    real = serialize.save

    def save(path, obj, **extras):
        if path == str(fiber_f):  # it opens, so empties, the file, and fails
            open(path, "w").close()
            raise OSError(28, "No space left on device")
        real(path, obj, **extras)

    monkeypatch.setattr(serialize, "save", save)
    code = main(["repcat", *ks3_files, "-o", str(out_f)])
    cap = capsys.readouterr()
    assert code == 2 and cap.err == "error: [Errno 28] No space left on device\n"
    assert (out_f.read_bytes(), fiber_f.read_bytes()) == (b"old skeleton", b"old fiber")


@pytest.mark.parametrize("command", ["reconstruct", "example"])
def test_a_write_that_fails_puts_back_the_existing_output(tmp_path, capsys, monkeypatch, command):
    # the output file opens, so empties, and its write fails: the file
    # that was there is put back byte for byte
    argv = [command]
    if command == "example":
        argv.append("ks3")
    else:
        for name in ("vec-z2", "vec-z2-fiber"):
            serialize.save(tmp_path / f"{name}.json", EXAMPLES[name][1]())
            argv.append(str(tmp_path / f"{name}.json"))
    out_f = tmp_path / "out.json"
    out_f.write_bytes(b"old output")

    def save(path, obj, **extras):
        open(path, "w").close()
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(serialize, "save", save)
    code = main([*argv, "-o", str(out_f)])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == "" and cap.err == "error: [Errno 28] No space left on device\n"
    assert out_f.read_bytes() == b"old output"


def test_repcat_verifies_the_family_once(tmp_path, capsys, monkeypatch):
    h = tmp_path / "ks3.json"
    mods = tmp_path / "mods.json"
    run(capsys, "example", "ks3", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    calls = []
    for module in (cli, repcat):
        real = module.verify_irreps
        monkeypatch.setattr(module, "verify_irreps", lambda *a, real=real: calls.append(a) or real(*a))
    code, _ = run(capsys, "repcat", str(h), str(mods), "-o", str(tmp_path / "skel.json"))
    assert code == 0 and len(calls) == 1


def test_repcat_reports_coherence_from_the_proof(tmp_path, capsys, monkeypatch, ks3_files):
    # _skeletalize's output is coherent by construction: no category checker runs
    calls = []
    for module in (cli, fusion, reconstruct, repcat):
        for name in ("verify_category", "verify_pentagon", "verify_tensorator", "verify_duality"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    code, out = run(capsys, "repcat", *ks3_files, "-o", str(tmp_path / "skel.json"))
    assert code == 0 and calls == []


def test_repcat_names_its_certified_reports_as_verify_category_does(tmp_path, capsys, ks3_files):
    out_f = tmp_path / "skel.json"
    code, out = run(capsys, "--report", "json", "repcat", *ks3_files, "-o", str(out_f))
    checks = json.loads(out)["checks"]
    skel = serialize.load(str(out_f), "fusion").obj
    fiber = serialize.load(str(tmp_path / "skel.fiber.json"), "fiber").obj
    swept = [r.as_dict() for r in verify_category(skel, fiber)]
    assert code == 0 and [c["name"] for c in checks[1:]] == [r["name"] for r in swept]
    assert checks[1:] == swept


def test_roundtrip_gates_once_and_sweeps_no_rebuilt_family(capsys, monkeypatch, ks3_files):
    # verify_irreps runs once, as the gate on the source family; the
    # rebuilt-irreps report comes from the matrix-unit proof
    calls, zetas = [], []
    for module in (cli, repcat):
        real = module.verify_irreps
        monkeypatch.setattr(module, "verify_irreps", lambda alg, mods, real=real: calls.append(alg) or real(alg, mods))
    for module in (cli, reconstruct):
        monkeypatch.setattr(module, "zeta_modules", lambda *a: zetas.append(a), raising=False)
    code, out = run(capsys, "roundtrip", *ks3_files)
    h = serialize.load(ks3_files[0], "hopf").obj
    assert code == 0 and "rebuilt-irreps: pass" in out.splitlines()
    assert [alg.dim for alg in calls] == [h.dim] and calls[0].mult == h.alg.mult
    assert zetas == []


@pytest.mark.parametrize("command", ["repcat", "roundtrip"])
def test_modules_that_do_not_fit_their_hopf_file_are_exit_2(tmp_path, capsys, command):
    h = tmp_path / "kz2.json"
    mods = tmp_path / "mods.json"
    run(capsys, "example", "kz2", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    out_f = ["-o", str(tmp_path / "skel.json")] if command == "repcat" else []
    code = main([command, str(h), str(mods), *out_f])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == f"error: {mods}: module 0 has 6 action matrices for dim 2\n"
    assert not (tmp_path / "skel.json").exists()


def test_roundtrip_ks3(tmp_path, capsys):
    h = tmp_path / "ks3.json"
    mods = tmp_path / "mods.json"
    run(capsys, "example", "ks3", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    code, out = run(capsys, "roundtrip", str(h), str(mods))
    assert code == 0
    assert "hopf-morphism: pass" in out
    code, out = run(capsys, "roundtrip", str(h), str(mods), "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and "gamma" in doc


def test_roundtrip_names_a_wrong_antipode(tmp_path, capsys):
    # skeletalize reads no antipode, so K[S3] with S = id skeletalizes, and
    # gamma fails the antipode law at the two 3-cycles, which S swaps
    h = tmp_path / "ks3.json"
    mods = tmp_path / "mods.json"
    run(capsys, "example", "ks3", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    doc = json.loads(h.read_text())
    n = doc["dim"]
    doc["antipode"]["entries"] = [["1/1" if i == j else "0/1" for j in range(n)] for i in range(n)]
    h.write_text(json.dumps(doc))
    code, out = run(capsys, "roundtrip", str(h), str(mods))
    lines = out.splitlines()
    assert code == 1 and "hopf-morphism: FAIL (2 failing tuples)" in lines
    failing = [line for line in lines if line.startswith("  morphism-antipode at ")]
    assert [line.split(":")[0] for line in failing] == ["  morphism-antipode at (3,)", "  morphism-antipode at (4,)"]
    assert "SkeletalizationFailure" not in out


def test_roundtrip_solves_f_where_coassociativity_fails(tmp_path, capsys):
    # the counital twist of K[S3] fails coassociativity alone, so the round
    # trip solves F, and no F solves its trees
    from test_skeletal_coherence import failed_premise

    h, mods = failed_premise("ks3-twisted")
    paths = [tmp_path / "twisted.json", tmp_path / "mods.json"]
    for path, obj in zip(paths, (h, mods)):
        path.write_text(serialize.dumps(obj))
    code, out = run(capsys, "roundtrip", *map(str, paths))
    assert code == 1
    assert "  SkeletalizationFailure at (): recoordinatization at (1, 2, 1, 2) is not solvable != " in out.splitlines()


def test_roundtrip_prints_the_reports_its_failure_carries(tmp_path, capsys, monkeypatch):
    h = tmp_path / "kz2.json"
    mods = tmp_path / "mods.json"
    run(capsys, "example", "kz2", "-o", str(h))
    doc = serialize.dumps(EXAMPLES["kz2-modules"][1]()[:1])  # chi0 alone
    mods.write_text(doc)
    code, out = run(capsys, "roundtrip", str(h), str(mods))
    assert code == 1
    lines = out.splitlines()
    skel_line = lines.index("  SkeletalizationFailure at (): modules are not a complete split irreducible family != ")
    assert lines[skel_line + 1 : skel_line + 3] == [
        "irreducible-family: FAIL (1 failing tuples)",
        "  complete at (): sum of squared dims = 1 != algebra dim = 2",
    ]

    # a rebuilt side that fails its checks: the reports of the exception follow
    bad = CheckReport("antipode")
    bad.add("left-snake", (0,), "1", "2")
    monkeypatch.setattr(reconstruct, "run_hopf_checks", lambda hopf: [CheckReport("algebra"), bad])
    monkeypatch.setattr(repcat, "check_antipode", lambda hopf: bad)  # no transport certificate
    run(capsys, "example", "kz2-modules", "-o", str(mods))
    code, out = run(capsys, "--report", "json", "roundtrip", str(h), str(mods))
    checks = json.loads(out)["checks"]
    assert code == 1 and [c["name"] for c in checks] == ["ReconstructionAxiomFailure", "antipode"]
    assert checks[1] == bad.as_dict()


def test_json_report_carries_failure_records(tmp_path, capsys):
    skel = tmp_path / "vecw.json"
    fib = tmp_path / "fib.json"
    run(capsys, "example", "vec-z2-omega", "-o", str(skel))
    run(capsys, "example", "vec-z2-fiber", "-o", str(fib))
    code, out = run(capsys, "--report", "json", "check-category", str(skel), str(fib))
    assert code == 1
    doc = json.loads(out)
    failing = [c for c in doc["checks"] if not c["passed"]]
    assert failing
    recs = [f for c in failing for f in c["failures"]]
    assert any(f["check"] == "compatibility" and f["index"] == [1, 1, 1] for f in recs)


def test_a_cyclotomic_failure_prints_every_side_at_its_conductor(tmp_path):
    """vec-z4 with F(1,1,1,3) = zeta_4 fails the pentagon.  `python -m
    hopfrec` exits 1 without a traceback, its JSON report lists the
    quintuples that verify_pentagon finds in process, and every scalar of
    every failing side is printed at conductor 4, the pentagon ring's."""
    doc = _payload("vec-z4")
    (record,) = [r for r in doc["F"] if r["key"] == [1, 1, 1, 3]]
    record["matrix"]["entries"] = [[serialize.format_scalar(Scalar.zeta(4))]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "hopfrec", "--report", "json", "check-category", str(bad)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 1 and "Traceback" not in done.stdout + done.stderr
    (check,) = json.loads(done.stdout)["checks"]
    want = verify_pentagon(serialize.load(bad).obj)
    assert want.failures and [f["index"] for f in check["failures"]] == [list(f.index) for f in want.failures]
    for f in check["failures"]:
        for side in (f["lhs"], f["rhs"]):
            scalars = re.findall(r"z\d+\[[^\]]*\]|-?\d+/\d+", side)
            assert scalars and all(x.startswith("z4[") for x in scalars), side


def test_text_report_is_the_report_lines_of_each_check(tmp_path, capsys):
    h = tmp_path / "ks3.json"
    mods = tmp_path / "mods.json"
    skel = tmp_path / "skel.json"
    run(capsys, "example", "ks3", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    run(capsys, "repcat", str(h), str(mods), "-o", str(skel))
    doc = json.loads((tmp_path / "skel.fiber.json").read_text())
    entries = doc["J"][-1]["matrix"]["entries"]
    entries[0][1] = str(Fraction(entries[0][1]) + 2)  # a J entry of (std, std)
    bad = tmp_path / "bad.fiber.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check-category", str(skel), str(bad))
    assert code == 1
    reports = verify_category(serialize.load(skel).obj, serialize.load(bad).obj)
    assert [r.name for r in reports if not r.passed] == ["tensor-structure", "duality"]
    lines = out.splitlines()
    assert lines[0] == "command: check-category"
    assert lines[1:-1] == [line for r in reports for line in r.lines()]
    assert lines[-1].startswith("result: FAIL (")


# -- failing and edge paths of each pipeline, pinned line by line -----------

def _text(out: str) -> list:
    """The report lines, with the elapsed time cut off the result line."""
    lines = out.splitlines()
    assert lines[-1].startswith("result: ") and lines[-1].endswith("s)")
    return lines[:-1] + [lines[-1].split(" (")[0]]


def _vec_z2_fiber(tmp_path, capsys, edit):
    skel, fib = tmp_path / "vec.json", tmp_path / "fib.json"
    run(capsys, "example", "vec-z2", "-o", str(skel))
    run(capsys, "example", "vec-z2-fiber", "-o", str(fib))
    doc = json.loads(fib.read_text())
    edit(doc)
    fib.write_text(json.dumps(doc))
    return str(skel), str(fib)


def test_check_category_fiber_of_the_wrong_rank_is_exit_2(tmp_path, capsys):
    skel, fib = _vec_z2_fiber(tmp_path, capsys, lambda doc: doc.update(dims=[1, 1, 1]))
    code = main(["check-category", skel, fib])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == "error: fiber has 3 dimensions for rank 2\n"


def test_check_category_singular_j_is_a_failing_report(tmp_path, capsys):
    def zero_j11(doc):
        doc["J"][3]["matrix"]["entries"] = [["0/1"]]

    skel, fib = _vec_z2_fiber(tmp_path, capsys, zero_j11)
    code, out = run(capsys, "check-category", skel, fib)
    assert code == 1
    assert _text(out) == [
        "command: check-category",
        "NonInvertibleJ: FAIL (1 failing tuples)",
        "  NonInvertibleJ at (): J[(1, 1)] is singular != ",
        "result: FAIL",
    ]


def test_reconstruct_of_an_incoherent_pair_writes_nothing(tmp_path, capsys):
    skel, fib, out_f = (str(tmp_path / f) for f in ("vecw.json", "fib.json", "X.json"))
    run(capsys, "example", "vec-z2-omega", "-o", skel)
    run(capsys, "example", "vec-z2-fiber", "-o", fib)
    code, out = run(capsys, "reconstruct", skel, fib, "-o", out_f)
    assert code == 1 and not (tmp_path / "X.json").exists()
    assert _text(out) == [
        "command: reconstruct",
        "pentagon: pass",
        "tensor-structure: FAIL (1 failing tuples)",
        "  compatibility at (1, 1, 1): [-1/1] != [1/1]",
        "duality: pass",
        "result: FAIL",
    ]
    code, out = run(capsys, "--report", "json", "reconstruct", skel, fib, "-o", out_f)
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False and "written" not in doc
    assert not (tmp_path / "X.json").exists()


def _ks3_files(tmp_path, capsys):
    h, mods = tmp_path / "ks3.json", tmp_path / "mods.json"
    run(capsys, "example", "ks3", "-o", str(h))
    run(capsys, "example", "ks3-modules", "-o", str(mods))
    return h, mods


def test_repcat_of_an_incomplete_family_reports_only_the_family(tmp_path, capsys):
    h, mods = _ks3_files(tmp_path, capsys)
    doc = json.loads(mods.read_text())
    doc["modules"] = doc["modules"][:2]  # triv and sgn
    mods.write_text(json.dumps(doc))
    before = sorted(tmp_path.iterdir())
    code, out = run(capsys, "repcat", str(h), str(mods), "-o", str(tmp_path / "skel.json"))
    assert code == 1 and sorted(tmp_path.iterdir()) == before
    assert _text(out) == [
        "command: repcat",
        "irreducible-family: FAIL (1 failing tuples)",
        "  complete at (): sum of squared dims = 2 != algebra dim = 6",
        "result: FAIL",
    ]


def test_repcat_rejects_a_family_with_a_0_dim_module(tmp_path, capsys):
    h, mods = _ks3_files(tmp_path, capsys)
    doc = json.loads(mods.read_text())
    doc["modules"].append({"name": "Z", "dim": 0, "action": [{"rows": 0, "cols": 0, "entries": []}] * 6})
    mods.write_text(json.dumps(doc))
    before = sorted(tmp_path.iterdir())
    code, out = run(capsys, "repcat", str(h), str(mods), "-o", str(tmp_path / "skel.json"))
    assert code == 1 and sorted(tmp_path.iterdir()) == before
    assert _text(out) == [
        "command: repcat",
        "irreducible-family: FAIL (1 failing tuples)",
        "  split-irreducible at (3,): dim End = 0 != dim End = 1",
        "result: FAIL",
    ]


def test_repcat_reports_a_decomposition_gap(tmp_path, capsys):
    h, mods = _ks3_files(tmp_path, capsys)
    doc = json.loads(h.read_text())
    doc["comult"][0][0][0] = "2/1"
    h.write_text(json.dumps(doc))
    before = sorted(tmp_path.iterdir())
    code, out = run(capsys, "repcat", str(h), str(mods), "-o", str(tmp_path / "skel.json"))
    assert code == 1 and sorted(tmp_path.iterdir()) == before
    assert _text(out) == [
        "command: repcat",
        "irreducible-family: pass",
        "DecompositionGap: FAIL (1 failing tuples)",
        "  DecompositionGap at (): module (triv(x)triv) has dim 1 but the family accounts for 0 != ",
        "result: FAIL",
    ]


def test_repcat_text_and_an_out_path_without_json(tmp_path, capsys):
    h, mods = _ks3_files(tmp_path, capsys)
    out_f = str(tmp_path / "skel")
    code, out = run(capsys, "repcat", str(h), str(mods), "-o", out_f)
    assert code == 0
    assert _text(out) == [
        "command: repcat",
        "irreducible-family: pass",
        "pentagon: pass",
        "tensor-structure: pass",
        "duality: pass",
        f"written: {out_f}",
        f"written_fiber: {out_f}.fiber",
        "result: pass",
    ]
    assert serialize.load(out_f).kind == "fusion" and serialize.load(out_f + ".fiber").kind == "fiber"


# -- JSON booleans are not integers --------------------------------------------
#
# json.loads turns true and false into bools, an int subclass; every integer
# field must reject them rather than read them as 1 or 0.


def _set(path, value):
    """A payload mutation: set the entry at the key/index path to value."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


BOOL_FIELDS = [
    # (id, example, mutation, loader message)
    ("conductor", "kz2", _set(["antipode", "entries", 0, 0], {"conductor": True, "coeffs": ["1"]}),
     "conductor must be a positive integer"),
    ("rows", "vec-z2", _set(["F", 0, "matrix", "rows"], True), "matrix rows and cols must be nonnegative integers"),
    ("cols", "vec-z2", _set(["F", 0, "matrix", "cols"], True), "matrix rows and cols must be nonnegative integers"),
    ("dim", "k1", _set(["dim"], True), "hopf dim must be a positive integer"),
    ("basis", "kz2", _set(["basis"], [[True, 0, 0], [1, 0, 0]]), "basis must be a list of integer triples"),
    ("rank", "vec-z2", _set(["rank"], True), "fusion rank must be a positive integer"),
    ("unit", "vec-z2", _set(["unit"], False), "unit must be an integer"),
    ("dual", "vec-z2", _set(["dual", 1], True), "dual must be a list of integers"),
    ("fusion", "vec-z2", _set(["fusion", 0, 0, 0], True), "fusion must be a 2x2x2 nested list of integers"),
    ("F-key", "vec-z2", _set(["F", 0, "key", 0], False), "F keys must be integer quadruples"),
    ("J-key", "vec-z2-fiber", _set(["J", 0, "key", 0], False), "J keys must be integer pairs"),
    ("dims", "vec-z2-fiber", _set(["dims", 0], True), "dims must be a list of integers"),
    ("algebra_dim", "k1-modules", _set(["algebra_dim"], True), "algebra_dim must be a positive integer"),
    ("module-dim", "kz2-modules", _set(["modules", 0, "dim"], True),
     "module name must be a string and dim an integer"),
    ("order", "z1-group", _set(["order"], True), "group order must be a positive integer"),
    ("table", "z2-group", _set(["table", 0, 1], True), "table must be a 2x2 list of integers"),
    ("elements", "z2-group", _set(["elements"], [[True], [1]]), "elements must be lists of integers"),
]


def _payload(example):
    """The payload of a shipped example, or of K[Z/1], its one module or
    Z/1, where a true dim or order would read as the right value."""
    if example in ("k1", "k1-modules", "z1-group"):
        group = cyclic_group(1)
        h = gen_group_algebra(group)
        obj = {"k1": h, "k1-modules": [trivial_module(h)], "z1-group": group}[example]
    else:
        obj = EXAMPLES[example][1]()
    return json.loads(serialize.dumps(obj))


@pytest.mark.parametrize("example,mutate,message", [c[1:] for c in BOOL_FIELDS], ids=[c[0] for c in BOOL_FIELDS])
def test_json_booleans_are_rejected_in_every_integer_field(tmp_path, capsys, example, mutate, message):
    doc = _payload(example)
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        serialize.loads(json.dumps(doc))
    assert str(exc.value) == message

    code, out = run(capsys, *_argv(tmp_path, doc))
    assert code == 2
    # no command reads a group payload, so the CLI rejects its kind unparsed
    assert (message if doc["kind"] != "group" else "expected a hopf payload, found group") in out


def _argv(tmp_path, doc) -> list:
    """A CLI command line that loads the payload doc, written to a file,
    beside the shipped kz2 or vec-z2 that it needs."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    hopf, fusion = tmp_path / "kz2.json", tmp_path / "vec-z2.json"
    serialize.save(hopf, EXAMPLES["kz2"][1]())
    serialize.save(fusion, EXAMPLES["vec-z2"][1]())
    argv = {
        "hopf": ["check-hopf", bad],
        "fusion": ["check-category", bad],
        "fiber": ["check-category", fusion, bad],
        "modules": ["roundtrip", hopf, bad],
        "group": ["check-hopf", bad],
    }[doc["kind"]]
    return [str(a) for a in argv]


# -- every other rejection of a payload ----------------------------------------
#
# One field of a shipped payload changed: the loader, a constructor or the
# fit of a fiber to its skeleton rejects it, and the CLI exits 2 with one
# error line and nothing on standard output.


def _ones(n):
    """The payload of the n x n matrix of ones."""
    return {"rows": n, "cols": n, "entries": [["1/1"] * n for _ in range(n)]}


REJECTIONS = [
    # (id, example, mutation, message)
    ("coeffs-length", "kz2", _set(["antipode", "entries", 0, 0], {"conductor": 3, "coeffs": ["1/1", "0/1", "0/1"]}),
     "coeffs must be a list of length 2 for conductor 3"),
    ("unit-length", "kz2", _set(["unit"], ["1/1"]), "unit must be a list of length 2"),
    ("antipode-dims", "kz2", _set(["antipode"], _ones(1)), "antipode must be a 2x2 Matrix"),
    ("names-strings", "vec-z2", _set(["names", 0], 0), "names must be a list of strings"),
    ("names-length", "vec-z2", _set(["names"], ["1"]), "names length differs from rank"),
    ("negative-multiplicity", "vec-z2", _set(["fusion", 0, 1, 0], -1), "negative fusion multiplicity"),
    ("unit-range", "vec-z2", _set(["unit"], 2), "unit index out of range"),
    ("dual-permutation", "vec-z2", _set(["dual"], [0, 0]), "dual is not a permutation of the simples"),
    ("F-shape", "vec-z2", _set(["F", 7, "matrix"], _ones(2)), "F block at (1, 1, 1, 1) is not a 1x1 matrix"),
    ("modules-list", "kz2-modules", _set(["modules"], {}), "modules must be a list"),
    ("action-count", "kz2-modules", _set(["modules", 0, "action"], [_ones(1)]), "module action must list 2 matrices"),
    ("action-dims", "kz2-modules", _set(["modules", 0, "action", 1], _ones(2)), "action matrix is not 1x1"),
    ("iota", "vec-z2-fiber", _set(["iota"], "0/1"), "iota must be nonzero"),
    ("fiber-dim", "vec-z2-fiber", _set(["dims", 1], 0), "fiber dimensions must be positive"),
    ("unit-fiber-dim", "vec-z2-fiber", _set(["dims", 0], 2), "fiber dimension of the unit must be 1"),
    ("J-key", "vec-z2-fiber", lambda doc: doc["J"].pop(0), "J must have exactly one block per ordered pair of simples"),
    ("J-shape", "vec-z2-fiber", _set(["J", 3, "matrix"], _ones(2)), "J[(1,1)] is not a 1x1 matrix"),
    ("ev-length", "vec-z2-fiber", _set(["ev", 0], ["1/1", "1/1"]), "ev coefficients for simple 0 must have length 1"),
    ("ev-count", "vec-z2-fiber", lambda doc: doc["ev"].pop(), "ev and coev coefficient sequences must have length rank"),
]


@pytest.mark.parametrize("example,mutate,message", [c[1:] for c in REJECTIONS], ids=[c[0] for c in REJECTIONS])
def test_every_rejection_is_one_error_line(tmp_path, capsys, example, mutate, message):
    doc = _payload(example)
    mutate(doc)
    code = main(_argv(tmp_path, doc))
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.endswith(f"{message}\n")
    assert cap.err.count("\n") == 1


def test_conductors_of_a_large_lcm_are_exit_2_before_any_check(tmp_path, capsys):
    """vec-z4 with F(1,1,1,3) = zeta_211 and F(2,2,2,2) = zeta_223: each
    conductor alone passes the loader, but their lcm 47053 has phi 46620,
    and packing at it made check-category take seconds.  Conductors 97 and
    101, phi 9600, still load."""
    def vec_z4(p, q):
        doc = _payload("vec-z4")
        for key, n in (([1, 1, 1, 3], p), ([2, 2, 2, 2], q)):
            (record,) = [r for r in doc["F"] if r["key"] == key]
            record["matrix"]["entries"] = [[serialize.format_scalar(Scalar.zeta(n))]]
        return doc

    serialize.loads(json.dumps(vec_z4(97, 101)))
    t0 = time.perf_counter()
    code = main(_argv(tmp_path, vec_z4(211, 223)))
    assert time.perf_counter() - t0 < 1.0
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err.endswith(": conductors have lcm 47053, whose phi exceeds 10000\n")

