"""The benchmark's workloads: inputs generated from group tables and the
seed, the jobs that hand them to hopfrec, and the gate on each verdict.

Each workload is a function (hr, rng, workdir) -> Plan, where hr is the
imported hopfrec package.  Every hopfrec name is looked up through hr when
it is called, so the traced run sees its wrappers.  The expected verdicts
come from the inputs' construction and from `reference`; the recorded
digests in expected.json pin output bytes and failing-tuple lists at the
commit that defined the benchmark (write them with record.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference

EXPECTED_PATH = Path(__file__).with_name("expected.json")
EXPECTED: dict = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


@dataclasses.dataclass
class Job:
    name: str
    size: int  # smoke runs pick the smallest job of a workload
    call: Callable[[], object]  # the timed call into hopfrec
    check: Callable[[object], str | None]  # None when the verdict is right
    after: str | None = None  # a job whose output this one reads


@dataclasses.dataclass
class Plan:
    jobs: list
    gates: list  # (label, problem or None) checked while setting up
    before_pass: Callable[[], None] = lambda: None


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def failure_digest(reports) -> str:
    """Digest of every failing tuple of a list of reports, in order."""
    rows = [
        [r.name, [[f.check, list(f.index), f.lhs, f.rhs] for f in r.failures]]
        for r in reports
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def order_jobs(jobs: list, rng) -> list:
    """A seeded shuffle in which every job still follows the job it reads."""
    jobs = list(jobs)
    rng.shuffle(jobs)
    done: set = set()
    held: dict = {}
    out = []
    for job in jobs:
        if job.after is not None and job.after not in done:
            held.setdefault(job.after, []).append(job)
            continue
        out.append(job)
        done.add(job.name)
        out.extend(held.pop(job.name, []))
    assert not held, "a job depends on a job that is not in the workload"
    return out


# -- round trips ---------------------------------------------------------------

def _roundtrip_check(h, modules):
    """gamma_roundtrip must pass, flag gamma bijective, and return the
    evaluation matrix: column i stacks the action matrices of e_i."""
    rows = sum(v.dim * v.dim for v in modules)

    def check(out):
        rep, gamma = out
        if not rep.passed:
            return f"round trip failed: {[f.line() for f in rep.failures][:3]}"
        if rep.flags.get("bijective") is not True:
            return "round trip did not flag gamma bijective"
        if (gamma.rows, gamma.cols) != (rows, h.dim):
            return f"gamma is {gamma.rows}x{gamma.cols}, not {rows}x{h.dim}"
        off = 0
        for v in modules:
            for i in range(h.dim):
                act = v.action[i]
                for k in range(v.dim):
                    for l in range(v.dim):
                        if gamma.at(off + k * v.dim + l, i) != act.at(k, l):
                            return f"gamma differs from the evaluation map at column {i}"
            off += v.dim * v.dim
        return None

    return check


def roundtrip_ks4(hr, rng, workdir) -> Plan:
    h = hr.EXAMPLES["ks4"][1]()
    mods = hr.EXAMPLES["ks4-modules"][1]()
    job = Job(
        "gamma_roundtrip K[S4]",
        h.dim,
        lambda: hr.gamma_roundtrip(h, mods, verify=True),
        _roundtrip_check(h, mods),
    )
    return Plan([job], [])


CYCLIC_ROUNDTRIPS = (5, 7, 8)
PENTAGON_ORDER = 8


def cyclotomic(hr, rng, workdir) -> Plan:
    jobs = []
    for n in CYCLIC_ROUNDTRIPS:
        h = hr.gen_group_algebra(hr.cyclic_group(n))
        z = hr.Scalar.zeta(n)
        # character s sends the generator power t to zeta_n^(s t)
        mods = [
            hr.ModuleRep(1, tuple(hr.Matrix(1, 1, [z ** (s * t % n)]) for t in range(n)), f"chi{s}")
            for s in range(n)
        ]
        jobs.append(
            Job(
                f"gamma_roundtrip K[Z/{n}]",
                n,
                lambda h=h, mods=mods: hr.gamma_roundtrip(h, mods, verify=True),
                _roundtrip_check(h, mods),
            )
        )

    n = PENTAGON_ORDER
    z = hr.Scalar.zeta(n)

    def exponent(a, b, c):
        return a * ((b + c) // n)

    skel = hr.gen_pointed_category(hr.cyclic_group(n), lambda a, b, c: z ** exponent(a, b, c))
    omega = {
        (a, b, c): reference.RootOfUnity(n, exponent(a, b, c))
        for a in range(n)
        for b in range(n)
        for c in range(n)
    }
    bad = reference.cocycle_violations(n, omega, reference.RootOfUnity(n, 0))
    gate = (f"Vec_Z/{n} omega is a cocycle", f"reference finds {bad[:3]}" if bad else None)

    def pentagon_check(rep):
        return None if rep.passed else f"pentagon failed at {[f.index for f in rep.failures][:3]}"

    jobs.append(Job(f"verify_pentagon Vec_Z/{n}^omega", n * n, lambda: hr.verify_pentagon(skel), pentagon_check))
    rng.shuffle(jobs)
    return Plan(jobs, [gate])


# -- CLI corpus ----------------------------------------------------------------

HOPF = ("kz2", "kz2z2", "kz4", "ks3", "ks4", "fun-z2", "fun-s3", "dz2", "ds3")
FUSION = ("vec-z2", "vec-z2-omega", "vec-z4")
FIBERED = (("vec-z2", "vec-z2-fiber"), ("vec-z2", "vec-z2-fiber-iota2"))
# ks4 has modules too, but its round trip is the roundtrip-ks4 workload
MODULED = ("kz2", "kz2z2", "ks3", "fun-z2", "fun-s3", "dz2")


def run_cli(hr, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hr.cli.main(argv)
    return code, buf.getvalue()


def _cli_check(outputs=(), bijective=False):
    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report["passed"] is not True or not all(c["passed"] for c in report["checks"]):
            return "report does not pass"
        if bijective and not any(c["flags"].get("bijective") is True for c in report["checks"]):
            return "round trip did not flag gamma bijective"
        for path in outputs:
            want = EXPECTED["cli_outputs"].get(path.name)
            if not path.exists():
                return f"{path.name} was not written"
            if sha256_file(path) != want:
                return f"{path.name} differs from the recorded output"
        return None

    return check


def cli_corpus(hr, rng, workdir) -> Plan:
    work = Path(workdir)

    def f(name):
        return work / f"{name}.json"

    gates = []
    for name, want in sorted(EXPECTED["examples"].items()):
        code, _ = run_cli(hr, ["--report", "json", "example", name, "-o", str(f(name))])
        ok = code == 0 and sha256_file(f(name)) == want
        gates.append((f"example {name}", None if ok else "payload differs from its golden file"))

    def size(*names):
        return sum(os.path.getsize(f(n)) for n in names)

    def job(name, size_, argv, check, after=None):
        argv = ["--report", "json", *map(str, argv)]
        return Job(name, size_, lambda: run_cli(hr, argv), check, after)

    jobs = []
    for h in HOPF:
        jobs.append(job(f"check-hopf {h}", size(h), ["check-hopf", f(h)], _cli_check()))
    for s in FUSION:
        jobs.append(job(f"check-category {s}", size(s), ["check-category", f(s)], _cli_check()))
    outputs = []
    for s, fib in FIBERED:
        jobs.append(job(f"check-category {s} {fib}", size(s, fib), ["check-category", f(s), f(fib)], _cli_check()))
        out = work / f"reconstruct-{fib}.json"
        outputs.append(out)
        jobs.append(
            job(f"reconstruct {fib}", size(s, fib), ["reconstruct", f(s), f(fib), "-o", out], _cli_check([out]))
        )
    for h in MODULED:
        mods = f"{h}-modules"
        skel, fib, rebuilt = (work / f"repcat-{h}.json", work / f"repcat-{h}.fiber.json", work / f"reconstruct-{h}.json")
        outputs += [skel, fib, rebuilt]
        jobs.append(job(f"repcat {h}", size(h, mods), ["repcat", f(h), f(mods), "-o", skel], _cli_check([skel, fib])))
        jobs.append(
            job(
                f"reconstruct repcat-{h}",
                size(h, mods),
                ["reconstruct", skel, fib, "-o", rebuilt],
                _cli_check([rebuilt]),
                after=f"repcat {h}",
            )
        )
        jobs.append(job(f"roundtrip {h}", size(h, mods), ["roundtrip", f(h), f(mods)], _cli_check(bijective=True)))

    def clear_outputs():
        for path in outputs:
            path.unlink(missing_ok=True)

    return Plan(order_jobs(jobs, rng), gates, clear_outputs)


# -- mutants -------------------------------------------------------------------

# mutants drawn per stratum; strata are (base, structure tensor)
SAMPLE = {
    "ks3/mult": 3,
    "ks3/comult": 14,
    "ks3/antipode": 3,
    "dz2/mult": 2,
    "dz2/comult": 4,
    "dz2/antipode": 2,
    "vec-z4/omega": 20,
}
POINTED_ORDER = 4


@dataclasses.dataclass
class Mutant:
    id: str  # "<base>/<tensor>/<index>"
    size: int
    build: Callable[[], object]  # the mutated hopfrec input
    reference: Callable[[], object]  # what the reference finds violated; falsy if nothing
    run: Callable[[object], list]  # the checkers under test, as a report list


def _rebuilt(hr, name):
    """The Hopf presentation reconstructed from a shipped example's module
    category: dense in the matrix-unit basis, rational."""
    h = hr.EXAMPLES[name][1]()
    mods = hr.EXAMPLES[f"{name}-modules"][1]()
    skel, fiber = hr.skeletalize(h, mods, verify=False)
    return hr.reconstruct_hopf(skel, fiber, verify=False).hopf


def _hopf_mutants(hr, name, base) -> tuple[list, str | None]:
    n = base.dim
    frac = {
        "mult": [[[x.as_fraction() for x in row] for row in plane] for plane in base.alg.mult],
        "comult": [[[x.as_fraction() for x in row] for row in plane] for plane in base.comult],
        "antipode": [[x.as_fraction() for x in row] for row in base.antipode.to_rows()],
    }
    unit = [x.as_fraction() for x in base.alg.unit]
    counit = [x.as_fraction() for x in base.counit]
    base_bad = reference.hopf_violation(frac["mult"], unit, frac["comult"], counit, frac["antipode"])

    def mutate(tensor, index):
        """Copies of the three tensors with one entry raised by 1."""
        tensors = {
            "mult": [[list(row) for row in plane] for plane in frac["mult"]],
            "comult": [[list(row) for row in plane] for plane in frac["comult"]],
            "antipode": [list(row) for row in frac["antipode"]],
        }
        cell = tensors[tensor]
        for i in index[:-1]:
            cell = cell[i]
        cell[index[-1]] += 1
        return tensors

    def build(tensor, index):
        t = mutate(tensor, index)
        sc = hr.sc
        return hr.HopfPresentation(
            hr.AlgebraPresentation(n, [[[sc(x) for x in row] for row in plane] for plane in t["mult"]], base.alg.unit),
            [[[sc(x) for x in row] for row in plane] for plane in t["comult"]],
            base.counit,
            hr.Matrix.from_rows([[sc(x) for x in row] for row in t["antipode"]]),
        )

    def ref(tensor, index):
        t = mutate(tensor, index)
        return reference.hopf_violation(t["mult"], unit, t["comult"], counit, t["antipode"])

    out = []
    for tensor in ("mult", "comult", "antipode"):
        if tensor == "antipode":
            cells = [(i, j) for i in range(n) for j in range(n) if frac[tensor][i][j]]
        else:
            cells = [
                (i, j, k) for i in range(n) for j in range(n) for k in range(n) if frac[tensor][i][j][k]
            ]
        for index in cells:
            out.append(
                Mutant(
                    f"{name}/{tensor}/{'.'.join(map(str, index))}",
                    n,
                    lambda t=tensor, ix=index: build(t, ix),
                    lambda t=tensor, ix=index: ref(t, ix),
                    lambda h: hr.run_hopf_checks(h),
                )
            )
    return out, (f"rebuilt {name} violates {base_bad}" if base_bad else None)


def _omega_mutants(hr) -> list:
    n = POINTED_ORDER
    base = hr.gen_pointed_category(hr.cyclic_group(n))
    ones = {(a, b, c): Fraction(1) for a in range(n) for b in range(n) for c in range(n)}

    def build(triple):
        a, b, c = triple
        F = dict(base.F)
        F[(a, b, c, (a + b + c) % n)] = hr.Matrix(1, 1, [2])
        return dataclasses.replace(base, F=F)

    def ref(triple):
        return reference.cocycle_violations(n, {**ones, triple: Fraction(2)}, Fraction(1))

    # a bump on a unit slot breaks strict units, which FusionSkeleton rejects
    # as malformed input rather than reporting as a pentagon failure
    triples = [(a, b, c) for a in range(1, n) for b in range(1, n) for c in range(1, n)]
    return [
        Mutant(
            f"vec-z{n}/omega/{a}.{b}.{c}",
            n,
            lambda t=(a, b, c): build(t),
            lambda t=(a, b, c): ref(t),
            lambda skel: [hr.verify_pentagon(skel)],
        )
        for a, b, c in triples
    ]


def mutant_population(hr) -> tuple[list, list]:
    """Every single-entry bump the workload samples from, minus those the
    reference shows undetectable (listed in expected.json), and the gates
    on the unmutated bases."""
    mutants, gates = [], []
    for name in ("ks3", "dz2"):
        found, problem = _hopf_mutants(hr, name, _rebuilt(hr, name))
        mutants += found
        gates.append((f"rebuilt {name} is a Hopf algebra", problem))
    mutants += _omega_mutants(hr)
    skip = set(EXPECTED.get("undetectable", ()))
    return [m for m in mutants if m.id not in skip], gates


def _stratum(mutant_id: str) -> str:
    return mutant_id.rpartition("/")[0]


def mutants(hr, rng, workdir) -> Plan:
    population, gates = mutant_population(hr)
    jobs = []
    for stratum, k in SAMPLE.items():
        members = [m for m in population if _stratum(m.id) == stratum]
        for m in rng.sample(members, k):
            gates.append((f"reference detects {m.id}", None if m.reference() else "reference finds no violation"))
            want = EXPECTED["mutants"].get(m.id)
            obj = m.build()

            def check(reports, want=want):
                if all(r.passed for r in reports):
                    return "mutant passed every check"
                if failure_digest(reports) != want:
                    return "failing tuples differ from the recorded list"
                return None

            jobs.append(Job(m.id, m.size, lambda m=m, obj=obj: m.run(obj), check))
    rng.shuffle(jobs)
    return Plan(jobs, gates)


WORKLOADS = {
    "roundtrip-ks4": roundtrip_ks4,
    "cli-corpus": cli_corpus,
    "cyclotomic": cyclotomic,
    "mutants": mutants,
}
