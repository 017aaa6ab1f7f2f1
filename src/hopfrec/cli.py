"""Command line surface: verification, reconstruction and round-trip
pipelines over the JSON payload files, with text or JSON reports.

Exit codes: 0 when every check passes, 1 when some axiom or identity
fails (the report names it), 2 for malformed input (syntax, schema, or a
payload of the wrong kind) and for an output file that cannot be
written.  Reports list every failing tuple; nothing is truncated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

from . import serialize
from .errors import (
    HopfrecError,
    ParseError,
    ReconstructionAxiomFailure,
    SchemaError,
    ShapeError,
    SkeletalizationFailure,
)
from .examples import EXAMPLES
from .fusion import verify_category
from .hopf import run_hopf_checks
from .reconstruct import reconstruct_hopf, zeta_modules
from .repcat import _roundtrip, _skeletalize, verify_irreps
from .reports import CheckReport


class _InputError(Exception):
    """Wrapper for anything that makes an input file unusable (exit 2)."""


def _load(path: str, kind: str):
    try:
        return serialize.load(path, kind)
    except (OSError, ParseError, SchemaError, ShapeError) as e:
        raise _InputError(f"{path}: {e}") from None


def _load_modules(args):
    """The hopf payload and module family of args, which fit each other
    when every module has one action matrix per algebra basis element."""
    h, mods = _load(args.hopf, "hopf").obj, _load(args.modules, "modules").obj
    for idx, v in enumerate(mods):
        if len(v.action) != h.dim:
            raise _InputError(f"{args.modules}: module {idx} has {len(v.action)} action matrices for dim {h.dim}")
    return h, mods


def _fiber_out_path(path: str) -> str:
    if path.endswith(".json"):
        return path[: -len(".json")] + ".fiber.json"
    return path + ".fiber"


def _failure_report(name: str, message: str) -> CheckReport:
    rep = CheckReport(name)
    rep.add(name, (), message, "")
    return rep


def _verified_category(skel, fiber) -> list:
    """verify_category's reports; a raised HopfrecError becomes a failing
    report, except a ShapeError: then the two files are individually valid
    but do not fit each other, which is unusable input."""
    try:
        return verify_category(skel, fiber)
    except ShapeError as e:
        raise _InputError(str(e)) from None
    except HopfrecError as e:
        return [_failure_report(type(e).__name__, str(e))]


# -- subcommand handlers: each returns (reports, payload) --------------------

def _cmd_check_hopf(args):
    h = _load(args.file, "hopf").obj
    return run_hopf_checks(h), {}


def _cmd_check_category(args):
    skel = _load(args.fusion, "fusion").obj
    fiber = _load(args.fiber, "fiber").obj if args.fiber else None
    return _verified_category(skel, fiber), {}


def _cmd_reconstruct(args):
    skel = _load(args.fusion, "fusion").obj
    fiber = _load(args.fiber, "fiber").obj
    reports = _verified_category(skel, fiber)
    if any(not r.passed for r in reports):
        return reports, {}
    recon = reconstruct_hopf(skel, fiber, verify=False)
    reports.extend(run_hopf_checks(recon.hopf))
    if not all(r.passed for r in reports):
        return reports, {"dim": recon.hopf.dim}
    serialize.save(args.out, recon.hopf, basis=recon.basis)
    return reports, {"dim": recon.hopf.dim, "written": args.out}


def _cmd_repcat(args):
    h, mods = _load_modules(args)
    rep = verify_irreps(h.alg, mods)
    if not rep.passed:
        return [rep], {}
    try:
        skel, fiber = _skeletalize(h, mods)
    except HopfrecError as e:
        return [rep, _failure_report(type(e).__name__, str(e))], {}
    reports = [rep] + verify_category(skel, fiber)
    if all(r.passed for r in reports):
        fiber_path = _fiber_out_path(args.out)
        serialize.save(args.out, skel)
        try:
            serialize.save(fiber_path, fiber)
        except OSError:  # write both files or neither
            os.remove(args.out)
            raise
        return reports, {"written": args.out, "written_fiber": fiber_path}
    return reports, {}


def _cmd_roundtrip(args):
    h, mods = _load_modules(args)
    try:
        rep, gamma, recon = _roundtrip(h, mods)
    except HopfrecError as e:
        reports = [_failure_report(type(e).__name__, str(e))]
        if isinstance(e, ReconstructionAxiomFailure):
            reports += e.reports
        elif isinstance(e, SkeletalizationFailure) and e.report is not None:
            reports.append(e.report)
        return reports, {}
    payload = {"gamma": serialize.format_matrix(gamma)}
    # rep is gamma's Hopf-morphism report: the antipode law decided, the other
    # four laws and bijectivity certified by the gate (a family that fails it
    # raised SkeletalizationFailure above).  The rebuilt family's report is
    # not free: after a warm K[S4] round trip of 0.12-0.14 s it takes 29-35
    # ms, and 2 ms on K[S3] (best of 5 in each of two rounds, one 2-core
    # machine)
    zrep = verify_irreps(recon.hopf.alg, zeta_modules(recon))
    zrep.name = "rebuilt-irreps"
    return [rep, zrep], payload


def _cmd_example(args):
    kind, builder = EXAMPLES[args.name]
    serialize.save(args.out, builder())
    return [], {"written": args.out, "payload_kind": kind}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It binds the handlers; each
    handler looks up the names it calls when it runs."""
    p = argparse.ArgumentParser(
        prog="hopfrec",
        description="Exact checkers and reconstruction for Hopf algebra and fusion category data.",
    )
    p.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="report format on standard output (default: text)",
    )
    # --report is also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("text", "json"), default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser(
        "check-hopf", parents=[common], help="verify every Hopf axiom of a hopf payload"
    )
    q.add_argument("file")
    q.set_defaults(handler=_cmd_check_hopf)

    q = sub.add_parser(
        "check-category",
        parents=[common],
        help="verify pentagon coherence, and with a fiber file the tensor structure and duality",
    )
    q.add_argument("fusion")
    q.add_argument("fiber", nargs="?", default=None)
    q.set_defaults(handler=_cmd_check_category)

    q = sub.add_parser(
        "reconstruct",
        parents=[common],
        help="rebuild the Hopf algebra of a verified (fusion, fiber) pair and write it out",
    )
    q.add_argument("fusion")
    q.add_argument("fiber")
    q.add_argument("-o", "--out", required=True)
    q.set_defaults(handler=_cmd_reconstruct)

    q = sub.add_parser(
        "repcat",
        parents=[common],
        help="skeletalize the module category of a hopf payload over a verified module family; "
        "writes the fusion payload to OUT and the fiber payload next to it (.fiber.json)",
    )
    q.add_argument("hopf")
    q.add_argument("modules")
    q.add_argument("-o", "--out", required=True)
    q.set_defaults(handler=_cmd_repcat)

    q = sub.add_parser(
        "roundtrip",
        parents=[common],
        help="skeletalize, reconstruct, and certify the evaluation isomorphism",
    )
    q.add_argument("hopf")
    q.add_argument("modules")
    q.set_defaults(handler=_cmd_roundtrip)

    q = sub.add_parser("example", parents=[common], help="write a built-in example payload")
    q.add_argument("name", choices=sorted(EXAMPLES))
    q.add_argument("-o", "--out", required=True)
    q.set_defaults(handler=_cmd_example)

    return p


def _render_text(report: dict, reports: list) -> str:
    lines = [f"command: {report['command']}"]
    for r in reports:
        lines += r.lines()
    for k, v in report.items():
        if k in ("command", "checks", "passed", "elapsed", "gamma"):
            continue
        lines.append(f"{k}: {v}")
    lines.append(f"result: {'pass' if report['passed'] else 'FAIL'} ({report['elapsed']:.3f}s)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        reports, payload = args.handler(args)
    except (_InputError, OSError) as e:  # _load wraps its OSErrors: these are from serialize.save
        print(f"error: {e}", file=sys.stderr)
        return 2
    passed = all(r.passed for r in reports)
    out = {
        "command": args.command,
        "passed": passed,
        "elapsed": round(time.monotonic() - t0, 6),
        "checks": [r.as_dict() for r in reports],
    }
    out.update(payload)
    if args.report == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        print(_render_text(out, reports))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
