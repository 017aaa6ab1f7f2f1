"""Benchmark of hopfrec: time to a checked verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the src/hopfrec package next
to this directory.  Load is a closed loop: one caller, one process, no
threads; each job starts after the previous verdict.  A run sets up
SETUPS times (import hopfrec, generate the inputs), then repeats passes
over the workload's jobs until S seconds have gone, at least once.  Every
verdict goes through its workload's gate; a wrong one counts as failed.

Times are reported in seconds at a reference machine speed (see speed.py):
wall_s is the median pass, job_s.p50 and job_s.tail the median and the
highest percentile with ten jobs beyond it of the jobs' times, each job's
time being its median over the passes; setup_s is the median setup.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the run sets up once, makes one pass
with every layer wrapped (see spans.py), writes the spans to
perfbench/out/trace-<workload>-<seed>.json, prints the stage split, and
reports the per-layer metrics instead.  Exits 2 without a result when the
hopfrec sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
JOB_LIMIT_S = 150


def import_hopfrec():
    """A fresh import of the package, so every setup pays for it."""
    for name in [n for n in sys.modules if n == "hopfrec" or n.startswith("hopfrec.")]:
        del sys.modules[name]
    importlib.import_module("hopfrec.cli")
    return sys.modules["hopfrec"]


def run_job(job, sampler) -> tuple:
    """Marks around the call, and why the verdict is wrong (None if right)."""
    a = sampler.mark()
    sampler.deadline = a.t + JOB_LIMIT_S
    try:
        out = job.call()
    except speed.Deadline:
        return a, sampler.mark(), f"no verdict within {JOB_LIMIT_S}s"
    except Exception as e:  # any raise is a failed job, reported by name
        return a, sampler.mark(), f"raised {type(e).__name__}: {e}"
    finally:
        sampler.deadline = None
    b = sampler.mark()
    try:
        return a, b, job.check(out)
    except Exception as e:
        return a, b, f"gate raised {type(e).__name__}: {e}"


def tail(times: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (seconds, percentile); the maximum when there are ten samples or fewer."""
    s = sorted(times)
    if len(s) > 10:
        k = len(s) - 11
        return s[k], 100.0 * (k + 1) / len(s)
    return s[-1], 100.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, patch=None) -> dict:
    """One benchmark run.  `smoke` keeps only the smallest job and makes one
    pass; `patch(hr)` is applied after each import (tests plant faults)."""
    build = workloads.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    tracer = spans.Tracer() if trace else None
    sampler = speed.Sampler()
    setups, gates, passes = [], [], []  # passes: (start, end, [(job start, job end)])
    problems = []
    sampler.start()
    try:
        for _ in range(1 if trace else SETUPS):
            a = sampler.mark()
            hr = import_hopfrec()
            if patch is not None:
                patch(hr)
            if tracer is not None:
                tracer.install()
            with tracer.span("bench.setup") if tracer else nullcontext():
                plan = build(hr, random.Random(seed), workdir)
            setups.append((a, sampler.mark()))
            gates += plan.gates

        jobs = [min(plan.jobs, key=lambda j: j.size)] if smoke else plan.jobs
        problems = [f"{label}: {p}" for label, p in gates if p]
        attempted = len(gates)
        start = time.perf_counter()
        while True:
            plan.before_pass()
            marks = []
            a = sampler.mark()
            with tracer.span("bench.pass") if tracer else nullcontext():
                for job in jobs:
                    with tracer.span("bench.job") if tracer else nullcontext():
                        ja, jb, problem = run_job(job, sampler)
                    marks.append((ja, jb))
                    attempted += 1
                    if problem:
                        problems.append(f"{job.name}: {problem}")
            passes.append((a, sampler.mark(), marks))
            if trace or smoke or time.perf_counter() - start >= seconds:
                break
        time.sleep(2 * speed.WINDOW_S)  # speed samples after the last verdict
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [sampler.seconds(a, b) for a, b, _ in passes]
    # each job's time is its median over the passes, so jobs, not passes,
    # are the samples of the median and the tail
    times = [
        statistics.median(sampler.seconds(*marks[i]) for _, _, marks in passes)
        for i in range(len(jobs))
    ]
    tail_s, tail_pct = tail(times)
    failed = len(problems)
    notes = [f"FAILED {p}" for p in problems]
    notes.append(
        f"{len(passes)} passes of {len(jobs)} jobs, raw walls "
        f"{[round(b.t - a.t, 3) for a, b, _ in passes]}s, at reference speed {[round(w, 3) for w in walls]}s; "
        f"job_s.tail is the p{tail_pct:.1f} of {len(jobs)} job times, each the median over passes"
    )
    if tracer is not None:
        path = OUT / f"trace-{workload}-{seed}.json"
        tracer.dump(path)
        notes.append(f"spans written to {path.relative_to(HERE.parent)}")
        notes += [f"stage {secs:10.4f}s {n:6d}x  {p}" for p, n, secs in tracer.stage_split()]
        metrics = tracer.layer_metrics(traced_wall_s=walls[0])
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_s.p50": {"value": statistics.median(times), "unit": "s"},
            "job_s.tail": {"value": tail_s, "unit": "s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(sampler.seconds(a, b) for a, b in setups), "unit": "s"},
        }
    return {
        "notes": notes,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hopfrec" / "__init__.py").is_file():
        print(f"error: no hopfrec sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["notes"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
