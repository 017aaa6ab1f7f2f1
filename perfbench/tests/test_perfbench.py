"""The benchmark's own checks.  From the repository root:

    python3 -m pytest perfbench/tests

The smoke test runs the K[S4] round trip, about 70 s on a 2-core machine.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_smallest_job_passes_its_gate(workload):
    out = run.run(workload, seed=1, seconds=0, trace=False, smoke=True)
    res = out["result"]
    assert res["correct"], out["notes"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert res["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_planted_wrong_verdict_raises_failed_frac():
    def plant(hr):
        hr.run_hopf_checks = lambda h: []  # every Hopf mutant now passes

    res = run.run("mutants", seed=1, seconds=0, trace=False, patch=plant)["result"]
    planted = sum(k for stratum, k in workloads.SAMPLE.items() if not stratum.startswith("vec-"))
    assert not res["correct"]
    assert res["failed"] == planted
    assert res["metrics"]["ok_frac"]["value"] == 1 - planted / res["attempted"]


def _traced(workload, seed):
    res = run.run(workload, seed=seed, seconds=0, trace=True)["result"]
    assert res["correct"]
    doc = json.loads((run.OUT / f"trace-{workload}-{seed}.json").read_text())
    return res["metrics"], doc["spans"]


def test_self_times_sum_to_traced_wall():
    metrics, recorded = _traced("mutants", 3)
    tracer = spans.Tracer()
    tracer.spans = recorded
    own = tracer.self_times()
    resolution = max(time.get_clock_info("perf_counter").resolution, 1e-9)
    tolerance = len(recorded) * resolution
    assert min(own) > -tolerance

    (wall,) = [end - start for name, start, end, _parent in recorded if name == "bench.pass"]
    in_pass = []
    for name, _start, _end, parent in recorded:
        in_pass.append(name == "bench.pass" or (parent >= 0 and in_pass[parent]))
    total = sum(s for s, inside in zip(own, in_pass) if inside)
    assert abs(total - wall) <= tolerance
    assert metrics["reports.failures"]["value"] > 0


def test_traced_counts_repeat_exactly():
    first, _ = _traced("mutants", 4)
    second, _ = _traced("mutants", 4)
    exact = [
        name
        for name, unit in spans.PER_LAYER
        if unit in ("count", "B") or name.endswith("_frac")
    ]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
