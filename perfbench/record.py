"""Write expected.json: the recorded outputs the benchmark's gates compare
against.

    python3 perfbench/record.py

Records, from the commit it runs on: the sha256 of each shipped example's
golden file under tests/golden; the sha256 of every file the CLI corpus's
repcat and reconstruct jobs write; and, for every single-entry mutant, the
digest of hopfrec's failing-tuple list, or the mutant's id under
"undetectable" when the independent reference finds every axiom still
holding.  Rerun only on purpose: the gates exist to catch changes in these.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    hr = run.import_hopfrec()
    expected = workloads.EXPECTED
    expected.clear()
    expected["examples"] = {
        name: workloads.sha256_file(ROOT / "tests" / "golden" / f"{name}.json")
        for name in sorted(hr.EXAMPLES)
    }

    with tempfile.TemporaryDirectory() as tmp:
        expected["cli_outputs"] = {}
        plan = workloads.cli_corpus(hr, random.Random(0), tmp)
        bad = [label for label, problem in plan.gates if problem]
        if bad:
            raise SystemExit(f"examples differ from their golden files: {bad}")
        for job in plan.jobs:
            code, _ = job.call()
            if code != 0:
                raise SystemExit(f"{job.name} exited {code}")
        expected["cli_outputs"] = {
            p.name: workloads.sha256_file(p)
            for p in sorted(Path(tmp).iterdir())
            if p.name.startswith(("repcat-", "reconstruct-"))
        }

    expected["undetectable"] = []
    expected["mutants"] = {}
    population, gates = workloads.mutant_population(hr)
    bad = [f"{label}: {problem}" for label, problem in gates if problem]
    if bad:
        raise SystemExit(f"mutant bases fail the reference: {bad}")
    for m in population:
        if not m.reference():
            expected["undetectable"].append(m.id)
            continue
        expected["mutants"][m.id] = workloads.failure_digest(m.run(m.build()))

    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(
        f"recorded {len(expected['examples'])} examples, {len(expected['cli_outputs'])} CLI outputs, "
        f"{len(expected['mutants'])} mutants; undetectable: {expected['undetectable']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
