"""Structured pass/fail reports returned by every checker.

A checker never answers with a bare boolean: it returns a CheckReport
listing each failing index tuple together with the two sides of the
identity that disagreed, rendered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Failure:
    check: str
    index: tuple
    lhs: str
    rhs: str

    def line(self) -> str:
        return f"{self.check} at {self.index}: {self.lhs} != {self.rhs}"


@dataclass
class CheckReport:
    name: str
    failures: list[Failure] = field(default_factory=list)
    flags: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def add(self, check: str, index: tuple, lhs, rhs) -> None:
        self.failures.append(Failure(check, index, str(lhs), str(rhs)))

    def lines(self) -> list[str]:
        out = [f"{self.name}: {'pass' if self.passed else f'FAIL ({len(self.failures)} failing tuples)'}"]
        out.extend("  " + f.line() for f in self.failures)
        out.extend(f"  flag {k} = {v}" for k, v in self.flags.items())
        return out

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failures": [
                {"check": f.check, "index": list(f.index), "lhs": f.lhs, "rhs": f.rhs}
                for f in self.failures
            ],
            "flags": dict(self.flags),
        }
