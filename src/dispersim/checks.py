"""Pass/fail records produced by the invariant suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    limit: float

    @classmethod
    def below(cls, name: str, observed: float, limit: float) -> "CheckResult":
        """The check that ``observed`` lies strictly below ``limit``."""
        return cls(name, observed < limit, observed, limit)

    @classmethod
    def attains(cls, name: str, observed: float, target: float, rtol: float) -> "CheckResult":
        """The check that ``observed`` equals ``target`` to ``rtol`` relative."""
        return cls(name, abs(observed - target) <= rtol * target, observed, target)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: observed {self.observed:.3e}"
            f" (limit {self.limit:.3e})"
        )
