"""Check reports: named residuals against tolerances, plus free-form
derived quantities and notes. One shape serves both axiom verification and
the demo scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, residual: float, tolerance: float) -> CheckResult:
        c = CheckResult(name=name, residual=float(residual),
                        tolerance=float(tolerance))
        self.checks.append(c)
        return c

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]
