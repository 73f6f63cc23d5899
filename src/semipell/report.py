"""Uniform pass/fail reporting for identity and congruence sweeps.

Every checker walks a finite family of instances, compares an observed
value against an expected one, and returns a CongruenceReport.  A report
never raises on failure; callers decide whether a violation is fatal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# (instance label, observed value, expected value)
Violation = Tuple[str, int, int]


class CongruenceReport:
    def __init__(self, family: str, params: Dict[str, int]) -> None:
        self.family = family
        self.params = params
        self.checked = 0
        self.violations: List[Violation] = []

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, label: str, observed: int, expected: int) -> None:
        """Count one instance, remembering it if observed != expected."""
        self.checked += 1
        if observed != expected:
            self.violations.append((label, observed, expected))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.family} checked={self.checked}"

    def lines(self) -> List[str]:
        out = [self.summary()]
        for label, observed, expected in self.violations:
            out.append(f"  violation {label}: observed={observed} expected={expected}")
        return out
