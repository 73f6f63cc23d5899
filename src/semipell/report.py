"""Uniform pass/fail reporting for identity and congruence sweeps.

Every checker walks a finite family of instances, compares an observed
value against an expected one, and returns a CongruenceReport.  A report
never raises on failure; callers decide whether a violation is fatal.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

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

    def record_all(self, observed: Sequence[int], expected: Sequence[int], label: Callable[[int], str]) -> None:
        """Count every instance of a batch: observed[i] against expected[i].

        The batch is compared in one pass; label(i) names instance i and is
        called only for a violation, which keeps the order of the batch.
        """
        if len(observed) != len(expected):
            raise ValueError(f"batch of {len(observed)} observed against {len(expected)} expected")
        self.checked += len(observed)
        if observed != expected:
            self.violations += [
                (label(i), seen, want) for i, (seen, want) in enumerate(zip(observed, expected)) if seen != want
            ]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.family} checked={self.checked}"

    def lines(self) -> List[str]:
        out = [self.summary()]
        for label, observed, expected in self.violations:
            out.append(f"  violation {label}: observed={observed} expected={expected}")
        return out
