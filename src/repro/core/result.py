"""Check results returned by the isolation checkers.

A :class:`CheckResult` bundles the verdict (consistent or not), the list of
violation witnesses (Section 3.4), and a few statistics that the benchmark
harness and the CLI report (inferred commit edges, elapsed wall-clock time,
history size).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.core.isolation import IsolationLevel
    from repro.core.violations import Violation, ViolationKind

__all__ = ["CheckResult", "Stopwatch"]

#: The fields of a :class:`CheckResult`, in constructor order.
_FIELDS = (
    "level",
    "violations",
    "checker",
    "elapsed_seconds",
    "num_operations",
    "num_transactions",
    "num_sessions",
    "stats",
)


class CheckResult:
    """The outcome of checking one history against one isolation level.

    A plain class with a dataclass's constructor, equality and ``repr``:
    every check returns one, and a dataclass would import :mod:`dataclasses`
    (and :mod:`inspect` with it) into every ``awdit check`` process.
    """

    def __init__(
        self,
        level: IsolationLevel,
        violations: Optional[List[Violation]] = None,
        checker: str = "awdit",
        elapsed_seconds: float = 0.0,
        num_operations: int = 0,
        num_transactions: int = 0,
        num_sessions: int = 0,
        stats: Optional[Dict[str, float]] = None,
    ) -> None:
        self.level = level
        self.violations: List[Violation] = [] if violations is None else violations
        self.checker = checker
        self.elapsed_seconds = elapsed_seconds
        self.num_operations = num_operations
        self.num_transactions = num_transactions
        self.num_sessions = num_sessions
        self.stats: Dict[str, float] = {} if stats is None else stats

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _FIELDS)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"{self.__class__.__qualname__}({fields})"

    @property
    def is_consistent(self) -> bool:
        """True when no violation was found (the history satisfies the level)."""
        return not self.violations

    def violations_of_kind(self, kind: ViolationKind) -> List[Violation]:
        """All reported violations of a given kind."""
        return [v for v in self.violations if v.kind is kind]

    def violation_kinds(self) -> List[ViolationKind]:
        """The distinct kinds of violations reported, in first-seen order."""
        seen: List[ViolationKind] = []
        for violation in self.violations:
            if violation.kind not in seen:
                seen.append(violation.kind)
        return seen

    def summary(self) -> str:
        """One-line verdict suitable for CLI output and benchmark logs."""
        verdict = "CONSISTENT" if self.is_consistent else "VIOLATION"
        detail = ""
        if not self.is_consistent:
            kinds = ", ".join(str(kind) for kind in self.violation_kinds())
            detail = f" ({kinds})"
        return (
            f"[{self.checker}] {self.level.short_name}: {verdict}{detail} "
            f"in {self.elapsed_seconds * 1000:.2f} ms "
            f"({self.num_transactions} txns, {self.num_operations} ops, "
            f"{self.num_sessions} sessions)"
        )

    def describe_violations(self, limit: Optional[int] = 10) -> str:
        """Multi-line description of the violation witnesses."""
        lines: List[str] = []
        shown = self.violations if limit is None else self.violations[:limit]
        for violation in shown:
            lines.append(f"  - {violation.describe()}")
        hidden = len(self.violations) - len(shown)
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)


class Stopwatch:
    """Tiny helper to time checker phases with ``perf_counter``."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self.laps: Dict[str, float] = {}

    def lap(self, name: str) -> float:
        """Record the elapsed time since the last lap under ``name``."""
        now = time.perf_counter()
        elapsed = now - self._start
        self.laps[name] = self.laps.get(name, 0.0) + elapsed
        self._start = now
        return elapsed

    @property
    def total(self) -> float:
        """Total time accumulated across all laps."""
        return sum(self.laps.values())
