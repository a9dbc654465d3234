"""Baseline isolation testers.

The paper's evaluation (Section 5) compares AWDIT against every weak
isolation tester from recent literature.  Those tools are Java / Rust /
Datalog / MonoSAT artifacts; this package reimplements each of them in Python
at the published algorithmic approach and complexity class, so the relative
performance picture of the paper (Figs. 7-8) can be reproduced:

* :mod:`repro.baselines.naive` -- direct-from-definition reference checkers
  (explicit saturation), used as correctness oracles in the test suite.
* :mod:`repro.baselines.plume` -- a Plume-like checker: exhaustive
  Transactional-Anomalous-Pattern search over per-key writer indexes with
  vector clocks (polynomial, but a higher degree than AWDIT).
* :mod:`repro.baselines.dbcop` -- a DBCop-like CC checker: repeated
  transitive-closure saturation to a fixpoint (roughly cubic).
* :mod:`repro.baselines.causalc` -- a CausalC+-like CC checker built on a
  small semi-naive Datalog engine (:mod:`repro.baselines.datalog`).
* :mod:`repro.baselines.sat` -- a mini DPLL SAT solver plus SAT-based
  checkers: a TCC-Mono-like CC checker (SAT with a lazily-enforced
  acyclicity theory), a PolySI-like Snapshot Isolation checker, and a
  Serializability checker.

Every baseline exposes a ``check_*`` function returning the same
:class:`~repro.core.result.CheckResult` type as the AWDIT checkers, and
:data:`BASELINE_REGISTRY` maps tester names to callables for the benchmark
harness and the CLI.  Importing this package loads no checker: the
``check_*`` names resolve on first access, and a registry entry imports its
checker's module on its first call, so the CLI can list the testers without
paying for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro._lazy import lazy_exports
from repro.core.isolation import IsolationLevel

if TYPE_CHECKING:
    from repro.core.model import History
    from repro.core.result import CheckResult

#: Public checker name -> the submodule that defines it.
_CHECKERS = {
    "check_naive": "naive",
    "check_plume": "plume",
    "check_cc_dbcop": "dbcop",
    "check_cc_causalc": "causalc",
    "check_cc_monosat": "sat.monosat",
    "check_si_polysi": "sat.polysi",
    "check_serializability": "sat.serializable",
}

__all__ = [*_CHECKERS, "BASELINE_REGISTRY"]

__getattr__, __dir__ = lazy_exports(
    __name__, {name: f"{__name__}.{module}" for name, module in _CHECKERS.items()}
)


def _tester(name: str, takes_level: bool) -> Callable[..., CheckResult]:
    """A registry entry that imports the checker ``name`` on its first call."""

    def run(
        history: History, level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY
    ) -> CheckResult:
        checker = __getattr__(name)
        return checker(history, level) if takes_level else checker(history)

    return run


#: Tester name -> callable(history, level) -> CheckResult.  Testers that only
#: support CC ignore the requested level and always check CC (matching the
#: behaviour described in Section 5.2: "Causal+ and TCC-Mono run at CC by
#: default, while PolySI runs at SI").
BASELINE_REGISTRY: Dict[str, Callable[[History, IsolationLevel], CheckResult]] = {
    "naive": _tester("check_naive", True),
    "plume": _tester("check_plume", True),
    "dbcop": _tester("check_cc_dbcop", False),
    "causalc+": _tester("check_cc_causalc", False),
    "tcc-mono": _tester("check_cc_monosat", False),
    "polysi": _tester("check_si_polysi", False),
}
