"""Model checkers: exhaustive explicit-state (fixed parameters) and
schema-based parameterized checking (the ByMC substitute).

Both return the result types of :mod:`repro.checker.result`:
a :class:`QueryOutcome` per query (with a :class:`CounterexampleData`
witness when violated) and an :class:`ObligationOutcome` per bundle.
"""

from repro.checker.explicit import ExplicitChecker
from repro.checker.result import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    CounterexampleData,
    ObligationOutcome,
    QueryOutcome,
)

__all__ = [
    "CounterexampleData",
    "ExplicitChecker",
    "HOLDS",
    "ObligationOutcome",
    "QueryOutcome",
    "UNKNOWN",
    "VIOLATED",
]
