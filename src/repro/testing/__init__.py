"""Test-support machinery that ships with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection layer
behind the chaos suite: a seeded, picklable
:class:`~repro.testing.faults.FaultPlan` installed in sweep workers via
the pool initializer can kill a worker as it picks up a task, hang a
task past the supervisor timeout, inject ``OSError``/delays into
:class:`~repro.counter.store.GraphStore` / :class:`~repro.api.sweep.
ResultCache` I/O, and corrupt a graph snapshot's checksummed body.

It lives under ``src`` (not ``tests/``) because the hooks it drives are
compiled into the production I/O paths — a plan must be importable by
pool workers wherever the package is installed — and because operators
can use it to rehearse failure drills against a real deployment.  With
no plan installed every hook is a no-op costing one module-global
``None`` check.
"""

from repro.testing.faults import FaultPlan, FaultRule

__all__ = ["FaultPlan", "FaultRule"]
