"""Verification-as-a-service: a daemon over the warm supervised pool.

The package splits along the process boundary:

* :mod:`repro.service.server` — the daemon
  (:class:`VerificationService`, :func:`serve`): one persistent
  :class:`~repro.supervisor.SupervisedPool` whose warm state
  survives across HTTP requests, streaming NDJSON results as tasks
  complete;
* :mod:`repro.service.registry` — the daemon's bookkeeping: in-flight
  dedup (:class:`TaskRegistry`), the name and header of the durable
  completion log a restarted daemon resumes from, and the state-file
  breadcrumb ``harness cache info`` reports;
* :mod:`repro.service.client` — the stdlib-only thin client
  (:class:`ServiceClient`) that rebuilds local-identical
  :class:`~repro.api.report.RunReport` objects from the stream
  (``harness verify|sweep --server URL``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.registry import (
    SERVICE_JOURNAL_NAME,
    SERVICE_STATE_NAME,
    TaskRegistry,
    read_state_file,
)
from repro.service.server import VerificationService, serve

__all__ = [
    "SERVICE_JOURNAL_NAME",
    "SERVICE_STATE_NAME",
    "ServiceClient",
    "ServiceError",
    "TaskRegistry",
    "VerificationService",
    "read_state_file",
    "serve",
]
