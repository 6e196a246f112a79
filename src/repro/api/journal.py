"""The sweep journal: resume an interrupted sweep where it died.

The sweep supervisor appends one :class:`JournalRecord` per
*completed* task (the full :class:`~repro.api.report.TaskResult`
payload plus its attempt count), and a ``resume=True`` run serves
journaled results verbatim, re-executing only tasks with no (or only
*error*) records.  The :class:`~repro.api.sweep.ResultCache` already
persists *cacheable* results; the journal also covers what the cache
refuses to hold (error results, ``max_seconds`` trips, custom-model
tasks).  Records are keyed by input index against an identical task
list, so a resumed report stays input-ordered and bit-identical to an
uninterrupted run.

:class:`Journal` owns the file mechanics.  Line 1 is the header
``{"digest", "format", "magic", "version"}``: the sweep's
:func:`sweep_digest`, the file format, :data:`SWEEP_JOURNAL_MAGIC` and
the code version.  A file whose header is not *exactly* this one (a
different sweep, code version or file kind) is truncated to a fresh
header on load — a stale journal must never leak results into other
work.  Each following line is one JSON object.  A torn final line (the
writer died mid-append) or a garbage line is skipped.
:func:`replayable_records` takes the last record per index and drops
error results — resume exists to finish work, not to pin its
failures.

Journaling is best-effort, like the caches: an unreadable or
unwritable file costs resumability, never the sweep.  Each swallowed
``OSError`` is logged as one ``journal.*`` warning on this module's
logger (quiet unless the application configures logging).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.version import stable_digest

__all__ = [
    "Journal",
    "JournalRecord",
    "SWEEP_JOURNAL_MAGIC",
    "replayable_records",
    "sweep_digest",
]

logger = logging.getLogger(__name__)

#: ``format`` of the journal header.
_FORMAT = 1
#: ``magic`` of the journal header.
SWEEP_JOURNAL_MAGIC = "repro-sweep-journal"


def sweep_digest(tasks: Sequence, version: str) -> str:
    """Fingerprint a sweep: the ordered task identities + code version.

    Uses each task's :attr:`~repro.api.task.VerificationTask.journal_key`
    (task id + resource limits), so editing *any* task of the sweep —
    or reordering them — invalidates old journals, while re-invoking
    the same sweep command reuses them.
    """
    return stable_digest(json.dumps(
        {"tasks": [task.journal_key for task in tasks], "version": version},
        sort_keys=True,
    ))


@dataclass(frozen=True)
class JournalRecord:
    """One completed sweep task (``result`` is a to_dict payload)."""

    index: int
    key: str
    result: dict
    attempts: int = 1
    timed_out: bool = False

    @property
    def is_error(self) -> bool:
        return bool(self.result.get("error"))

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "result": self.result,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> Optional["JournalRecord"]:
        """The record a journal line holds, or None if it is malformed."""
        try:
            return cls(
                index=int(payload["index"]),
                key=str(payload["key"]),
                result=dict(payload["result"]),
                attempts=int(payload.get("attempts", 1)),
                timed_out=bool(payload.get("timed_out", False)),
            )
        except (ValueError, KeyError, TypeError):
            return None


def replayable_records(lines: Iterable[dict]) -> Dict[int, JournalRecord]:
    """The sweep's replay rule: the last clean record per index wins.

    Malformed records are skipped and error records never replay, so
    their tasks re-execute on resume.
    """
    records: Dict[int, JournalRecord] = {}
    for line in lines:
        record = JournalRecord.from_dict(line)
        if record is not None and not record.is_error:
            records[record.index] = record
    return records


class Journal:
    """One journal file (see the module doc).

    Usage: construct with the path, the sweep's digest and the code
    version, call :meth:`load` once (``resume=False`` truncates;
    otherwise it returns the records of a matching file, oldest
    first), then :meth:`append` each completion and :meth:`close` at
    the end.
    """

    def __init__(self, path, digest: str, version: str):
        self.path = Path(path)
        self.header = {"digest": digest, "format": _FORMAT,
                       "magic": SWEEP_JOURNAL_MAGIC, "version": version}
        self._handle = None

    # -- reading -------------------------------------------------------
    def load(self, resume: bool = True) -> List[dict]:
        """Records of a matching journal; prepares for appending.

        Without ``resume``, or when the existing file's header is not
        this journal's, the file is discarded and a fresh one started.
        """
        lines: List[str] = []
        if resume and self.path.exists():
            try:
                lines = self.path.read_text(encoding="utf-8").splitlines()
            except OSError as exc:
                self._warn("journal.read_error", "journal unreadable; "
                           "starting a fresh one", exc)
        if lines and _parse(lines[0]) == self.header:
            self._open("a")
            return [record for record in map(_parse, lines[1:])
                    if isinstance(record, dict)]
        self._open("w")
        return []

    # -- writing -------------------------------------------------------
    def _open(self, mode: str) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, mode, encoding="utf-8")
            if mode == "w":
                self._handle.write(_line(self.header))
                self._handle.flush()
        except OSError as exc:
            self._handle = None
            self._warn("journal.open_error", "journal unwritable; "
                       "continuing without it", exc)

    def append(self, record: dict) -> None:
        """Persist one record (best-effort, crash-tolerant).

        Flushed to the OS per record — that survives the failure mode
        resume exists for (the process dying); a per-record ``fsync``
        would tax every task for machine-crash durability the journal
        doesn't promise (a torn tail is tolerated on load).
        """
        if self._handle is None:
            return
        try:
            self._handle.write(_line(record))
            self._handle.flush()
        except (OSError, ValueError) as exc:
            self._warn("journal.append_error", "journal append "
                       "failed; record lost", exc)

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            self._handle.close()
        except OSError as exc:
            self._warn("journal.close_error", "journal close failed", exc)
        self._handle = None

    def _warn(self, event: str, message: str, exc: BaseException) -> None:
        logger.warning(
            message,
            extra={
                "event": event,
                "journal": str(self.path),
                "error": repr(exc),
            },
        )


def _line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _parse(line: str):
    try:
        return json.loads(line)
    except ValueError:
        return None  # torn/corrupt line — exactly what resume tolerates
