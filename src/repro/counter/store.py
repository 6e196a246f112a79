"""Persistent cross-process state-graph store for the counter engine.

PR 3 made the in-process caches shareable: one compiled
:class:`~repro.counter.program.ProtocolProgram` per model structure and
one bound :class:`~repro.counter.system.CounterSystem` per valuation,
kept warm across checkers.  This module extends that sharing across
*processes* and across *valuations*:

* :class:`InternTable` — one configuration intern table per compiled
  program, shared by **all** valuations of a protocol.  ``Config``
  tuples are valuation-independent (the flat layout is a property of
  the structure), so interning happens once per structure: two
  valuations that reach the same configuration intern to the same
  object, and cross-valuation sweeps stop re-canonicalising the shared
  prefix of their state spaces.
* :class:`GraphStore` — serialized state graphs keyed by
  ``(program digest, valuation, code version)``, each entry a system's
  warm successor-group/rule-option caches and its explored reach set.
  A sweep worker starting cold loads the graph a previous process
  already expanded and replays every query on memoised successors.

Storage backends
----------------
The store front end is backend-agnostic: raw segment I/O goes through
the :class:`StoreBackend` protocol, with two shipped implementations —

* :class:`LocalDirBackend` (default) — one directory of ``*.graph``
  files, the PR 4 layout; canonical snapshots live at
  ``<key>.graph`` and delta segments at ``<key>~<writer>.graph``.
* :class:`SQLiteBackend` — a single-file shared graph corpus
  (``sqlite:<path>``): one ``segments`` table in WAL mode with a busy
  timeout and a locked/busy retry loop, so a whole sweep fleet can
  append to and read one corpus concurrently.

Both speak the same entry contract (header line with identity fields +
body sha256 checksum, pickled int-tuple payload loaded through a
class-refusing restricted unpickler), so entries are byte-compatible
across backends.  :func:`as_backend` resolves a spec — a directory
path, a ``sqlite:`` URI, or a ready backend instance.

Delta segments
--------------
Flushes append **delta segments** instead of rewriting whole-graph
snapshots: each flush serializes only the cache entries grown since the
last flush/load of the same system, keyed off the PR 4
``(cache epoch, succ entries, option entries)`` triple
(:meth:`~repro.counter.system.CounterSystem.cache_state`).  A
destructive cache event (FIFO eviction, intern-table generation reset)
bumps the epoch and degrades the next flush to a full segment — never
to a lost delta.  Loads merge every segment for a key (union of
entries; memoised expansions of one configuration are identical in
every segment, so merge order cannot change results).
:func:`compact_backend` — surfaced as ``harness cache compact`` —
squashes a key's segments into one canonical snapshot and drops
checksum-corrupt segments along the way.

Durability contract (mirrors :class:`~repro.api.sweep.ResultCache`):

* directory-backend writes go to a **unique per-writer temp file**
  (``<name>.<pid>.<token>.tmp``) followed by an atomic
  :meth:`~pathlib.Path.replace`; SQLite writes are single transactions
  — either way concurrent writers of one key interleave freely and
  readers only ever see complete segments;
* all I/O is **best-effort** — a missing, truncated, hand-edited or
  stale entry (or a full disk / locked-out database) is a cold miss
  recorded on the store, never a crash; entries carry a body checksum
  so accidental corruption is detected rather than deserialized, and
  payloads load through a restricted unpickler that refuses every
  class lookup, so a crafted pickle cannot execute code;
* temp-file orphans from crashed writers are pruned on directory-
  backend init (SQLite needs no temp files).

Threat model: the store (directory or database file) is *trusted
input*, like any local cache.  The checksum and unpickler close the
accident and code-execution holes, but an internally-consistent forged
entry (valid checksum over wrong successor ids) would be replayed as-is
— do not point the store at storage writable by parties you would not
let edit your results.

Loading is results-neutral by construction: a stored graph is exactly
the memoised successor structure a cold expansion produces, so
warm-from-disk verdicts and ``states_explored`` are bit-identical to
cold runs.  Entries are keyed by :func:`~repro.version.code_version`,
so any engine change degrades the whole store to cold misses instead
of replaying stale semantics.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import pickle
import random
import sqlite3
import time
import uuid
import weakref
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.counter.actions import Action
from repro.counter.config import Config
from repro.testing import faults
from repro.version import code_version, stable_digest

__all__ = [
    "GraphStore",
    "InternTable",
    "LocalDirBackend",
    "SQLiteBackend",
    "StoreBackend",
    "activate_graph_store",
    "active_graph_store",
    "as_backend",
    "compact_backend",
    "deactivate_graph_store",
    "program_digest",
    "prune_stale_temp_files",
    "unique_temp_path",
    "valuation_digest",
]

#: Temp files older than this are crashed-writer orphans; live writers
#: hold a temp file for milliseconds (one serialized entry write).
STALE_TEMP_SECONDS = 600.0

#: Failures any backend operation may raise; everything the best-effort
#: store layer swallows and records.
BACKEND_ERRORS = (OSError, sqlite3.Error)


# ----------------------------------------------------------------------
# Shared durability helpers (used by ResultCache too)
# ----------------------------------------------------------------------
def unique_temp_path(path: Path) -> Path:
    """A collision-free sibling temp path for atomically replacing ``path``.

    ``<name>.<pid>.<token>.tmp`` — the pid separates concurrent
    processes, the random token separates writers inside one process
    (two pool workers finishing the same uncached key must never
    truncate each other's half-written blob before the atomic rename).
    """
    token = uuid.uuid4().hex[:8]
    return path.with_name(f"{path.name}.{os.getpid()}.{token}.tmp")


def prune_stale_temp_files(
    root: Path, stale_seconds: float = STALE_TEMP_SECONDS
) -> int:
    """Remove crashed-writer ``*.tmp`` orphans under ``root``.

    Only temp files whose mtime is older than ``stale_seconds`` go (a
    concurrent writer's live temp file must survive); with
    ``stale_seconds <= 0`` every temp file goes (explicit prune/clear).
    Best-effort: unlink races and permission errors are ignored.
    Returns the number of files removed.
    """
    removed = 0
    now = time.time()
    try:
        candidates = list(root.glob("*.tmp"))
    except OSError:
        return 0
    for path in candidates:
        try:
            if stale_seconds > 0 and now - path.stat().st_mtime < stale_seconds:
                continue
            path.unlink()
            removed += 1
        except OSError:
            continue
    return removed


# ----------------------------------------------------------------------
# Per-program intern table (shared across valuations)
# ----------------------------------------------------------------------
class InternTable:
    """One configuration intern table shared by a program's systems.

    :class:`~repro.counter.config.Config` cells are counters and
    variable values — never parameters — and the flat layout geometry is
    owned by the structure-level program, so configurations are
    *valuation-independent* values.  Holding the table on the program
    therefore lets every :class:`~repro.counter.system.CounterSystem`
    bound to it (one per valuation) intern into the same dict.

    The generation reset of the old per-system table carries over: when
    the table reaches its cap it is dropped wholesale, together with
    the successor/option caches of every registered dependent system —
    those caches hold interned configs and must not outlive the table
    that canonicalised them.  Dependents are tracked weakly so the
    program-lifetime table never pins evicted systems.
    """

    #: Bound on the table; far above any max_states budget a checker
    #: uses, so only open-ended workloads (sampling) recycle.
    CAP = 1 << 21

    __slots__ = ("table", "_dependents")

    def __init__(self) -> None:
        self.table: Dict[Config, Config] = {}
        self._dependents: "weakref.WeakSet" = weakref.WeakSet()

    def register(self, system) -> None:
        """Track a system whose caches must drop on generation reset."""
        self._dependents.add(system)

    def reset(self) -> None:
        """Drop the table and every dependent's derived caches together.

        Bumps each dependent's cache epoch: a reset changes cache
        *contents* without necessarily changing their lengths, and the
        store's delta/skip flush bookkeeping keys on ``(epoch,
        lengths)`` to stay sound across it.
        """
        self.table.clear()
        for system in self._dependents:
            system._succ_cache.clear()
            system._options_cache.clear()
            system._cache_epoch += 1

    def __len__(self) -> int:
        return len(self.table)


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------
def program_digest(program) -> str:
    """Cross-process digest of a compiled program's structural key.

    ``program.key`` is a tuple of hashable value types with
    deterministic reprs (frozen dataclasses, enums, tuples, strings,
    ``Fraction``), so hashing its repr is stable across processes and
    ``PYTHONHASHSEED`` values — unlike ``hash()``, which is salted.
    """
    return stable_digest(repr(program.key), 16)


def valuation_digest(valuation: Mapping[str, int]) -> str:
    """Deterministic digest of one parameter valuation."""
    return stable_digest(repr(tuple(sorted(valuation.items()))), 12)


def _slug(name: str) -> str:
    """Filename-safe component (no ``-`` — it separates the key parts)."""
    return "".join(c if c.isalnum() else "_" for c in name) or "model"


def key_version(key: str) -> Optional[str]:
    """The code-version component of an entry key.

    Keys are ``<slug>-<program>-<valuation>-<version>``; every
    component is slugged (no ``-`` inside), so the version is the last
    dash-separated part.
    """
    parts = key.rsplit("-", 3)
    return parts[3] if len(parts) == 4 else None


class _SafeUnpickler(pickle.Unpickler):
    """An unpickler that refuses every class/callable lookup.

    Graph payloads are plain containers of ints — tuples, lists, dicts,
    strings — which pickle reconstructs without ever resolving a
    global.  Rejecting ``find_class`` outright therefore costs nothing
    and closes the classic pickle code-execution hole: a hand-crafted
    entry whose payload smuggles a ``GLOBAL``/``STACK_GLOBAL`` opcode
    raises here, is caught by :meth:`GraphStore.load_into`, and
    degrades to the documented cold miss.
    """

    def find_class(self, module, name):
        raise pickle.UnpicklingError(
            f"graph payloads contain no classes (refusing {module}.{name})"
        )


def _safe_loads(body: bytes):
    return _SafeUnpickler(io.BytesIO(body)).load()


# ----------------------------------------------------------------------
# Storage backends
# ----------------------------------------------------------------------
class StoreBackend:
    """Raw segment storage under the :class:`GraphStore` front end.

    A backend stores opaque byte blobs (*segments*) under string keys
    and never interprets them — the header/checksum/unpickler contract
    lives in :class:`GraphStore`.  Implementations must tolerate
    concurrent writers (unique temp files + atomic rename, or
    transactions) and may raise any of :data:`BACKEND_ERRORS`; the
    store layer turns those into recorded cold misses.

    ``spec`` is the canonical string form (:func:`as_backend` round-
    trips it), which is what the sweep runner ships to pool workers.
    """

    spec: str

    def read_segments(self, key: str) -> List[Tuple[object, bytes]]:
        """All segments for ``key``, oldest first, as (token, blob).

        Tokens identify segments to :meth:`write_canonical`'s ``drop``
        — a file path for directories, a rowid for SQLite.
        """
        raise NotImplementedError

    def append_segment(self, key: str, blob: bytes) -> None:
        """Durably add one segment for ``key`` (never replaces)."""
        raise NotImplementedError

    def write_canonical(self, key: str, blob: bytes, drop=()) -> None:
        """Publish ``blob`` as the canonical segment for ``key``.

        ``drop`` names the segment tokens this blob supersedes.
        Segments appended by a concurrent writer *after* the caller
        read its tokens must survive — that is what lets compaction run
        under live writers.
        """
        raise NotImplementedError

    def segment_heads(self, key: str) -> List[bytes]:
        """The header-line prefix of each of ``key``'s segments.

        Cheap (no payloads): the store dedups no-baseline full-segment
        flushes against the body checksums already on storage.
        """
        raise NotImplementedError

    def keys(self) -> List[str]:
        """All keys with at least one segment, sorted."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-key ``(segment count, total bytes)``."""
        raise NotImplementedError

    def delete_key(self, key: str) -> int:
        """Drop every segment of ``key``; returns segments removed."""
        raise NotImplementedError

    def clear(self) -> int:
        """Drop everything; returns segments removed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release handles; every operation may lazily reopen."""


class LocalDirBackend(StoreBackend):
    """The default backend: one directory of ``*.graph`` files.

    Canonical snapshots (compaction output, PR 4 entries) live at
    ``<key>.graph``; delta segments at ``<key>~<pid>_<token>.graph`` —
    the ``~`` suffix is writer-unique, so any number of processes can
    append segments for one key without ever racing on a file name.
    Writes are a unique temp file plus an atomic rename; stale temp
    orphans are pruned on init.
    """

    #: Process-wide segment sequence (shared by every instance): makes
    #: one process's segments sort in append order whatever store
    #: object wrote them (cross-process order is irrelevant — merges
    #: are unions of identical memoised expansions).
    _SEQUENCE = itertools.count()

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        prune_stale_temp_files(self.root)

    @property
    def spec(self) -> str:
        return str(self.root)

    def canonical_path(self, key: str) -> Path:
        return self.root / f"{key}.graph"

    def _segment_paths(self, key: str) -> List[Path]:
        paths = []
        canonical = self.canonical_path(key)
        if canonical.exists():
            paths.append(canonical)
        paths.extend(sorted(self.root.glob(f"{key}~*.graph")))
        return paths

    def read_segments(self, key: str) -> List[Tuple[object, bytes]]:
        out = []
        for path in self._segment_paths(key):
            try:
                out.append((path, path.read_bytes()))
            except FileNotFoundError:
                continue  # lost a race with compaction/prune: data moved
        return out

    def append_segment(self, key: str, blob: bytes) -> None:
        token = uuid.uuid4().hex[:8]
        path = self.root / (
            f"{key}~{os.getpid()}_{next(self._SEQUENCE):06d}_{token}.graph"
        )
        self._publish(path, blob)

    def write_canonical(self, key: str, blob: bytes, drop=()) -> None:
        path = self.canonical_path(key)
        self._publish(path, blob)
        for stale in drop:
            stale = Path(stale)
            if stale == path:
                continue
            try:
                stale.unlink()
            except OSError:
                continue

    @staticmethod
    def _publish(path: Path, blob: bytes) -> None:
        tmp = unique_temp_path(path)
        try:
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def segment_heads(self, key: str) -> List[bytes]:
        heads = []
        for path in self._segment_paths(key):
            try:
                with open(path, "rb") as handle:
                    heads.append(handle.readline(65536))
            except OSError:
                continue
        return heads

    def _key_of(self, path: Path) -> str:
        return path.stem.split("~", 1)[0]

    def keys(self) -> List[str]:
        try:
            return sorted({self._key_of(p) for p in self.root.glob("*.graph")})
        except OSError:
            return []

    def stats(self) -> Dict[str, Tuple[int, int]]:
        out: Dict[str, List[int]] = {}
        try:
            paths = list(self.root.glob("*.graph"))
        except OSError:
            return {}
        for path in paths:
            try:
                size = path.stat().st_size
            except OSError:
                continue
            record = out.setdefault(self._key_of(path), [0, 0])
            record[0] += 1
            record[1] += size
        return {key: (count, size) for key, (count, size) in out.items()}

    def delete_key(self, key: str) -> int:
        removed = 0
        for path in self._segment_paths(key):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def clear(self) -> int:
        removed = 0
        for key in self.keys():
            removed += self.delete_key(key)
        prune_stale_temp_files(self.root, stale_seconds=0)
        return removed


class SQLiteBackend(StoreBackend):
    """A single-file shared graph corpus (``sqlite:<path>``).

    One ``segments`` table holds every (key, blob) pair; appends are
    single-statement transactions and compaction is one ``BEGIN
    IMMEDIATE`` transaction, so readers never observe torn segments.
    WAL journaling lets a fleet of sweep workers read while one writes;
    a busy timeout plus a short locked/busy retry loop absorbs writer
    contention.  Connections are opened lazily per process — a forked
    pool worker abandons (never closes) an inherited handle, so it can
    never release locks its parent still holds.
    """

    BUSY_TIMEOUT_MS = 5000
    RETRIES = 5
    #: Locked/busy backoff: ``RETRY_BASE_DELAY * 2**attempt`` seconds,
    #: capped at ``RETRY_MAX_DELAY``, then jittered by up to
    #: ``±RETRY_JITTER`` (a fraction of the delay).  Without jitter a
    #: contending fleet's writers back off in lockstep and re-collide
    #: on every round; decorrelating the sleeps lets one writer win
    #: each window.
    RETRY_BASE_DELAY = 0.02
    RETRY_MAX_DELAY = 0.5
    RETRY_JITTER = 0.5

    #: Connections inherited across fork are parked here forever:
    #: merely unbinding them would let the Connection finalizer run
    #: ``sqlite3_close`` in the child — which SQLite documents as
    #: unsafe for a handle the parent still uses (a close-after-fork
    #: can checkpoint the WAL out from under the parent's writes).
    #: One entry per (backend, fork), so the leak is bounded and tiny.
    _FORK_GRAVEYARD: List[sqlite3.Connection] = []

    def __init__(self, path):
        self.path = str(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None

    def _disown(self) -> None:
        """Drop the handle without ever letting its finalizer close it."""
        if self._conn is not None and self._conn_pid != os.getpid():
            self._FORK_GRAVEYARD.append(self._conn)
        self._conn = None
        self._conn_pid = None

    @property
    def spec(self) -> str:
        return f"sqlite:{self.path}"

    @classmethod
    def probe(cls, path) -> Optional[bool]:
        """Is ``path`` a graph corpus?  Strictly read-only.

        Opens the file with ``mode=ro`` (no table/index creation, no
        journal-mode switch) and answers True when a ``segments``
        table exists, False when the database lacks one (a foreign
        application database maintenance must not touch), and None
        when the file is unreadable or not SQLite at all.
        """
        try:
            conn = sqlite3.connect(f"file:{Path(path)}?mode=ro", uri=True)
        except sqlite3.Error:
            return None
        try:
            row = conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table' AND name = 'segments'"
            ).fetchone()
            return row is not None
        except sqlite3.Error:
            return None
        finally:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    # -- connection management ----------------------------------------
    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            # Abandon (do not close, do not finalize) a handle
            # inherited across fork.
            self._disown()
            parent = Path(self.path).resolve().parent
            parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=self.BUSY_TIMEOUT_MS / 1000.0,
                isolation_level=None,
            )
            conn.execute(f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
            try:
                conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.Error:
                pass  # e.g. network filesystems: rollback journal is fine
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS segments ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " key TEXT NOT NULL,"
                " blob BLOB NOT NULL,"
                " created REAL NOT NULL)"
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS segments_key ON segments(key)"
            )
            self._conn = conn
            self._conn_pid = pid
        return self._conn

    def _retry(self, operation):
        """Run ``operation(conn)``, retrying on locked/busy contention."""
        last: Optional[sqlite3.OperationalError] = None
        for attempt in range(self.RETRIES):
            conn = self._connection()
            try:
                return operation(conn)
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                last = exc
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                if attempt < self.RETRIES - 1:
                    time.sleep(self._retry_delay(attempt))
        raise last  # type: ignore[misc]  # loop ran >= once

    def _retry_delay(self, attempt: int) -> float:
        """Capped exponential backoff, decorrelated per process.

        ``random.random()`` (seeded per process) supplies the jitter:
        the whole point is that *different* workers sleep differently,
        and graph-store I/O is results-neutral, so this randomness can
        never reach a verdict.
        """
        raw = min(self.RETRY_MAX_DELAY,
                  self.RETRY_BASE_DELAY * (2 ** attempt))
        spread = raw * self.RETRY_JITTER
        return raw - spread + random.random() * 2.0 * spread

    # -- StoreBackend -------------------------------------------------
    def read_segments(self, key: str) -> List[Tuple[object, bytes]]:
        def go(conn):
            rows = conn.execute(
                "SELECT id, blob FROM segments WHERE key = ? ORDER BY id",
                (key,),
            ).fetchall()
            return [(row[0], bytes(row[1])) for row in rows]

        return self._retry(go)

    def append_segment(self, key: str, blob: bytes) -> None:
        def go(conn):
            conn.execute(
                "INSERT INTO segments(key, blob, created) VALUES (?, ?, ?)",
                (key, sqlite3.Binary(blob), time.time()),
            )

        self._retry(go)

    def write_canonical(self, key: str, blob: bytes, drop=()) -> None:
        def go(conn):
            conn.execute("BEGIN IMMEDIATE")
            try:
                if drop:
                    marks = ",".join("?" * len(drop))
                    conn.execute(
                        f"DELETE FROM segments WHERE key = ? AND id IN ({marks})",
                        (key, *drop),
                    )
                conn.execute(
                    "INSERT INTO segments(key, blob, created) VALUES (?, ?, ?)",
                    (key, sqlite3.Binary(blob), time.time()),
                )
                conn.execute("COMMIT")
            except BaseException:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise

        self._retry(go)

    def keys(self) -> List[str]:
        def go(conn):
            rows = conn.execute(
                "SELECT DISTINCT key FROM segments ORDER BY key"
            ).fetchall()
            return [row[0] for row in rows]

        return self._retry(go)

    def head(self, key: str, size: int = 65536) -> Optional[bytes]:
        """First ``size`` bytes of the key's oldest segment, or None.

        Enough for the header line; the maintenance CLI summarises a
        fleet-sized corpus without materialising whole blobs.
        """
        def go(conn):
            row = conn.execute(
                "SELECT substr(blob, 1, ?) FROM segments WHERE key = ? "
                "ORDER BY id LIMIT 1",
                (size, key),
            ).fetchone()
            return bytes(row[0]) if row is not None else None

        return self._retry(go)

    def segment_heads(self, key: str) -> List[bytes]:
        def go(conn):
            rows = conn.execute(
                "SELECT substr(blob, 1, 65536) FROM segments "
                "WHERE key = ? ORDER BY id",
                (key,),
            ).fetchall()
            return [bytes(row[0]) for row in rows]

        return self._retry(go)

    def stats(self) -> Dict[str, Tuple[int, int]]:
        def go(conn):
            rows = conn.execute(
                "SELECT key, COUNT(*), COALESCE(SUM(LENGTH(blob)), 0) "
                "FROM segments GROUP BY key"
            ).fetchall()
            return {row[0]: (row[1], row[2]) for row in rows}

        return self._retry(go)

    def delete_key(self, key: str) -> int:
        def go(conn):
            return conn.execute(
                "DELETE FROM segments WHERE key = ?", (key,)
            ).rowcount

        return self._retry(go)

    def clear(self) -> int:
        def go(conn):
            return conn.execute("DELETE FROM segments").rowcount

        return self._retry(go)

    def close(self) -> None:
        if self._conn is not None and self._conn_pid == os.getpid():
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
            self._conn_pid = None
        else:
            self._disown()


def as_backend(spec) -> StoreBackend:
    """Resolve a store spec into a backend instance.

    Accepts a ready :class:`StoreBackend`, a ``sqlite:<path>`` URI
    (``sqlite://<path>`` tolerated), or anything else as a local
    directory path.  The result's ``spec`` attribute round-trips, which
    is how the sweep runner ships the store to pool workers.
    """
    if isinstance(spec, StoreBackend):
        return spec
    text = str(spec)
    if text.startswith("sqlite:"):
        rest = text[len("sqlite:"):]
        if rest.startswith("//"):
            rest = rest[2:]
        return SQLiteBackend(rest)
    return LocalDirBackend(text)


# ----------------------------------------------------------------------
# The store front end
# ----------------------------------------------------------------------
class GraphStore:
    """Serialized state graphs, keyed by
    ``(program digest, valuation, code version)``, on a pluggable
    backend.

    Entry keys are ``<slug>-<program>-<valuation>-<version>`` — every
    identity component slugged into the key, whatever the backend.
    Each segment is one header line — ``repro-graph <format> <json>``
    with the identity fields, entry counts and a body checksum —
    followed by a pickled payload of plain int tuples: the config
    universe (flat cell tuples) and the successor/option caches as
    indices into it.  Successor groups are stored as ``(rule index,
    round, successor ids)``; actions are *rebuilt* from the program's
    rule list on load, so a payload can never inject structure that the
    current code version would not itself produce.

    Flushes append deltas (only entries grown since the last flush/load
    of the same system — the PR 4 epoch triple tracks destructive cache
    events and degrades the next flush to a full segment).

    All methods are best-effort: any backend failure (and, on the read
    side, any parse error) is swallowed, counted, and treated as a
    cold miss.  ``last_error`` keeps the most recent failure for
    diagnostics.
    """

    FORMAT = 1
    MAGIC = "repro-graph"

    def __init__(self, store, version: Optional[str] = None):
        self.backend = as_backend(store)
        #: Back-compat convenience: the directory of a local backend.
        self.root = getattr(self.backend, "root", None)
        self.version = version if version is not None else code_version()
        #: key -> (system weakref, epoch, succ entries, option entries)
        #: at the last flush/load.  The weakref scopes the baseline to
        #: one system instance: a *different* system under the same key
        #: (cache eviction + rebirth) starts from a full segment, never
        #: from a baseline measured on someone else's caches.  The
        #: epoch component keeps the delta sound across FIFO evictions
        #: and intern-table generation resets, which change cache
        #: *contents* at coinciding lengths.
        self._flushed: Dict[str, Tuple] = {}
        #: Systems served to this process while this store was active —
        #: the only ones :meth:`flush_adopted` persists.  Tracked
        #: weakly: flushing must never pin an evicted system, and
        #: systems this run never touched (warm leftovers of earlier
        #: unrelated runs) must never leak into this store.
        self._adopted: "weakref.WeakSet" = weakref.WeakSet()
        self.load_hits = 0
        self.load_misses = 0
        self.saves = 0
        self.errors = 0
        #: Total serialized bytes handed to the backend (bench metric).
        self.bytes_written = 0
        self.last_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key_for(self, system) -> str:
        program = system.program
        return (
            f"{_slug(program.model_name)}-{program_digest(program)}-"
            f"{valuation_digest(system.valuation)}-{_slug(self.version)}"
        )

    def path_for(self, system) -> Path:
        """The canonical entry path (local directory backends only)."""
        return self.backend.canonical_path(self.key_for(system))

    # ------------------------------------------------------------------
    # Adoption (which systems belong to this store's run)
    # ------------------------------------------------------------------
    def adopt(self, system) -> None:
        """Mark ``system`` as used under this store (flush candidate)."""
        self._adopted.add(system)

    def flush_adopted(self) -> int:
        """Flush every adopted system; returns the entries written."""
        return sum(1 for system in list(self._adopted) if self.flush(system))

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def flush(self, system) -> bool:
        """Persist what ``system``'s graph grew since its last flush.

        Returns True when a segment was written.  Never raises: a disk
        failure marks the store errored and the caller moves on — the
        store is an optimization, not a dependency.

        A delta baseline only applies when it was measured on the same
        system instance at the same cache epoch; anything else (first
        flush, reborn system under the same key, FIFO eviction,
        generation reset) serializes the full graph — duplicated
        entries across segments merge away on load and at compaction,
        lost deltas would not.
        """
        key = self.key_for(system)
        epoch, n_succ, n_options = system.cache_state()
        if (n_succ, n_options) == (0, 0):
            return False
        record = self._flushed.get(key)
        fresh = (
            record is not None
            and record[0]() is system
            and record[1] == epoch
        )
        if fresh and record[2:] == (n_succ, n_options):
            return False  # unchanged since the last flush/load
        start_succ, start_options = (
            record[2:]
            if fresh and record[2] <= n_succ and record[3] <= n_options
            else (0, 0)
        )
        try:
            blob = self._serialize(system, start_succ, start_options)
        except Exception as exc:  # noqa: BLE001 — never kill the caller
            self._record(exc)
            return False
        # Chaos hook: a "corrupt" rule flips a byte of what lands on
        # storage, so the next load sees a real checksum mismatch.
        blob = faults.transform("graph_store.flush", key, blob)
        full = (start_succ, start_options) == (0, 0)
        if full and self._already_stored(key, blob):
            # A byte-identical body is already on storage — typical
            # when a warm system meets a freshly activated store over
            # a corpus its previous activation wrote.  Establish the
            # baseline (everything serialized here IS persisted) and
            # write nothing: repeated activations must not grow the
            # store by one duplicate snapshot each.
            self._flushed[key] = (
                weakref.ref(system), epoch, n_succ, n_options)
            return False
        try:
            # Chaos hook inside the guard: an injected OSError takes the
            # exact recorded-error path a real disk failure would.
            faults.fire("graph_store.flush", key)
            self.backend.append_segment(key, blob)
        except BACKEND_ERRORS as exc:
            self._record(exc)
            return False
        self._flushed[key] = (weakref.ref(system), epoch, n_succ, n_options)
        self.saves += 1
        self.bytes_written += len(blob)
        return True

    def _already_stored(self, key: str, blob: bytes) -> bool:
        """Is this full segment's content already covered by the key?

        Fast path: some stored segment carries the identical body
        checksum (header reads only).  Slow path: the stored segments'
        *union* covers every entry of our payload — the full+delta
        shape a previous activation left behind.  Best-effort
        throughout (any failure means "append anyway"); only consulted
        for no-baseline full segments, so the reads happen at most
        once per key per store lifetime.
        """
        try:
            heads = self.backend.segment_heads(key)
        except BACKEND_ERRORS:
            return False
        if not heads:
            return False
        try:
            header, body = self.parse_entry(blob)
        except Exception:  # noqa: BLE001 — our own blob; be safe anyway
            return False
        body_sha = header.get("body_sha256")
        for head in heads:
            described = self.describe_blob(head)
            if described is not None and \
                    described.get("body_sha256") == body_sha:
                return True
        try:
            stored = _entry_maps()
            for _token, raw in self.backend.read_segments(key):
                seg_header, seg_body = self.parse_entry(raw)
                if hashlib.sha256(seg_body).hexdigest() != \
                        seg_header.get("body_sha256"):
                    raise ValueError("stored segment checksum mismatch")
                _accumulate_entries(stored, _safe_loads(seg_body))
            ours = _entry_maps()
            _accumulate_entries(ours, _safe_loads(body))
        except Exception:  # noqa: BLE001 — unreadable key: append
            return False
        return _entries_covered(stored, ours)

    def _serialize(self, system, start_succ: int = 0,
                   start_options: int = 0) -> bytes:
        program = system.program
        rule_index = {
            rule.name: index for index, rule in enumerate(system._rule_list)
        }
        config_ids: Dict[Config, int] = {}

        def cid(config: Config) -> int:
            known = config_ids.get(config)
            if known is None:
                known = len(config_ids)
                config_ids[config] = known
            return known

        # Dict iteration is insertion-ordered, so the entries grown
        # since the baseline are exactly the tail past it (a cache that
        # shrank or churned bumped its epoch, which reset the baseline).
        succ: List[tuple] = []
        for config, groups in itertools.islice(
            system._succ_cache.items(), start_succ, None
        ):
            encoded = []
            for group in groups:
                action = group[0][0]
                encoded.append((
                    rule_index[action.rule],
                    action.round,
                    tuple(cid(successor) for _action, successor in group),
                ))
            succ.append((cid(config), tuple(encoded)))
        options: List[tuple] = []
        for config, actions in itertools.islice(
            system._options_cache.items(), start_options, None
        ):
            options.append((
                cid(config),
                tuple((rule_index[a.rule], a.round) for a in actions),
            ))
        payload = {
            "configs": tuple(c.data for c in config_ids),
            "succ": tuple(succ),
            "options": tuple(options),
        }
        header = {
            "model": program.model_name,
            "program": program_digest(program),
            "valuation": sorted(system.valuation.items()),
            "code_version": self.version,
            "block": program.block,
            "segment": [start_succ, start_options],
        }
        return encode_entry(header, payload)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load_into(self, system) -> bool:
        """Warm ``system``'s caches from storage; False is a cold miss.

        Reads and merges *every* segment of the entry key: each segment
        is validated (header identity — program digest, valuation, code
        version, layout geometry — and body checksum) before
        deserializing through the class-refusing unpickler, and every
        action is rebuilt from the *current* bound rule list.  One
        stale, truncated or corrupted segment degrades the whole key to
        a cold miss (``cache compact`` repairs such keys by dropping
        the bad segment) instead of crashing or replaying stale
        semantics (see the module doc for the trusted-storage threat
        model).
        """
        key = self.key_for(system)
        try:
            faults.fire("graph_store.load", key)
            segments = self.backend.read_segments(key)
        except BACKEND_ERRORS as exc:
            self._record(exc)
            self.load_misses += 1
            return False
        if not segments:
            self.load_misses += 1
            return False
        try:
            for _token, raw in segments:
                header, body = self.parse_entry(raw)
                self._check_header(header, system, body)
                payload = _safe_loads(body)
                counts = self._rebuild(system, payload, header)
        except Exception as exc:  # noqa: BLE001 — bad entry == cold miss
            # A partially-rebuilt cache would be correct but the entry
            # is untrusted now; drop everything this load touched.
            system._succ_cache.clear()
            system._options_cache.clear()
            self._flushed.pop(key, None)
            self._record(exc)
            self.load_misses += 1
            return False
        self._flushed[key] = (
            weakref.ref(system), system._cache_epoch) + counts
        self.load_hits += 1
        return True

    @classmethod
    def parse_entry(cls, raw: bytes) -> Tuple[dict, bytes]:
        """Split one segment into (header dict, body bytes) or raise."""
        head, sep, body = raw.partition(b"\n")
        if not sep:
            raise ValueError("truncated graph entry (no header line)")
        magic, fmt, header_json = head.decode().split(" ", 2)
        if magic != cls.MAGIC or int(fmt) != cls.FORMAT:
            raise ValueError(f"unknown graph format {magic!r} v{fmt}")
        return json.loads(header_json), body

    def _check_header(self, header: dict, system, body: bytes) -> None:
        expect = {
            "program": program_digest(system.program),
            "valuation": [list(kv) for kv in sorted(system.valuation.items())],
            "code_version": self.version,
            "block": system.program.block,
        }
        for key, want in expect.items():
            if header.get(key) != want:
                raise ValueError(
                    f"graph header mismatch on {key!r}: "
                    f"{header.get(key)!r} != {want!r}"
                )
        if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
            raise ValueError("graph body checksum mismatch")

    def _rebuild(self, system, payload: dict, header: dict) -> Tuple[int, int]:
        program = system.program
        width_kappa, width_g, block = program.n_locs, program.n_vars, program.block
        configs = []
        for data in payload["configs"]:
            if len(data) % block:
                raise ValueError("config cell count not a multiple of the block")
            configs.append(system.intern(Config.from_flat(
                tuple(data), width_kappa, width_g, len(data) // block
            )))
        rules = system._rule_list
        succ_cache = system._succ_cache
        for config_id, groups in payload["succ"]:
            rebuilt = []
            for rule_id, round_no, successor_ids in groups:
                rule = rules[rule_id]
                if rule.is_dirac:
                    (successor_id,) = successor_ids
                    rebuilt.append((
                        (Action(rule.name, round_no), configs[successor_id]),
                    ))
                else:
                    if len(successor_ids) != len(rule.branch_names):
                        raise ValueError("branch count mismatch")
                    rebuilt.append(tuple(
                        (Action(rule.name, round_no, name), configs[sid])
                        for name, sid in zip(rule.branch_names, successor_ids)
                    ))
            succ_cache[configs[config_id]] = tuple(rebuilt)
        options_cache = system._options_cache
        for config_id, pairs in payload["options"]:
            options_cache[configs[config_id]] = tuple(
                Action(rules[rule_id].name, round_no)
                for rule_id, round_no in pairs
            )
        if (
            len(payload["configs"]) != header["configs"]
            or len(payload["succ"]) != header["succ"]
            or len(payload["options"]) != header["options"]
        ):
            raise ValueError("entry count mismatch")
        return len(succ_cache), len(options_cache)

    # ------------------------------------------------------------------
    # Maintenance (the ``harness cache`` CLI)
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Squash every key's segments into one canonical snapshot."""
        return compact_backend(self.backend)

    def close(self) -> None:
        """Release backend handles (safe: operations lazily reopen)."""
        try:
            self.backend.close()
        except BACKEND_ERRORS as exc:
            self._record(exc)

    @staticmethod
    def entries(root) -> List[Path]:
        try:
            return sorted(Path(root).glob("*.graph"))
        except OSError:
            return []

    @classmethod
    def entry_version(cls, path: Path) -> Optional[str]:
        """The code-version component of an entry's file name.

        Delta segments carry a ``~<writer>`` suffix after the key; it
        is stripped before the key parse.
        """
        return key_version(Path(path).stem.split("~", 1)[0])

    @classmethod
    def describe(cls, path: Path) -> Optional[dict]:
        """An entry's header dict, or None when unreadable/corrupt.

        Validates the shape the maintenance CLI consumes (a dict whose
        ``valuation`` is key/value pairs and whose counts are ints), so
        a hand-edited header line can never crash ``cache info``.
        """
        try:
            with open(path, "rb") as handle:
                head = handle.readline()
            return cls.describe_blob(head)
        except (OSError, ValueError, TypeError, UnicodeDecodeError):
            return None

    @classmethod
    def describe_blob(cls, raw: bytes) -> Optional[dict]:
        """Like :meth:`describe` for an in-memory segment (SQLite rows)."""
        try:
            head = raw.partition(b"\n")[0]
            magic, fmt, header_json = head.decode().split(" ", 2)
            if magic != cls.MAGIC or int(fmt) != cls.FORMAT:
                return None
            header = json.loads(header_json)
            if not isinstance(header, dict):
                return None
            header["valuation"] = dict(header.get("valuation") or ())
            for field in ("configs", "succ", "options"):
                if not isinstance(header.get(field), int):
                    return None
            if not isinstance(header.get("model"), str):
                return None
            return header
        except (ValueError, TypeError, UnicodeDecodeError):
            return None

    def _record(self, exc: BaseException) -> None:
        self.errors += 1
        self.last_error = exc


# ----------------------------------------------------------------------
# Entry encoding / compaction (payload-level, no model required)
# ----------------------------------------------------------------------
def encode_entry(header_core: dict, payload: dict) -> bytes:
    """Serialize one segment: header line + checksummed pickled payload."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = dict(header_core)
    header["configs"] = len(payload["configs"])
    header["succ"] = len(payload["succ"])
    header["options"] = len(payload["options"])
    header["body_sha256"] = hashlib.sha256(body).hexdigest()
    head = (
        f"{GraphStore.MAGIC} {GraphStore.FORMAT} "
        f"{json.dumps(header, sort_keys=True)}\n"
    )
    return head.encode() + body


#: Header fields every segment of one key must agree on to be merged.
_IDENTITY_FIELDS = ("model", "program", "valuation", "code_version", "block")


def _entry_maps() -> dict:
    """Payload entries keyed by config *data* (id-free, comparable)."""
    return {"succ": {}, "options": {}}


def _accumulate_entries(maps: dict, payload: dict) -> None:
    """Fold one payload into ``maps`` (first occurrence wins)."""
    configs = payload["configs"]
    for config_id, groups in payload["succ"]:
        data = tuple(configs[config_id])
        if data not in maps["succ"]:
            maps["succ"][data] = tuple(
                (rule_id, round_no,
                 tuple(tuple(configs[sid]) for sid in successor_ids))
                for rule_id, round_no, successor_ids in groups
            )
    for config_id, pairs in payload["options"]:
        data = tuple(configs[config_id])
        if data not in maps["options"]:
            maps["options"][data] = tuple(tuple(pair) for pair in pairs)


def _entries_covered(stored: dict, candidate: dict) -> bool:
    """Is every entry of ``candidate`` present (and equal) in ``stored``?"""
    for kind in ("succ", "options"):
        haystack = stored[kind]
        for data, value in candidate[kind].items():
            if haystack.get(data) != value:
                return False
    return True


def _validate_payload(payload: dict, header: dict) -> None:
    """Structural sanity of one decoded segment (model-free).

    Compaction merges payloads without a bound system, so the rule-list
    validation of :meth:`GraphStore._rebuild` is unavailable; this
    checks everything checkable at the data level — id ranges, shapes,
    header counts — and leaves semantic validation to the next load.
    """
    configs = payload["configs"]
    n = len(configs)
    if not all(isinstance(data, tuple) for data in configs):
        raise ValueError("config universe must be flat tuples")
    if (len(payload["succ"]) != header["succ"]
            or len(payload["options"]) != header["options"]
            or n != header["configs"]):
        raise ValueError("entry count mismatch")
    for config_id, groups in payload["succ"]:
        if not 0 <= config_id < n:
            raise ValueError("successor source id out of range")
        for _rule_id, _round_no, successor_ids in groups:
            for sid in successor_ids:
                if not 0 <= sid < n:
                    raise ValueError("successor id out of range")
    for config_id, _pairs in payload["options"]:
        if not 0 <= config_id < n:
            raise ValueError("option source id out of range")


def _merge_payloads(entries: Sequence[Tuple[dict, dict]]) -> Tuple[dict, dict]:
    """Union the payloads of one key's segments into a single payload.

    Configs dedup on their flat data tuple; successor/option entries
    keep the first occurrence (every segment memoised the same
    deterministic expansion, so later duplicates are identical).
    Returns ``(header_core, payload)`` for :func:`encode_entry`.
    """
    first_header = entries[0][0]
    for header, _payload in entries[1:]:
        for field in _IDENTITY_FIELDS:
            if header.get(field) != first_header.get(field):
                raise ValueError(
                    f"segments disagree on identity field {field!r}"
                )
    config_ids: Dict[tuple, int] = {}
    configs: List[tuple] = []
    succ: Dict[int, tuple] = {}
    options: Dict[int, tuple] = {}
    for _header, payload in entries:
        remap: List[int] = []
        for data in payload["configs"]:
            data = tuple(data)
            merged_id = config_ids.get(data)
            if merged_id is None:
                merged_id = len(configs)
                config_ids[data] = merged_id
                configs.append(data)
            remap.append(merged_id)
        for config_id, groups in payload["succ"]:
            merged_id = remap[config_id]
            if merged_id not in succ:
                succ[merged_id] = tuple(
                    (rule_id, round_no,
                     tuple(remap[sid] for sid in successor_ids))
                    for rule_id, round_no, successor_ids in groups
                )
        for config_id, pairs in payload["options"]:
            merged_id = remap[config_id]
            if merged_id not in options:
                options[merged_id] = tuple(tuple(pair) for pair in pairs)
    header_core = {field: first_header.get(field)
                   for field in _IDENTITY_FIELDS}
    header_core["segment"] = [0, 0]
    payload = {
        "configs": tuple(configs),
        "succ": tuple(sorted(succ.items())),
        "options": tuple(sorted(options.items())),
    }
    return header_core, payload


def compact_backend(backend: StoreBackend) -> Dict[str, int]:
    """Squash every key's delta segments into one canonical snapshot.

    Pure data-level merging (checksum-verified payload union), so it
    needs no protocol models and works on any backend.  Per key:
    checksum-corrupt or structurally-invalid segments are *dropped*
    (they would otherwise poison every load of the key); the remaining
    segments merge into a single canonical segment that replaces
    exactly the segments read — a concurrent writer's freshly-appended
    segment survives untouched, so compaction under a live fleet only
    ever trades duplicates for one extra merge at the next compaction.
    Best-effort throughout: a key that cannot be compacted is counted
    in ``errors`` and left as-is.
    """
    stats = {
        "keys": 0,
        "compacted": 0,
        "segments_before": 0,
        "segments_after": 0,
        "bytes_before": 0,
        "bytes_after": 0,
        "corrupt_dropped": 0,
        "errors": 0,
    }
    try:
        keys = backend.keys()
    except BACKEND_ERRORS:
        stats["errors"] += 1
        return stats
    for key in keys:
        stats["keys"] += 1
        try:
            segments = backend.read_segments(key)
        except BACKEND_ERRORS:
            stats["errors"] += 1
            continue
        if not segments:
            continue
        total = sum(len(blob) for _token, blob in segments)
        stats["segments_before"] += len(segments)
        stats["bytes_before"] += total
        entries: List[Tuple[dict, dict]] = []
        corrupt = 0
        for _token, raw in segments:
            try:
                header, body = GraphStore.parse_entry(raw)
                if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
                    raise ValueError("graph body checksum mismatch")
                payload = _safe_loads(body)
                _validate_payload(payload, header)
                entries.append((header, payload))
            except Exception:  # noqa: BLE001 — bad segment: drop it
                corrupt += 1
        stats["corrupt_dropped"] += corrupt
        canonical = getattr(backend, "canonical_path", None)
        if not corrupt and len(segments) == 1 and (
            canonical is None or Path(segments[0][0]) == canonical(key)
        ):
            # Already one *valid* canonical segment: nothing to do.
            stats["segments_after"] += 1
            stats["bytes_after"] += total
            continue
        try:
            if not entries:
                # Nothing salvageable: removing the corrupt segments
                # turns a poisoned key back into a clean cold miss.
                backend.delete_key(key)
                continue
            header_core, payload = _merge_payloads(entries)
            blob = encode_entry(header_core, payload)
            backend.write_canonical(
                key, blob, drop=[token for token, _blob in segments]
            )
        except Exception:  # noqa: BLE001 — leave the key as it was
            stats["errors"] += 1
            stats["segments_after"] += len(segments)
            stats["bytes_after"] += total
            continue
        stats["compacted"] += 1
        stats["segments_after"] += 1
        stats["bytes_after"] += len(blob)
    return stats


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
#: The store new shared systems warm themselves from, or None.  Set per
#: process: the sweep runner activates it inline and via the pool
#: initializer, so persistent workers load graphs on first bind and
#: flush what they grew.
_ACTIVE_STORE: Optional[GraphStore] = None


def activate_graph_store(
    store, version: Optional[str] = None
) -> Optional[GraphStore]:
    """Install the process-wide store; returns the previous one.

    ``store`` is anything :func:`as_backend` resolves: a directory
    path, a ``sqlite:<path>`` URI, or a backend instance.
    """
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = GraphStore(store, version=version)
    return previous


def active_graph_store() -> Optional[GraphStore]:
    """The currently-installed process-wide store, or None."""
    return _ACTIVE_STORE


def deactivate_graph_store(
    previous: Optional[GraphStore] = None,
) -> None:
    """Clear (or restore) the process-wide store installation.

    The store being replaced releases its backend handles — safe even
    if someone still holds a reference, because every backend operation
    lazily reopens.
    """
    global _ACTIVE_STORE
    current = _ACTIVE_STORE
    _ACTIVE_STORE = previous
    if current is not None and current is not previous:
        current.close()
