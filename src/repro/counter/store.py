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

On-disk layout
--------------
The store is one directory of ``*.graph`` files, and
:class:`LocalDirBackend` is the one place that knows its layout:
canonical snapshots live at ``<key>.graph`` and delta segments at
``<key>~<writer>.graph``.  Every segment follows one entry contract: a
header line with the identity fields, entry counts and a body sha256
checksum, then a pickled int-tuple payload loaded through a
class-refusing restricted unpickler.  One reader, :func:`_read_segment`,
enforces that contract for every consumer: loads, the flush-time
"already stored?" check and compaction.

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
corrupt segments along the way.  One payload merge,
:func:`_merge_payloads`, serves compaction and the flush-time check.

Durability contract (shared with :class:`~repro.api.sweep.ResultCache`
through :func:`publish`):

* writes go to a **unique per-writer temp file**
  (``<name>.<pid>.<token>.tmp``) followed by an atomic
  :meth:`~pathlib.Path.replace`, so concurrent writers of one key
  interleave freely and readers only ever see complete segments;
* all I/O is **best-effort** — a missing, truncated, hand-edited or
  stale entry (or a full disk) is a cold miss recorded on the store
  and logged as one ``store.*`` warning on this module's logger
  (quiet unless the application configures logging), never a crash;
  entries carry a body checksum so accidental corruption is detected
  rather than deserialized, and payloads load through a restricted
  unpickler that refuses every class lookup, so a crafted pickle
  cannot execute code;
* temp-file orphans from crashed writers are pruned when a store
  opens its directory.

Threat model: the store directory is *trusted input*, like any local
cache.  The checksum and unpickler close the accident and
code-execution holes, but an internally-consistent forged
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
import logging
import os
import pickle
import time
import uuid
import weakref
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.counter.config import Config
from repro.errors import ValidationError
from repro.testing import faults
from repro.version import code_version, stable_digest

__all__ = [
    "GraphStore",
    "InternTable",
    "LocalDirBackend",
    "activate_graph_store",
    "active_graph_store",
    "check_graph_store_dir",
    "compact_backend",
    "deactivate_graph_store",
    "program_digest",
    "prune_stale_temp_files",
    "publish",
    "unique_temp_path",
    "valuation_digest",
]

logger = logging.getLogger(__name__)

#: Temp files older than this are crashed-writer orphans; live writers
#: hold a temp file for milliseconds (one serialized entry write).
STALE_TEMP_SECONDS = 600.0


def check_graph_store_dir(spec) -> None:
    """Refuse a ``sqlite:`` graph-store spec with a clear error.

    The store is a directory.  Older releases also took a ``sqlite:``
    URI; passed through unchecked, such a spec would silently become a
    directory of that name.  Called where a spec enters the program,
    before any worker starts.
    """
    if str(spec).startswith("sqlite:"):
        raise ValidationError(
            f"graph store {str(spec)!r}: the SQLite store was removed; "
            f"pass a directory path instead (e.g. .repro-cache/graphs)"
        )


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


def publish(path: Path, blob) -> None:
    """Atomically replace ``path`` with ``blob`` (``bytes`` or ``str``).

    The blob goes to a :func:`unique_temp_path` sibling first and is
    renamed over ``path``, so readers only ever see complete files.  On
    failure the temp file is removed and the ``OSError`` propagates.
    """
    tmp = unique_temp_path(path)
    try:
        if isinstance(blob, str):
            tmp.write_text(blob)
        else:
            tmp.write_bytes(blob)
        tmp.replace(path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def _scan_error(op: str, path, exc: OSError) -> None:
    """Log one swallowed directory error, unless it is a benign race.

    ``FileNotFoundError`` means a concurrent writer, pruner or
    compaction moved the file first, which is expected and stays
    silent; anything else (permissions, I/O) logs one ``store.scan_error``
    warning on this module's logger, quiet unless the application
    configures logging.
    """
    if isinstance(exc, FileNotFoundError):
        return
    logger.warning(
        "graph store scan failure (%s) on %s: %r", op, path, exc,
        extra={"event": "store.scan_error", "op": op, "path": str(path),
               "error": repr(exc)},
    )


def prune_stale_temp_files(root: Path) -> int:
    """Remove crashed-writer ``*.tmp`` orphans under ``root``.

    Only temp files older than :data:`STALE_TEMP_SECONDS` go (a
    concurrent writer's live temp file must survive).  Best-effort:
    errors are logged (:func:`_scan_error`) and skipped.  Returns the
    number of files removed.
    """
    removed = 0
    now = time.time()
    try:
        candidates = list(root.glob("*.tmp"))
    except OSError as exc:
        _scan_error("prune", root, exc)
        return 0
    for path in candidates:
        try:
            if now - path.stat().st_mtime < STALE_TEMP_SECONDS:
                continue
            path.unlink()
            removed += 1
        except OSError as exc:
            _scan_error("prune", path, exc)
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
    raises here, inside :func:`_read_segment`, and every caller of the
    reader treats that as a bad segment.
    """

    def find_class(self, module, name):
        raise pickle.UnpicklingError(
            f"graph payloads contain no classes (refusing {module}.{name})"
        )


# ----------------------------------------------------------------------
# The directory layout
# ----------------------------------------------------------------------
class LocalDirBackend:
    """Raw segment storage: one directory of ``*.graph`` files.

    Stores opaque byte blobs (*segments*) under string keys and never
    interprets them — the header/checksum/unpickler contract lives in
    :func:`_read_segment` and :func:`encode_entry`.  Canonical snapshots (compaction output, and
    whole-graph entries from before delta segments) live at
    ``<key>.graph``; delta segments at
    ``<key>~<pid>_<sequence>_<token>.graph`` — the ``~`` suffix is
    writer-unique, so any number of processes can append segments for
    one key without ever racing on a file name.  Writes are a unique
    temp file plus an atomic rename; stale temp orphans are pruned on
    init.  Operations may raise ``OSError``; the store layer turns
    those into recorded cold misses.
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

    def canonical_path(self, key: str) -> Path:
        return self.root / f"{key}.graph"

    def _segment_paths(self, key: str) -> List[Path]:
        paths = []
        canonical = self.canonical_path(key)
        if canonical.exists():
            paths.append(canonical)
        paths.extend(sorted(self.root.glob(f"{key}~*.graph")))
        return paths

    def read_segments(self, key: str) -> List[Tuple[Path, bytes]]:
        """All segments for ``key``, canonical first, as (path, blob)."""
        out = []
        for path in self._segment_paths(key):
            try:
                out.append((path, path.read_bytes()))
            except FileNotFoundError:
                continue  # lost a race with compaction/prune: data moved
        return out

    def append_segment(self, key: str, blob: bytes) -> None:
        """Durably add one segment for ``key`` (never replaces)."""
        token = uuid.uuid4().hex[:8]
        path = self.root / (
            f"{key}~{os.getpid()}_{next(self._SEQUENCE):06d}_{token}.graph"
        )
        publish(path, blob)

    def write_canonical(self, key: str, blob: bytes, drop=()) -> None:
        """Publish ``blob`` as the canonical segment for ``key``.

        ``drop`` names the segment paths this blob supersedes.
        Segments appended by a concurrent writer *after* the caller
        read its paths survive — that is what lets compaction run under
        live writers.
        """
        path = self.canonical_path(key)
        publish(path, blob)
        for stale in drop:
            stale = Path(stale)
            if stale == path:
                continue
            try:
                stale.unlink()
            except OSError as exc:
                _scan_error("drop", stale, exc)

    def segment_heads(self, key: str) -> List[bytes]:
        """The header-line prefix of each of ``key``'s segments.

        Cheap (no payloads): the store dedups no-baseline full-segment
        flushes against the body checksums already on storage.
        """
        heads = []
        for path in self._segment_paths(key):
            try:
                with open(path, "rb") as handle:
                    heads.append(handle.readline(65536))
            except OSError as exc:
                _scan_error("segment_heads", path, exc)
        return heads

    def _key_of(self, path: Path) -> str:
        return path.stem.split("~", 1)[0]

    def keys(self) -> List[str]:
        """All keys with at least one segment, sorted."""
        try:
            return sorted({self._key_of(p) for p in self.root.glob("*.graph")})
        except OSError as exc:
            _scan_error("keys", self.root, exc)
            return []

    def stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-key ``(segment count, total bytes)``."""
        out: Dict[str, List[int]] = {}
        try:
            paths = list(self.root.glob("*.graph"))
        except OSError as exc:
            _scan_error("stats", self.root, exc)
            return {}
        for path in paths:
            try:
                size = path.stat().st_size
            except OSError as exc:
                _scan_error("stats", path, exc)
                continue
            record = out.setdefault(self._key_of(path), [0, 0])
            record[0] += 1
            record[1] += size
        return {key: (count, size) for key, (count, size) in out.items()}

    def delete_key(self, key: str) -> int:
        """Drop every segment of ``key``; returns segments removed."""
        removed = 0
        for path in self._segment_paths(key):
            try:
                path.unlink()
                removed += 1
            except OSError as exc:
                _scan_error("delete_key", path, exc)
        return removed


# ----------------------------------------------------------------------
# The store front end
# ----------------------------------------------------------------------
class GraphStore:
    """Serialized state graphs under one directory, keyed by
    ``(program digest, valuation, code version)``.

    Entry keys are ``<slug>-<program>-<valuation>-<version>`` — every
    identity component slugged into the key.
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

    All methods are best-effort: any I/O failure (and, on the read
    side, any parse error) is swallowed, counted, logged, and treated
    as a cold miss.  ``last_error`` keeps the most recent failure for
    diagnostics.
    """

    FORMAT = 1
    MAGIC = "repro-graph"

    def __init__(self, root, version: Optional[str] = None):
        self.backend = LocalDirBackend(root)
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
        #: Total serialized bytes written (bench metric).
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
            self._record("store.serialize_error", key, exc)
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
        except OSError as exc:
            self._record("store.flush_error", key, exc)
            return False
        self._flushed[key] = (weakref.ref(system), epoch, n_succ, n_options)
        self.saves += 1
        self.bytes_written += len(blob)
        return True

    def _already_stored(self, key: str, blob: bytes) -> bool:
        """Is this full segment's content already covered by the key?

        Fast path: some stored segment carries the identical body
        checksum (header reads only).  Slow path: merging the stored
        segments plus ours adds no config, successor entry or option
        entry — the full+delta shape a previous activation left behind.
        Counts suffice because memoised expansions of one config are
        the same in every segment, which :meth:`load_into`'s merge
        already assumes.  Best-effort throughout (any failure, a bad
        stored segment included, means "append anyway"); only consulted
        for no-baseline full segments, so the reads happen at most once
        per key per store lifetime.
        """
        try:
            heads = self.backend.segment_heads(key)
            if not heads:
                return False
            body_sha = self.parse_entry(blob)[0]["body_sha256"]
            for head in heads:
                described = self.describe_blob(head)
                if described is not None and \
                        described.get("body_sha256") == body_sha:
                    return True
            stored = [_read_segment(raw)
                      for _token, raw in self.backend.read_segments(key)]
            before = _merge_payloads(stored)[1]
            after = _merge_payloads(stored + [_read_segment(blob)])[1]
        except Exception:  # noqa: BLE001 — unreadable key: append
            return False
        return all(len(before[field]) == len(after[field])
                   for field in _COUNT_FIELDS)

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
        is decoded by :func:`_read_segment` (body checksum,
        class-refusing unpickler, entry counts), its header identity —
        program digest, valuation, code version, layout geometry — is
        compared with ``system``, and every action is rebuilt from the
        *current* bound rule list.  One stale, truncated or corrupted
        segment degrades the whole key to a cold miss (``cache
        compact`` repairs such keys by dropping the bad segment)
        instead of crashing or replaying stale semantics (see the
        module doc for the trusted-storage threat model).
        """
        key = self.key_for(system)
        try:
            faults.fire("graph_store.load", key)
            segments = self.backend.read_segments(key)
        except OSError as exc:
            self._record("store.load_error", key, exc)
            self.load_misses += 1
            return False
        if not segments:
            self.load_misses += 1
            return False
        try:
            for _token, raw in segments:
                header, payload = _read_segment(raw)
                self._check_header(header, system)
                counts = self._rebuild(system, payload)
        except Exception as exc:  # noqa: BLE001 — bad entry == cold miss
            # A partially-rebuilt cache would be correct but the entry
            # is untrusted now; drop everything this load touched.
            system._succ_cache.clear()
            system._options_cache.clear()
            self._flushed.pop(key, None)
            self._record("store.load_error", key, exc)
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

    def _check_header(self, header: dict, system) -> None:
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

    def _rebuild(self, system, payload: dict) -> Tuple[int, int]:
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
        action = program.action
        succ_cache = system._succ_cache
        for config_id, groups in payload["succ"]:
            rebuilt = []
            for rule_id, round_no, successor_ids in groups:
                rule = rules[rule_id]
                if rule.is_dirac:
                    (successor_id,) = successor_ids
                    rebuilt.append((
                        (action(rule.name, round_no), configs[successor_id]),
                    ))
                else:
                    if len(successor_ids) != len(rule.branch_names):
                        raise ValueError("branch count mismatch")
                    rebuilt.append(tuple(
                        (action(rule.name, round_no, name), configs[sid])
                        for name, sid in zip(rule.branch_names, successor_ids)
                    ))
            succ_cache[configs[config_id]] = tuple(rebuilt)
        options_cache = system._options_cache
        for config_id, pairs in payload["options"]:
            options_cache[configs[config_id]] = tuple(
                action(rules[rule_id].name, round_no)
                for rule_id, round_no in pairs
            )
        return len(succ_cache), len(options_cache)

    # ------------------------------------------------------------------
    # Maintenance (the ``harness cache`` CLI)
    # ------------------------------------------------------------------
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
        """Like :meth:`describe` for an in-memory segment or header line."""
        try:
            header = cls.parse_entry(raw)[0]
            if not isinstance(header, dict):
                return None
            header["valuation"] = dict(header.get("valuation") or ())
            if not isinstance(header.get("model"), str) or not all(
                isinstance(header.get(field), int) for field in _COUNT_FIELDS
            ):
                return None
            return header
        except (ValueError, TypeError):
            return None

    def _record(self, event: str, key: str, exc: BaseException) -> None:
        """Count, keep and log one swallowed failure (a cold miss)."""
        self.errors += 1
        self.last_error = exc
        logger.warning(
            "graph store failure (%s) on %s: %r", event, key, exc,
            extra={"event": event, "key": key, "error": repr(exc)},
        )


# ----------------------------------------------------------------------
# Entry encoding / compaction (payload-level, no model required)
# ----------------------------------------------------------------------
#: Header fields counting a payload's entries, checked on every read.
_COUNT_FIELDS = ("configs", "succ", "options")

#: Header fields every segment of one key must agree on to be merged.
_IDENTITY_FIELDS = ("model", "program", "valuation", "code_version", "block")


def encode_entry(header_core: dict, payload: dict) -> bytes:
    """Serialize one segment: header line + checksummed pickled payload."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = dict(header_core)
    for field in _COUNT_FIELDS:
        header[field] = len(payload[field])
    header["body_sha256"] = hashlib.sha256(body).hexdigest()
    head = (
        f"{GraphStore.MAGIC} {GraphStore.FORMAT} "
        f"{json.dumps(header, sort_keys=True)}\n"
    )
    return head.encode() + body


def _read_segment(raw: bytes) -> Tuple[dict, dict]:
    """Decode one segment into ``(header, payload)`` or raise.

    The one reader every consumer goes through: it parses the header
    line, checks the body sha256, unpickles through
    :class:`_SafeUnpickler` and checks the header's entry counts.
    Identity (which system the segment belongs to) is the caller's.
    """
    header, body = GraphStore.parse_entry(raw)
    if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
        raise ValueError("graph body checksum mismatch")
    payload = _SafeUnpickler(io.BytesIO(body)).load()
    if any(len(payload[field]) != header[field] for field in _COUNT_FIELDS):
        raise ValueError("entry count mismatch")
    return header, payload


def _validate_payload(payload: dict) -> None:
    """Id ranges and shapes of one decoded segment (model-free).

    Compaction merges payloads without a bound system, so the rule-list
    validation of :meth:`GraphStore._rebuild` is unavailable; this
    checks what is checkable at the data level and leaves semantic
    validation to the next load.
    """
    configs = payload["configs"]
    n = len(configs)
    if not all(isinstance(data, tuple) for data in configs):
        raise ValueError("config universe must be flat tuples")
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


def _compact_warning(event: str, key: str, exc: BaseException) -> None:
    """Log one swallowed compaction failure (``GraphStore._record``'s idiom)."""
    logger.warning(
        "graph store compaction failure (%s) on %s: %r", event, key, exc,
        extra={"event": event, "key": key, "error": repr(exc)},
    )


def compact_backend(backend: LocalDirBackend) -> Dict[str, int]:
    """Squash every key's delta segments into one canonical snapshot.

    Pure data-level merging (checksum-verified payload union), so it
    needs no protocol models.  Per key:
    checksum-corrupt or structurally-invalid segments are *dropped*
    (they would otherwise poison every load of the key); the remaining
    segments merge into a single canonical segment that replaces
    exactly the segments read — a concurrent writer's freshly-appended
    segment survives untouched, so compaction under a live fleet only
    ever trades duplicates for one extra merge at the next compaction.
    Best-effort throughout: a key that cannot be compacted is counted
    in ``errors`` and left as-is.  Every swallowed failure also logs one
    ``store.compact.*`` warning on this module's logger.
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
    except OSError as exc:
        stats["errors"] += 1
        _compact_warning("store.compact.keys_error", str(backend.root), exc)
        return stats
    for key in keys:
        stats["keys"] += 1
        try:
            segments = backend.read_segments(key)
        except OSError as exc:
            stats["errors"] += 1
            _compact_warning("store.compact.read_error", key, exc)
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
                header, payload = _read_segment(raw)
                _validate_payload(payload)
                entries.append((header, payload))
            except Exception as exc:  # noqa: BLE001 — bad segment: drop it
                corrupt += 1
                _compact_warning("store.compact.corrupt_segment", key, exc)
        stats["corrupt_dropped"] += corrupt
        if not corrupt and len(segments) == 1 and (
            segments[0][0] == backend.canonical_path(key)
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
        except Exception as exc:  # noqa: BLE001 — leave the key as it was
            stats["errors"] += 1
            _compact_warning("store.compact.write_error", key, exc)
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
    root, version: Optional[str] = None
) -> Optional[GraphStore]:
    """Install a store over directory ``root``; returns the previous one."""
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = GraphStore(root, version=version)
    return previous


def active_graph_store() -> Optional[GraphStore]:
    """The currently-installed process-wide store, or None."""
    return _ACTIVE_STORE


def deactivate_graph_store(
    previous: Optional[GraphStore] = None,
) -> None:
    """Clear (or restore) the process-wide store installation."""
    global _ACTIVE_STORE
    _ACTIVE_STORE = previous
