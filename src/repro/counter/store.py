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
:class:`LocalDirBackend` is the one place that knows its layout: each
key has one snapshot file, ``<key>.graph``, holding that system's whole
graph.  A snapshot is a header line with the identity fields, entry
counts and a body sha256 checksum, then a pickled int-tuple payload
loaded through a class-refusing restricted unpickler.  One reader,
:func:`_read_segment`, enforces that contract.

Snapshot rule
-------------
A flush replaces the key's snapshot with the system's full graph, and
only when the system holds more cache entries (successor plus option
entries) than the snapshot: the one this store last loaded or wrote
for the key, else the entry counts on the header line of the file
already there (another store's).  So an unchanged graph writes
nothing, and a smaller system never replaces a larger snapshot.  A
failed load counts the key's snapshot as empty, so the next flush
overwrites a corrupt snapshot with a good one.
Concurrent writers of one key end with one writer's complete graph.

Durability contract (shared with :class:`~repro.api.sweep.ResultCache`
through :func:`publish`):

* writes go to a **unique per-writer temp file**
  (``<name>.<pid>.<token>.tmp``) followed by an atomic
  :meth:`~pathlib.Path.replace`, so concurrent writers of one key
  interleave freely and readers only ever see complete snapshots;
* all I/O is **best-effort** — a missing, truncated, hand-edited or
  stale entry (or a full disk) is a cold miss recorded on the store
  and logged as one ``store.*`` warning on this module's logger
  (quiet unless the application configures logging), never a crash;
  entries carry a body checksum so accidental corruption is detected
  rather than deserialized, and payloads load through a restricted
  unpickler that refuses every class lookup, so a crafted pickle
  cannot execute code;
* temp-file orphans from crashed writers are pruned when a store
  opens its directory; snapshots of any other code version are stale
  and ``harness cache prune`` removes them.

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
import json
import logging
import os
import pickle
import time
import uuid
import weakref
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

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
            pass  # silent by contract: the write's own OSError is re-raised
        raise


def _scan_error(op: str, path, exc: OSError) -> None:
    """Log one swallowed directory error, unless it is a benign race.

    ``FileNotFoundError`` means a concurrent writer or pruner moved
    the file first, which is expected and stays silent; anything else
    (permissions, I/O) logs one ``store.scan_error`` warning on this
    module's logger, quiet unless the application configures logging.
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
        """Drop the table and every dependent's derived caches together."""
        self.table.clear()
        for system in self._dependents:
            system._succ_cache.clear()
            system._options_cache.clear()

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
    reader treats that as a bad snapshot.
    """

    def find_class(self, module, name):
        raise pickle.UnpicklingError(
            f"graph payloads contain no classes (refusing {module}.{name})"
        )


# ----------------------------------------------------------------------
# The directory layout
# ----------------------------------------------------------------------
class LocalDirBackend:
    """Raw snapshot storage: one directory of ``<key>.graph`` files.

    Stores opaque byte blobs under string keys and never interprets
    them — the header/checksum/unpickler contract lives in
    :func:`_read_segment` and :func:`encode_entry`.  Writes are a
    unique temp file plus an atomic rename; stale temp orphans are
    pruned on init.  Operations may raise ``OSError``; the store layer
    turns those into recorded cold misses.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        prune_stale_temp_files(self.root)

    def canonical_path(self, key: str) -> Path:
        return self.root / f"{key}.graph"

    def read_segments(self, key: str) -> List[Tuple[Path, bytes]]:
        """``key``'s snapshot as ``[(path, blob)]``, or ``[]`` if absent."""
        path = self.canonical_path(key)
        try:
            return [(path, path.read_bytes())]
        except FileNotFoundError:
            return []

    def write_canonical(self, key: str, blob: bytes) -> None:
        """Atomically replace ``key``'s snapshot with ``blob``."""
        publish(self.canonical_path(key), blob)

    #: An alias of :meth:`write_canonical`, kept because
    #: ``perfbench/tracing.py`` looks it up by name.
    append_segment = write_canonical


# ----------------------------------------------------------------------
# The store front end
# ----------------------------------------------------------------------
class GraphStore:
    """Serialized state graphs under one directory, keyed by
    ``(program digest, valuation, code version)``.

    Entry keys are ``<slug>-<program>-<valuation>-<version>`` — every
    identity component slugged into the key.
    Each snapshot is one header line — ``repro-graph <format> <json>``
    with the identity fields, entry counts and a body checksum —
    followed by a pickled payload of plain int tuples: the config
    universe (flat cell tuples) and the successor/option caches as
    indices into it.  Successor groups are stored as ``(rule index,
    round, successor ids)``; actions are *rebuilt* from the program's
    rule list on load, so a payload can never inject structure that the
    current code version would not itself produce.

    Flushes follow the module's snapshot rule: the full graph replaces
    the key's snapshot when the system outgrew it.

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
        #: key -> cache entries (succ plus option entries) of the
        #: key's snapshot: last loaded or written by this store, read
        #: from the file's header line on a first flush, or 0 after a
        #: failed load.
        self._stored: Dict[str, int] = {}
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
        """Replace ``system``'s snapshot if its graph outgrew the stored one.

        Returns True when a snapshot was written.  Never raises: a disk
        failure marks the store errored and the caller moves on — the
        store is an optimization, not a dependency.
        """
        key = self.key_for(system)
        entries = len(system._succ_cache) + len(system._options_cache)
        if key not in self._stored:
            header = self.describe(self.backend.canonical_path(key))
            self._stored[key] = (
                header["succ"] + header["options"] if header else 0
            )
        if entries <= self._stored[key]:
            return False
        try:
            blob = self._serialize(system)
        except Exception as exc:  # noqa: BLE001 — never kill the caller
            self._record("store.serialize_error", key, exc)
            return False
        # Chaos hook: a "corrupt" rule flips a byte of what lands on
        # storage, so the next load sees a real checksum mismatch.
        blob = faults.transform("graph_store.flush", key, blob)
        try:
            # Chaos hook inside the guard: an injected OSError takes the
            # exact recorded-error path a real disk failure would.
            faults.fire("graph_store.flush", key)
            self.backend.write_canonical(key, blob)
        except OSError as exc:
            self._record("store.flush_error", key, exc)
            return False
        self._stored[key] = entries
        self.saves += 1
        self.bytes_written += len(blob)
        return True

    def _serialize(self, system) -> bytes:
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

        succ: List[tuple] = []
        for config, groups in system._succ_cache.items():
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
        for config, actions in system._options_cache.items():
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
            # Always [0, 0]; kept so FORMAT 1 files stay byte-stable.
            "segment": [0, 0],
        }
        return encode_entry(header, payload)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load_into(self, system) -> bool:
        """Warm ``system``'s caches from storage; False is a cold miss.

        The key's snapshot is decoded by :func:`_read_segment` (body
        checksum, class-refusing unpickler, entry counts), its header
        identity — program digest, valuation, code version, layout
        geometry — is compared with ``system``, and every action is
        rebuilt from the *current* bound rule list.  A stale, truncated
        or corrupted snapshot is a cold miss, not a crash or a replay
        of stale semantics (see the module doc for the trusted-storage
        threat model); the store counts the snapshot as empty, so the
        next flush overwrites it.
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
            ((_path, raw),) = segments
            header, payload = _read_segment(raw)
            self._check_header(header, system)
            entries = self._rebuild(system, payload)
        except Exception as exc:  # noqa: BLE001 — bad entry == cold miss
            # A partially-rebuilt cache would be correct but the entry
            # is untrusted now; drop everything this load touched.
            system._succ_cache.clear()
            system._options_cache.clear()
            self._stored[key] = 0
            self._record("store.load_error", key, exc)
            self.load_misses += 1
            return False
        self._stored[key] = entries
        self.load_hits += 1
        return True

    @classmethod
    def parse_entry(cls, raw: bytes) -> Tuple[dict, bytes]:
        """Split one snapshot into (header dict, body bytes) or raise."""
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

    def _rebuild(self, system, payload: dict) -> int:
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
        return len(succ_cache) + len(options_cache)

    # ------------------------------------------------------------------
    # Maintenance (the ``harness cache`` CLI)
    # ------------------------------------------------------------------
    @classmethod
    def entry_version(cls, path: Path) -> Optional[str]:
        """The code-version component of an entry's file name."""
        return key_version(Path(path).stem)

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
            return None  # silent by contract: None is the "unreadable" answer

    @classmethod
    def describe_blob(cls, raw: bytes) -> Optional[dict]:
        """Like :meth:`describe` for an in-memory snapshot or header line."""
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
            return None  # silent by contract: None is the "corrupt" answer

    def _record(self, event: str, key: str, exc: BaseException) -> None:
        """Count, keep and log one swallowed failure (a cold miss)."""
        self.errors += 1
        self.last_error = exc
        logger.warning(
            "graph store failure (%s) on %s: %r", event, key, exc,
            extra={"event": event, "key": key, "error": repr(exc)},
        )


# ----------------------------------------------------------------------
# Entry encoding (payload-level, no model required)
# ----------------------------------------------------------------------
#: Header fields counting a payload's entries, checked on every read.
_COUNT_FIELDS = ("configs", "succ", "options")


def encode_entry(header_core: dict, payload: dict) -> bytes:
    """Serialize one snapshot: header line + checksummed pickled payload."""
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
    """Decode one snapshot into ``(header, payload)`` or raise.

    Parses the header line, checks the body sha256, unpickles through
    :class:`_SafeUnpickler` and checks the header's entry counts.
    Identity (which system the snapshot belongs to) is the caller's.
    """
    header, body = GraphStore.parse_entry(raw)
    if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
        raise ValueError("graph body checksum mismatch")
    payload = _SafeUnpickler(io.BytesIO(body)).load()
    if any(len(payload[field]) != header[field] for field in _COUNT_FIELDS):
        raise ValueError("entry count mismatch")
    return header, payload


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
