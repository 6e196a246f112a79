"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer (the table
:data:`TARGETS`) with timing or counting shims, keeps spans in memory,
and restores the original functions afterwards.  Nothing in ``src/``
knows it is being traced.

Self time: every timed wrapper pushes a frame; when a call returns its
duration is credited to its parent frame as child time, and its own
self time is duration minus child time.  Each timed pass has a root
frame, whose self time is the "uncovered" remainder (benchmark glue and
code in no wrapped layer).  Garbage-collector pauses, observed through
``gc.callbacks``, are credited as child time of whatever frame was
running and booked to the ``runtime.gc`` layer.  The sum over layers of
self time plus the uncovered remainder therefore equals the pass's wall
time exactly, by construction.

Hot functions (called per state, per message, per constraint) keep
aggregate totals only; coarse ones also record a span
``(id, key, start, end, parent, pass)``.
"""

from __future__ import annotations

import gc
import importlib
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional

#: spans kept in memory per traced worker (aggregates are never capped)
SPAN_CAP = 200_000


class Target(NamedTuple):
    module: str
    #: attribute path inside the module: "func" or "Class.method"
    attr: str
    #: the repo layer the time is booked to
    layer: str
    #: metric stem, unique per target
    key: str
    #: "span" (timed, self time) or "count" (call count only)
    kind: str = "span"
    #: keep individual span records (coarse functions only)
    record: bool = False


# Where a name is imported by value, the target is the module that
# looks it up at call time (e.g. ``float_feasible`` inside
# ``repro.checker.parameterized``), not the module that defines it.
TARGETS = (
    Target("repro.protocols.registry", "ProtocolEntry.build_model",
           "protocols", "protocols.build", record=True),
    Target("repro.protocols.registry", "ProtocolEntry.verification_model",
           "protocols", "protocols.build_refined", record=True),
    Target("repro.api.engines", "ExplicitEngine.run",
           "api.engines", "api.engines.explicit", record=True),
    Target("repro.api.engines", "ParameterizedEngine.run",
           "api.engines", "api.engines.parameterized", record=True),
    Target("repro.api.sweep", "SweepRunner.run",
           "api.sweep", "api.sweep.run", record=True),
    Target("repro.api.sweep", "run_task",
           "api.sweep", "api.sweep.task", record=True),
    Target("repro.counter.program", "ProtocolProgram.__init__",
           "counter.program", "counter.program.compile", record=True),
    Target("repro.counter.program", "ProtocolProgram.bind_rules",
           "counter.program", "counter.program.bind"),
    Target("repro.counter.system", "CounterSystem.successor_groups",
           "counter.system", "counter.system.successor"),
    Target("repro.counter.batch", "BatchExpander.expand_frontier",
           "counter.batch", "counter.batch.expand", record=True),
    Target("repro.checker.explicit", "ExplicitChecker.check_obligations",
           "checker.explicit", "checker.explicit.bundle", record=True),
    Target("repro.checker.explicit", "ExplicitChecker.check_reach",
           "checker.explicit", "checker.explicit.reach", record=True),
    Target("repro.checker.explicit", "ExplicitChecker.check_game",
           "checker.explicit", "checker.explicit.game", record=True),
    Target("repro.checker.explicit", "_mask",
           "checker.explicit", "checker.explicit.mask", kind="count"),
    Target("repro.checker.explicit", "is_non_blocking",
           "counter.fairness", "counter.fairness.non_blocking", record=True),
    Target("repro.checker.explicit", "all_fair_executions_terminate",
           "counter.fairness", "counter.fairness.fair_termination",
           record=True),
    Target("repro.checker.parameterized", "ParameterizedChecker.__init__",
           "checker.parameterized", "checker.parameterized.init",
           record=True),
    Target("repro.checker.parameterized", "ParameterizedChecker.check_reach",
           "checker.parameterized", "checker.parameterized.dfs", record=True),
    Target("repro.checker.parameterized", "ParameterizedChecker._set_feasible",
           "checker.parameterized", "checker.parameterized.set"),
    Target("repro.checker.parameterized", "count_schemas",
           "checker.schemas", "checker.schemas.count", record=True),
    Target("repro.checker.encoder", "SchemaEncoder.encode",
           "checker.encoder", "checker.encoder.encode"),
    Target("repro.checker.encoder", "SchemaEncoder.encode_set_relaxation",
           "checker.encoder", "checker.encoder.relax"),
    Target("repro.solver.linear", "LinearProblem.ge",
           "solver.linear", "solver.linear.ge"),
    Target("repro.solver.linear", "LinearProblem.le",
           "solver.linear", "solver.linear.le"),
    Target("repro.solver.linear", "LinearProblem.eq",
           "solver.linear", "solver.linear.eq"),
    Target("repro.checker.parameterized", "float_feasible",
           "solver.floatlp", "solver.floatlp.feasible"),
    Target("repro.checker.parameterized", "rounded_integer_model",
           "solver.floatlp", "solver.floatlp.rounded"),
    Target("repro.checker.parameterized", "lp_feasible",
           "solver.simplex", "solver.simplex.confirm"),
    Target("repro.checker.parameterized", "ilp_feasible",
           "solver.ilp", "solver.ilp.leaf"),
    Target("repro.counter.store", "GraphStore.flush",
           "counter.store", "counter.store.flush", record=True),
    Target("repro.counter.store", "GraphStore.load_into",
           "counter.store", "counter.store.load", record=True),
    Target("repro.counter.store", "LocalDirBackend.read_segments",
           "counter.store", "counter.store.read_io", record=True),
    Target("repro.counter.store", "LocalDirBackend.append_segment",
           "counter.store", "counter.store.append_io", record=True),
    Target("repro.counter.store", "LocalDirBackend.write_canonical",
           "counter.store", "counter.store.write_io", record=True),
    Target("repro.sim.fleet", "run_fleet",
           "sim.fleet", "sim.fleet.run", record=True),
    Target("repro.sim.runner", "Simulation.deliver",
           "sim.runner", "sim.runner.deliver"),
    Target("repro.sim.network", "Network.pending",
           "sim.network", "sim.network.pending"),
    Target("repro.sim.coin", "CommonCoin.get",
           "sim.coin", "sim.coin.get"),
)

#: every layer a self time is reported for (``runtime.gc`` included)
LAYERS = tuple(sorted({t.layer for t in TARGETS} | {"runtime.gc"}))


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    path = target.attr.split(".")
    for name in path[:-1]:
        owner = getattr(owner, name)
    return owner, path[-1]


def _observers(counts: Dict[str, int]):
    """Per-key (pre, post) hooks that turn arguments/results into counts.

    ``pre(args)`` runs before the call (for hit detection, which must
    see the cache as it was); ``post(args, result, pre_value)`` after.
    """

    def bump(name, amount=1):
        counts[name] += amount

    def successor_pre(args):
        system, config = args[0], args[1]
        return config in system._succ_cache

    def successor_post(args, result, hit):
        if hit:
            bump("counter.system.successor_hits")

    def set_pre(args):
        return args[1] in args[0]._set_cache

    def set_post(args, result, hit):
        if hit:
            bump("checker.parameterized.set_hits")

    def states_post(args, result, _pre):
        bump("checker.explicit.states", result.states_explored)

    def dfs_post(args, result, _pre):
        checker = args[0]
        bump("checker.parameterized.nodes", checker.nodes)
        bump("checker.parameterized.leaves", checker.leaves)
        bump("checker.parameterized.pruned", checker.pruned)

    def expand_post(args, result, _pre):
        bump("counter.batch.configs", result)

    def constraints_post(args, result, _pre):
        bump("solver.linear.constraints")

    def float_post(args, result, _pre):
        if result is not None:
            bump("solver.floatlp.decided")

    def flush_post(args, result, _pre):
        if result:
            bump("counter.store.flushes")

    def load_post(args, result, _pre):
        if result:
            bump("counter.store.load_hits")

    def write_post(args, result, _pre):
        bump("counter.store.bytes_written", len(args[2]))

    def fleet_post(args, result, _pre):
        bump("sim.fleet.instances", len(result.records))

    return {
        "counter.system.successor": (successor_pre, successor_post),
        "checker.parameterized.set": (set_pre, set_post),
        "checker.explicit.reach": (None, states_post),
        "checker.explicit.game": (None, states_post),
        "checker.parameterized.dfs": (None, dfs_post),
        "counter.batch.expand": (None, expand_post),
        "solver.linear.ge": (None, constraints_post),
        "solver.linear.le": (None, constraints_post),
        "solver.linear.eq": (None, constraints_post),
        "solver.floatlp.feasible": (None, float_post),
        "counter.store.flush": (None, flush_post),
        "counter.store.load": (None, load_post),
        "counter.store.append_io": (None, write_post),
        "counter.store.write_io": (None, write_post),
        "sim.fleet.run": (None, fleet_post),
    }


class Tracer:
    """Installs the wrappers, books self time, and keeps spans."""

    def __init__(self):
        #: frames: [start, child_time, span_id_for_children]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self.passes: Dict[str, dict] = {}
        self._originals: List[tuple] = []
        self._next_id = 1
        self._pass: Optional[str] = None
        self._gc_start = 0.0

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        observers = _observers(self.counts)
        for target in TARGETS:
            owner, name = _resolve(target)
            original = vars(owner)[name]
            if target.kind == "count":
                wrapper = self._counting(original, target.key)
            else:
                pre, post = observers.get(target.key, (None, None))
                wrapper = self._timing(original, target, pre, post)
            self._originals.append((owner, name, original))
            setattr(owner, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- wrappers --------------------------------------------------------
    def _counting(self, fn, key):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _timing(self, fn, target: Target, pre, post):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        key = target.key
        record = target.record

        def timed(*args, **kwargs):
            if not stack:  # outside a traced pass: plain call
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            parent = stack[-1]
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[2]
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_s[key] += duration - frame[1]
                parent[1] += duration
                calls[key] += 1
                if record:
                    tracer._record(span_id, key, frame[0], end, parent[2])
            if post is not None:
                post(args, result, token)
            return result

        timed.__wrapped__ = fn
        return timed

    def _record(self, span_id, key, start, end, parent_id) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, key, start, end, parent_id, self._pass))
        else:
            self.dropped_spans += 1

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.calls["runtime.gc"] += 1
        if self.stack:
            self.stack[-1][1] += pause
            self.self_s["runtime.gc"] += pause

    # -- passes ----------------------------------------------------------
    def begin_pass(self, name: str) -> None:
        if self.stack:
            raise RuntimeError("a traced pass is already open")
        self._pass = name
        self._before = (
            dict(self.self_s), dict(self.calls), dict(self.counts)
        )
        span_id = self._next_id
        self._next_id += 1
        self.stack.append([time.perf_counter(), 0.0, span_id])

    def end_pass(self) -> dict:
        frame = self.stack.pop()
        end = time.perf_counter()
        if self.stack:
            raise RuntimeError("unbalanced traced frames at pass end")
        wall = end - frame[0]
        self._record(frame[2], "pass", frame[0], end, 0)
        before_self, before_calls, before_counts = self._before
        summary = {
            "wall_s": wall,
            "uncovered_s": wall - frame[1],
            "self_s": _delta(self.self_s, before_self),
            "calls": _delta(self.calls, before_calls),
            "counts": _delta(self.counts, before_counts),
        }
        by_layer = dict.fromkeys(LAYERS, 0.0)
        layer_of = {t.key: t.layer for t in TARGETS}
        layer_of["runtime.gc"] = "runtime.gc"
        for key, seconds in summary["self_s"].items():
            by_layer[layer_of[key]] += seconds
        summary["layer_self_s"] = by_layer
        accounted = sum(by_layer.values()) + summary["uncovered_s"]
        if abs(accounted - wall) > 1e-6 * max(1.0, wall):
            raise RuntimeError(
                f"trace accounting is off: {accounted} vs wall {wall}"
            )
        self.passes[self._pass] = summary
        self._pass = None
        return summary


def _delta(now: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in now.items() if v != before.get(k, 0)}


def layer_metrics(summary: dict, configs: int) -> Dict[str, float]:
    """The named per-layer metrics of one traced pass."""
    s = summary["self_s"]
    c = summary["calls"]
    n = summary["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    succ_calls = c.get("counter.system.successor", 0)
    set_calls = c.get("checker.parameterized.set", 0)
    float_calls = c.get("solver.floatlp.feasible", 0)
    load_calls = c.get("counter.store.load", 0)
    nodes = n.get("checker.parameterized.nodes", 0)
    return {
        "runtime.gc.collections": c.get("runtime.gc", 0),
        "runtime.gc.pause_s": s.get("runtime.gc", 0.0),
        "protocols.build_s": s.get("protocols.build", 0.0)
        + s.get("protocols.build_refined", 0.0),
        "api.engines.self_s": s.get("api.engines.explicit", 0.0)
        + s.get("api.engines.parameterized", 0.0),
        "counter.program.compiles": c.get("counter.program.compile", 0),
        "counter.program.compile_s": s.get("counter.program.compile", 0.0),
        "counter.program.bind_s": s.get("counter.program.bind", 0.0),
        "counter.batch.expand_s": s.get("counter.batch.expand", 0.0),
        "counter.batch.configs": n.get("counter.batch.configs", 0),
        "counter.system.successor_calls": succ_calls,
        "counter.system.successor_s": s.get("counter.system.successor", 0.0),
        "counter.system.cache_hit_ratio": ratio(
            n.get("counter.system.successor_hits", 0), succ_calls),
        "counter.system.configs": configs,
        "checker.explicit.reach_s": s.get("checker.explicit.reach", 0.0),
        "checker.explicit.game_s": s.get("checker.explicit.game", 0.0),
        "checker.explicit.states": n.get("checker.explicit.states", 0),
        "checker.explicit.mask_calls": c.get("checker.explicit.mask", 0),
        "counter.fairness.side_s": s.get("counter.fairness.non_blocking", 0.0)
        + s.get("counter.fairness.fair_termination", 0.0),
        "checker.parameterized.dfs_s": s.get("checker.parameterized.dfs", 0.0),
        "checker.parameterized.nodes": nodes,
        "checker.parameterized.leaves": n.get("checker.parameterized.leaves", 0),
        "checker.parameterized.pruned": n.get("checker.parameterized.pruned", 0),
        "checker.parameterized.prune_ratio": ratio(
            n.get("checker.parameterized.pruned", 0), nodes),
        "checker.parameterized.set_calls": set_calls,
        "checker.parameterized.set_hits": n.get("checker.parameterized.set_hits", 0),
        "checker.encoder.encode_s": s.get("checker.encoder.encode", 0.0),
        "checker.encoder.encode_calls": c.get("checker.encoder.encode", 0),
        "checker.encoder.relax_s": s.get("checker.encoder.relax", 0.0),
        "solver.linear.constraints": n.get("solver.linear.constraints", 0),
        "solver.floatlp.solve_s": s.get("solver.floatlp.feasible", 0.0)
        + s.get("solver.floatlp.rounded", 0.0),
        "solver.floatlp.calls": float_calls,
        "solver.floatlp.decided_ratio": ratio(
            n.get("solver.floatlp.decided", 0), float_calls),
        "solver.simplex.confirm_s": s.get("solver.simplex.confirm", 0.0),
        "solver.simplex.calls": c.get("solver.simplex.confirm", 0),
        "solver.ilp.leaf_s": s.get("solver.ilp.leaf", 0.0),
        "solver.ilp.calls": c.get("solver.ilp.leaf", 0),
        "counter.store.flush_s": s.get("counter.store.flush", 0.0),
        "counter.store.flushes": n.get("counter.store.flushes", 0),
        "counter.store.bytes_written": n.get("counter.store.bytes_written", 0),
        "counter.store.io_s": s.get("counter.store.read_io", 0.0)
        + s.get("counter.store.append_io", 0.0)
        + s.get("counter.store.write_io", 0.0),
        "counter.store.load_s": s.get("counter.store.load", 0.0),
        "counter.store.load_hits": n.get("counter.store.load_hits", 0),
        "counter.store.load_hit_ratio": ratio(
            n.get("counter.store.load_hits", 0), load_calls),
        "api.sweep.self_s": s.get("api.sweep.run", 0.0)
        + s.get("api.sweep.task", 0.0),
        "api.sweep.tasks": c.get("api.sweep.task", 0),
        "sim.fleet.self_s": s.get("sim.fleet.run", 0.0),
        "sim.fleet.instances": n.get("sim.fleet.instances", 0),
        "sim.runner.deliver_s": s.get("sim.runner.deliver", 0.0),
        "sim.runner.deliveries": c.get("sim.runner.deliver", 0),
        "sim.network.pending_s": s.get("sim.network.pending", 0.0),
        "sim.network.pending_calls": c.get("sim.network.pending", 0),
        "sim.coin.tosses": c.get("sim.coin.get", 0),
    }


#: named metrics that also get a ``warm.`` copy (they move ``warm_s``)
WARM_METRICS = (
    "runtime.gc.collections",
    "runtime.gc.pause_s",
    "counter.system.successor_calls",
    "counter.system.cache_hit_ratio",
    "checker.explicit.reach_s",
    "checker.explicit.game_s",
    "checker.explicit.states",
    "checker.explicit.mask_calls",
    "counter.fairness.side_s",
    "counter.store.load_s",
    "counter.store.load_hits",
    "counter.store.load_hit_ratio",
    "api.sweep.self_s",
    "api.sweep.tasks",
)
