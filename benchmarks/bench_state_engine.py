#!/usr/bin/env python
"""State-engine throughput benchmark (states/sec trajectory).

Measures the three hot loops of the explicit-state engine on the
MMR14 refined model at the paper's cross-check valuation ``n=4, t=1,
f=1``:

* ``check_reach`` — BFS over (config, mask) pairs (A-queries CB0/CB1);
* ``check_game``  — game-graph construction + attractor (E-queries
  C2'(0)/C2'(1));
* ``frontier_batch`` — cold successor-expansion kernel, scalar
  (``successor_groups``) vs frontier-batched
  (:class:`repro.counter.batch.BatchExpander`), over the recorded BFS
  level frontiers of the reach space with caches cleared per pass;
* ``mdp_sample``  — Markov-chain path sampling under a random
  adversary (steps/sec);
* ``sim_fleet``   — message-level Monte Carlo instances/sec: the
  inline fleet vs the same fleet sharded over 2 pool workers, with
  bit-identical records asserted;
* ``sweep``       — tasks/sec over a protocol × valuation × target
  matrix, cold (shared program/system caches cleared per task,
  emulating per-task compilation) vs warm (process-wide
  ``ProtocolProgram`` + bound-system caches shared, as a persistent
  sharded sweep worker sees them);
* ``store_sweep`` — the same matrix against the persistent state-graph
  store: first run cold (populating the store, paying the writes),
  second run warm **from disk** with every in-process cache dropped —
  the speedup a fresh process gets from a previous process's work;
* ``store_backends`` — an incremental-exploration workload (the same
  keys revisited under growing state budgets) against the directory
  store (reported as ``dir``): bytes written by snapshot flushes and
  the warm-from-storage second-run time;
* ``parameterized`` — the paper's own pipeline: schema-DFS nodes/sec of
  the parameterized checker on validity (``inv2[0]``, ``inv2[1]``) for
  fmr05, cc85a and rabin83, with its time split into encode, float
  solve and exact confirm.

Every run appends one labelled entry to ``BENCH_state_engine.json`` so
the file accumulates a perf *trajectory* across PRs; regressions show
up as a drop against the previous entry.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_state_engine.py --label my-change
    PYTHONPATH=src python benchmarks/bench_state_engine.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_state_engine.py --label my-change \
        --sections parameterized  # record only the sections a change touched

The first recorded entry (label ``seed``) is the nested-tuple /
quadratic-attractor implementation this engine replaced; the
acceptance bar for the flat interned engine was >= 3x states/sec on
``check_reach`` and >= 5x on ``check_game`` against it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.checker.explicit import ExplicitChecker
from repro.counter.adversary import RandomAdversary
from repro.counter.mdp import sample_path
from repro.counter.system import CounterSystem
from repro.protocols import mmr14
from repro.spec.properties import PropertyLibrary

VALUATION = {"n": 4, "t": 1, "f": 1}


def bench_check_reach(checker: ExplicitChecker, repeats: int, warmup: bool) -> dict:
    lib = PropertyLibrary(checker.model)
    queries = [lib.cb(0), lib.cb(1), lib.inv1(0), lib.inv1(1)]
    if warmup:
        # One untimed pass: the smoke run then measures warm
        # steady-state throughput, comparable to the multi-repeat full
        # run (whose average is dominated by warm repeats) — that is
        # what the CI regression gate diffs against the recorded entry.
        for query in queries:
            checker.check_reach(query)
    states = 0
    elapsed = 0.0
    verdicts = []
    for _ in range(repeats):
        verdicts = []
        for query in queries:
            t0 = time.perf_counter()
            result = checker.check_reach(query)
            elapsed += time.perf_counter() - t0
            states += result.states_explored
            verdicts.append((query.name, result.verdict))
    return {
        "states": states,
        "seconds": elapsed,
        "states_per_sec": states / elapsed if elapsed else 0.0,
        "verdicts": verdicts,
    }


def bench_check_game(checker: ExplicitChecker, repeats: int, warmup: bool) -> dict:
    lib = PropertyLibrary(checker.model)
    queries = [lib.c2prime(0), lib.c2prime(1)]
    if warmup:
        for query in queries:
            checker.check_game(query)
    states = 0
    elapsed = 0.0
    verdicts = []
    for _ in range(repeats):
        verdicts = []
        for query in queries:
            t0 = time.perf_counter()
            result = checker.check_game(query)
            elapsed += time.perf_counter() - t0
            states += result.states_explored
            verdicts.append((query.name, result.verdict))
    return {
        "states": states,
        "seconds": elapsed,
        "states_per_sec": states / elapsed if elapsed else 0.0,
        "verdicts": verdicts,
    }


def _sweep_matrix(quick: bool):
    """The protocol × valuation × target task list both sweep benches use."""
    from repro import api
    from repro.protocols.registry import benchmark

    if quick:
        entries = [e for e in benchmark() if e.name in ("cc85a", "ks16", "fmr05")]
        deltas, targets, cap = (0, 1), ("validity",), 4_000
    else:
        entries = list(benchmark())
        deltas, targets, cap = (0, 1, 2), ("agreement", "validity"), 10_000
    tasks = []
    for entry in entries:
        for delta in deltas:
            valuation = dict(entry.small_valuation)
            valuation["n"] += delta
            for target in targets:
                tasks.append(api.VerificationTask(
                    protocol=entry.name, valuation=valuation,
                    targets=(target,), limits=api.Limits(max_states=cap),
                ))
    return tasks


def _stable_results(results):
    return [
        (r.task_id, r.verdict, tuple(
            (o.target,
             tuple((q.query, q.verdict, q.states_explored) for q in o.queries),
             tuple(sorted(o.side_conditions.items())))
            for o in r.obligations
        ))
        for r in results
    ]


def bench_sweep(quick: bool) -> dict:
    """Cold vs warm tasks/sec over a protocol × valuation × target matrix.

    The cross-validation workload: every registry protocol checked at
    several ``n`` with per-target tasks (the shape a sharded sweep
    shard executes).  The cold pass clears the process-wide program and
    system caches before *every* task — exactly the per-task
    recompilation cost the pre-program engine paid; the warm pass runs
    the same matrix against shared caches.  ``max_states`` bounds every
    task deterministically, and the two passes must agree bit-for-bit.
    """
    from repro.api.sweep import run_task
    from repro.counter.system import clear_shared_caches

    tasks = _sweep_matrix(quick)
    stable = _stable_results

    t0 = time.perf_counter()
    cold = []
    for task in tasks:
        clear_shared_caches()
        cold.append(run_task(task))
    cold_seconds = time.perf_counter() - t0

    clear_shared_caches()
    t0 = time.perf_counter()
    warm = [run_task(task) for task in tasks]
    warm_seconds = time.perf_counter() - t0

    if stable(cold) != stable(warm):
        raise AssertionError("cold and warm sweep passes disagree")
    return {
        "tasks": len(tasks),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_tasks_per_sec": len(tasks) / cold_seconds if cold_seconds else 0.0,
        "warm_tasks_per_sec": len(tasks) / warm_seconds if warm_seconds else 0.0,
        "warm_speedup": cold_seconds / warm_seconds if warm_seconds else 0.0,
    }


def bench_store_sweep(quick: bool) -> dict:
    """Second-run (warm-from-disk) speedup with the persistent graph store.

    The cross-process story of the store: the *first* sweep starts from
    nothing and persists every explored graph (paying the writes); the
    process-wide caches are then dropped wholesale — the second sweep
    sees exactly what a fresh process would — and re-runs the matrix
    warm from disk.  Reports must agree bit-for-bit; the acceptance
    bar for the store is >= 1.2x on the second run.
    """
    import shutil
    import tempfile

    from repro import api
    from repro.counter.system import clear_shared_caches

    tasks = _sweep_matrix(quick)
    store_dir = tempfile.mkdtemp(prefix="repro-graph-bench-")
    try:
        clear_shared_caches()
        t0 = time.perf_counter()
        first = api.sweep(tasks, graph_store=store_dir)
        cold_seconds = time.perf_counter() - t0

        clear_shared_caches()  # a fresh process, as far as the engine knows
        t0 = time.perf_counter()
        second = api.sweep(tasks, graph_store=store_dir)
        warm_seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    if _stable_results(first.results) != _stable_results(second.results):
        raise AssertionError("warm-from-disk sweep diverged from cold")
    return {
        "tasks": len(tasks),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_tasks_per_sec": len(tasks) / cold_seconds if cold_seconds else 0.0,
        "warm_tasks_per_sec": len(tasks) / warm_seconds if warm_seconds else 0.0,
        "warm_speedup": cold_seconds / warm_seconds if warm_seconds else 0.0,
    }


def bench_store_backends(quick: bool) -> dict:
    """Snapshot-flush bytes + warm-from-storage time of the graph store.

    The worst case for whole-graph snapshots: the same
    ``(protocol, valuation)`` keys revisited by consecutive tasks under
    *growing* ``max_states`` budgets, so each task extends the stored
    graph a little and each snapshot flush rewrites the whole grown
    graph.  The
    matrix runs twice (cold, then warm-from-storage with every
    in-process cache dropped) and both runs must agree bit for bit.
    The section keeps its name and its ``dir`` key so the trajectory
    stays comparable with entries that also measured other stores.
    """
    import shutil
    import tempfile

    from repro import api
    from repro.api.sweep import run_task
    from repro.counter.store import (
        activate_graph_store,
        active_graph_store,
        deactivate_graph_store,
    )
    from repro.counter.system import clear_shared_caches, flush_shared_graphs

    # Budgets sized against the actual reach spaces (cc85a fully
    # explores within ~2k (config, mask) states at n=4): each step must
    # genuinely deepen the stored graph or the comparison is vacuous.
    if quick:
        protocols = ("cc85a", "ks16")
        budgets = (100, 400, 2_000)
    else:
        protocols = ("cc85a", "ks16", "fmr05")
        budgets = (100, 400, 2_000, 20_000)
    tasks = [
        api.VerificationTask(protocol=protocol, targets=(target,),
                             limits=api.Limits(max_states=budget))
        for protocol in protocols
        for budget in budgets
        for target in ("validity", "agreement")
    ]

    def run_with_store(root):
        clear_shared_caches()
        previous = activate_graph_store(root)
        t0 = time.perf_counter()
        try:
            results = [run_task(task) for task in tasks]
            flush_shared_graphs()
            store = active_graph_store()
            measured = {
                "seconds": time.perf_counter() - t0,
                "bytes_written": store.bytes_written,
                "load_hits": store.load_hits,
            }
        finally:
            deactivate_graph_store(previous)
        return results, measured

    base = tempfile.mkdtemp(prefix="repro-store-backend-bench-")
    try:
        root = str(Path(base) / "graphs")
        first, cold = run_with_store(root)
        second, warm = run_with_store(root)
        if _stable_results(first) != _stable_results(second):
            raise AssertionError("warm-from-storage run diverged from cold")
        out = {
            "tasks": len(tasks),
            "dir": {
                "cold_seconds": cold["seconds"],
                "warm_seconds": warm["seconds"],
                "cold_bytes_written": cold["bytes_written"],
                "warm_bytes_written": warm["bytes_written"],
                "warm_load_hits": warm["load_hits"],
                "warm_speedup": (
                    cold["seconds"] / warm["seconds"]
                    if warm["seconds"] else 0.0
                ),
            },
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return out


def bench_frontier_batch(quick: bool) -> dict:
    """Cold frontier-expansion throughput: scalar vs batched kernel.

    The PR 8 tentpole measurement.  The warm ``check_reach`` /
    ``check_game`` sections above hit the successor cache and cannot
    see the expansion engine at all, so this section isolates the cold
    kernel: the MMR14-refined reach space is first explored once to
    record its genuine BFS level frontiers, then each engine expands
    those frontiers level by level against *cleared* caches — the
    scalar pass through ``successor_groups``, the batched pass through
    ``BatchExpander.expand_frontier`` — and the two cached group
    tables are asserted identical before any rate is reported.
    ``states`` counts the ``(action, successor)`` entries materialized
    into the cache; the GC is paused inside the timed region (both
    passes alike) so collection pauses don't decide the comparison.
    """
    import gc

    from repro.counter.batch import batch_available
    from repro.counter.system import clear_shared_caches

    if not batch_available():
        return {"skipped": "numpy unavailable"}

    cap = 20_000 if quick else 60_000
    clear_shared_caches()
    scout = CounterSystem(mmr14.refined_model(), VALUATION)
    levels = []
    frontier = list(scout.initial_configs())
    seen = set(frontier)
    while frontier and len(seen) < cap:
        levels.append(frontier)
        successors = []
        for config in frontier:
            for group in scout.successor_groups(config):
                for _action, succ in group:
                    if succ not in seen:
                        seen.add(succ)
                        successors.append(succ)
        frontier = successors

    def timed(run):
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        states = run()
        elapsed = time.perf_counter() - t0
        gc.enable()
        return states, elapsed

    def flattened(system, level_lists, sample):
        return [
            [(a.rule, a.round, a.branch, succ.data)
             for group in system._succ_cache[config]
             for a, succ in group]
            for level in level_lists
            for config in level[:sample]
        ]

    clear_shared_caches()
    scalar_system = CounterSystem(mmr14.refined_model(), VALUATION)
    scalar_levels = [
        [scalar_system.intern(c) for c in level] for level in levels
    ]

    def run_scalar():
        states = 0
        for level in scalar_levels:
            for config in level:
                for group in scalar_system.successor_groups(config):
                    states += len(group)
        return states

    scalar_states, scalar_seconds = timed(run_scalar)
    reference = flattened(scalar_system, scalar_levels, sample=200)

    clear_shared_caches()
    batched_system = CounterSystem(mmr14.refined_model(), VALUATION)
    batched_levels = [
        [batched_system.intern(c) for c in level] for level in levels
    ]
    expander = batched_system.batch_expander()

    def run_batched():
        for level in batched_levels:
            expander.expand_frontier(iter(level))
        return sum(
            len(group)
            for level in batched_levels
            for config in level
            for group in batched_system._succ_cache[config]
        )

    batched_states, batched_seconds = timed(run_batched)
    if batched_states != scalar_states:
        raise AssertionError(
            f"batched kernel produced {batched_states} successors, "
            f"scalar produced {scalar_states}"
        )
    if flattened(batched_system, batched_levels, sample=200) != reference:
        raise AssertionError("batched successor groups diverge from scalar")

    return {
        "model": "mmr14-refined",
        "levels": len(levels),
        "frontier_configs": sum(len(level) for level in levels),
        "states": scalar_states,
        "scalar": {
            "seconds": scalar_seconds,
            "states_per_sec": (
                scalar_states / scalar_seconds if scalar_seconds else 0.0
            ),
        },
        "batched": {
            "seconds": batched_seconds,
            "states_per_sec": (
                batched_states / batched_seconds if batched_seconds else 0.0
            ),
        },
        "speedup": (
            scalar_seconds / batched_seconds if batched_seconds else 0.0
        ),
    }


def bench_sim_fleet(quick: bool) -> dict:
    """Monte Carlo fleet throughput: inline vs a 2-worker pool.

    Runs the same MMR14 seed list through ``run_fleet(processes=1)``
    (one interpreter, one run after another) and ``processes=2`` (the
    seed list sharded over a supervised pool, spawn cost included), and
    asserts the two record lists are bit-identical before reporting
    either rate (the fleet's seed-reproducibility contract).
    """
    from repro.sim.fleet import run_fleet

    protocol, max_steps = "mmr14", 20_000
    runs = 200 if quick else 1000

    def timed(processes):
        t0 = time.perf_counter()
        report = run_fleet(protocol, runs=runs, max_steps=max_steps,
                           processes=processes)
        seconds = time.perf_counter() - t0
        return report, {
            "processes": processes,
            "seconds": seconds,
            "instances_per_sec": runs / seconds if seconds else 0.0,
        }

    inline, inline_rate = timed(1)
    pooled, pooled_rate = timed(2)
    if pooled.records != inline.records:
        raise AssertionError("pooled fleet records diverge from inline")
    return {
        "protocol": protocol,
        "runs": runs,
        "completion": inline.completion,
        "inline": inline_rate,
        "pooled": pooled_rate,
        "pooled_speedup": (
            inline_rate["seconds"] / pooled_rate["seconds"]
            if pooled_rate["seconds"] else 0.0
        ),
    }


#: parameterized section: protocol -> DFS nodes per inv2 query (the
#: counts pinned by tests/checker/data/param_verdicts.json)
PARAM_PROTOCOLS = {"fmr05": 113, "cc85a": 360, "rabin83": 467}


def bench_parameterized() -> dict:
    """Schema-DFS nodes/sec on validity, split into encode/solve/confirm.

    Calls ``check_reach`` directly on ``inv2[0]`` and ``inv2[1]`` on one
    :class:`ParameterizedChecker` per protocol, to measure the DFS rate
    over both queries; the engine itself (``check_obligations``) now
    reuses ``inv2[0]``'s outcome for its mirror ``inv2[1]``.  For the
    duration of the section the layer functions are wrapped with
    timers: *encode* is
    ``SchemaEncoder.encode`` plus ``encode_set_relaxation``, *solve* the
    float HiGHS feasibility (``float_feasible``), and *confirm* the exact
    work (``lp_feasible`` fallbacks, leaf ``rounded_integer_model`` and
    ``ilp_feasible``, each on the encoder's rows).  ``dfs_other`` is the
    rest: the DFS's own bookkeeping, schema counting and replay.  Node counts are asserted
    against the golden fixture's before any rate is reported.
    """
    import repro.checker.parameterized as parameterized
    from repro.checker.encoder import SchemaEncoder
    from repro.protocols.registry import by_name

    layers = {"encode": 0.0, "solve": 0.0, "confirm": 0.0}
    targets = [
        (SchemaEncoder, "encode", "encode"),
        (SchemaEncoder, "encode_set_relaxation", "encode"),
        (parameterized, "float_feasible", "solve"),
        (parameterized, "lp_feasible", "confirm"),
        (parameterized, "rounded_integer_model", "confirm"),
        (parameterized, "ilp_feasible", "confirm"),
    ]

    def timed(layer, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                layers[layer] += time.perf_counter() - t0
        return wrapper

    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in targets]
    out = {"queries": ["inv2[0]", "inv2[1]"], "protocols": {}}
    try:
        for owner, name, layer in targets:
            setattr(owner, name, timed(layer, vars(owner)[name]))
        for protocol, want_nodes in PARAM_PROTOCOLS.items():
            for layer in layers:
                layers[layer] = 0.0
            model = by_name(protocol).build_model()
            t0 = time.perf_counter()
            checker = parameterized.ParameterizedChecker(model)
            lib = PropertyLibrary(model)
            nodes = 0
            for value in (0, 1):
                result = checker.check_reach(lib.inv2(value))
                if result.verdict != "holds" or checker.nodes != want_nodes:
                    raise AssertionError(
                        f"{protocol} inv2[{value}]: {result.verdict}, "
                        f"{checker.nodes} nodes (want holds, {want_nodes})"
                    )
                nodes += checker.nodes
            seconds = time.perf_counter() - t0
            out["protocols"][protocol] = {
                "nodes": nodes,
                "seconds": seconds,
                "nodes_per_sec": nodes / seconds if seconds else 0.0,
                **{f"{layer}_seconds": value for layer, value in layers.items()},
                "dfs_other_seconds": seconds - sum(layers.values()),
            }
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    per_protocol = out["protocols"].values()
    nodes = sum(row["nodes"] for row in per_protocol)
    seconds = sum(row["seconds"] for row in per_protocol)
    out["nodes"] = nodes
    out["seconds"] = seconds
    out["nodes_per_sec"] = nodes / seconds if seconds else 0.0
    for layer in ("encode", "solve", "confirm", "dfs_other"):
        out[f"{layer}_seconds"] = sum(row[f"{layer}_seconds"] for row in per_protocol)
    return out


def bench_mdp_sample(
    checker: ExplicitChecker, paths: int, max_steps: int, warmup: bool
) -> dict:
    system = CounterSystem(checker.model, VALUATION)
    config = next(system.initial_configs())
    if warmup:
        # Enough untimed paths to warm the rule-option/successor caches
        # to steady state: the full run's 1000-path average is
        # warm-dominated, and the gate compares the smoke run to it.
        for seed in range(50):
            sample_path(system, config, RandomAdversary(seed=seed),
                        random.Random(seed), max_steps=max_steps)
    steps = 0
    t0 = time.perf_counter()
    for seed in range(paths):
        adversary = RandomAdversary(seed=seed)
        rng = random.Random(seed)
        path = sample_path(system, config, adversary, rng, max_steps=max_steps)
        steps += len(path)
    elapsed = time.perf_counter() - t0
    return {
        "steps": steps,
        "seconds": elapsed,
        "steps_per_sec": steps / elapsed if elapsed else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="dev", help="trajectory entry label")
    parser.add_argument(
        "--quick", action="store_true",
        help="single repetition / few paths with an untimed warm-up "
             "pass, i.e. warm steady-state throughput (CI smoke run)",
    )
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent
                            / "BENCH_state_engine.json"),
        help="trajectory JSON file to append to",
    )
    parser.add_argument(
        "--sections",
        help="comma-separated sections to run (default: all). An entry "
             "that records only some sections leaves the regression "
             "gate's other floors at the earlier entries",
    )
    args = parser.parse_args(argv)

    repeats = 1 if args.quick else 3
    # 1000 paths in BOTH modes: the sampler exhausts MMR14-refined
    # paths in ~22 steps, so the old 200/20-path samples measured tens
    # of milliseconds — pure timer noise, far too jittery for the CI
    # regression gate.  22k steps cost ~0.1s, trivial even for the
    # smoke run.  steps/sec is a rate, so entries stay comparable.
    paths = 1000
    max_steps = 400

    checker = ExplicitChecker(mmr14.refined_model(), VALUATION)
    sections = {
        "check_reach": lambda: bench_check_reach(checker, repeats,
                                                 warmup=args.quick),
        "check_game": lambda: bench_check_game(checker, repeats,
                                               warmup=args.quick),
        "frontier_batch": lambda: bench_frontier_batch(args.quick),
        "mdp_sample": lambda: bench_mdp_sample(checker, paths, max_steps,
                                               warmup=args.quick),
        "sim_fleet": lambda: bench_sim_fleet(args.quick),
        "sweep": lambda: bench_sweep(args.quick),
        "store_sweep": lambda: bench_store_sweep(args.quick),
        "store_backends": lambda: bench_store_backends(args.quick),
        "parameterized": bench_parameterized,
    }
    chosen = args.sections.split(",") if args.sections else list(sections)
    unknown = sorted(set(chosen) - set(sections))
    if unknown:
        parser.error(f"unknown sections {unknown}; choose from {list(sections)}")
    entry = {
        "label": args.label,
        "valuation": VALUATION,
        "model": "mmr14-refined",
        "quick": args.quick,
        **{name: run() for name, run in sections.items() if name in chosen},
    }

    out = Path(args.out)
    trajectory = []
    if out.exists():
        trajectory = json.loads(out.read_text()).get("trajectory", [])
    trajectory.append(entry)
    out.write_text(json.dumps({"trajectory": trajectory}, indent=2) + "\n")

    print(json.dumps(entry, indent=2))
    print(f"\nappended entry {args.label!r} to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
