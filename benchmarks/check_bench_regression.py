#!/usr/bin/env python
"""Bench regression gate: fresh smoke run vs the recorded trajectory.

Compares the last entry of a freshly-produced trajectory file (the CI
``--quick`` smoke of ``bench_state_engine.py``) against the *labelled*
entries committed in ``BENCH_state_engine.json`` and fails on a >30%
drop in any state-engine throughput metric (``check_reach``/
``check_game`` states/sec, the ``frontier_batch`` batched kernel
states/sec and its scalar-vs-batched speedup, ``mdp_sample``
steps/sec, ``parameterized`` schema-DFS nodes/sec).  Each metric's
baseline is the last labelled full entry that records it, so an entry
may record only the sections its change touched (``--sections``) and
leave the other floors where they were.  Metrics no labelled entry
records yet are skipped with a note.
The sweep and sim_fleet sections are informational only — quick and
full runs use different matrices / fleet sizes, so their rates are not
comparable.

Usage::

    python benchmarks/check_bench_regression.py /tmp/bench_ci.json \
        BENCH_state_engine.json [--threshold 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: metric path within an entry -> human label.  Paths may be nested;
#: a metric no baseline entry records (a section newer than every
#: labelled entry) is skipped with a note rather than failing the gate.
METRICS = {
    ("check_reach", "states_per_sec"): "check_reach states/sec",
    ("check_game", "states_per_sec"): "check_game states/sec",
    ("frontier_batch", "batched", "states_per_sec"):
        "frontier_batch batched states/sec",
    ("frontier_batch", "speedup"): "frontier_batch speedup",
    ("mdp_sample", "steps_per_sec"): "mdp_sample steps/sec",
    ("parameterized", "nodes_per_sec"): "parameterized DFS nodes/sec",
}


def metric_at(entry: dict, path: tuple):
    """The metric at a (possibly nested) path, or ``None`` if absent."""
    node = entry
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


#: Labels that never serve as a baseline: the bench default and the CI
#: smoke label are transient local/runner measurements, not records.
TRANSIENT_LABELS = ("dev", "ci-smoke")


def entries(path: Path, labelled_full_only: bool = False) -> list:
    """Trajectory entries, oldest first; optionally only *labelled full* ones.

    The baseline side skips ``--quick`` entries (different repeat
    counts — not comparable) and transiently-labelled ones (``dev``,
    ``ci-smoke``), so a stray local smoke run appended to the committed
    file cannot silently become the regression baseline.
    """
    trajectory = json.loads(path.read_text())["trajectory"]
    if labelled_full_only:
        trajectory = [
            entry for entry in trajectory
            if not entry.get("quick") and entry["label"] not in TRANSIENT_LABELS
        ]
    if not trajectory:
        raise SystemExit(f"{path}: no usable trajectory entry")
    return trajectory


def baseline_for(baselines: list, path: tuple):
    """``(entry, value)`` of the last baseline entry recording ``path``."""
    for entry in reversed(baselines):
        value = metric_at(entry, path)
        if value is not None:
            return entry, value
    return None, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=Path,
                        help="trajectory JSON written by the smoke run")
    parser.add_argument("baseline", type=Path,
                        help="committed trajectory JSON (BENCH_state_engine.json)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated fractional drop (default 0.30)")
    args = parser.parse_args(argv)

    fresh = entries(args.fresh)[-1]
    baselines = entries(args.baseline, labelled_full_only=True)
    print(f"gate: {fresh['label']!r} (fresh) vs the last labelled entry "
          f"recording each metric, threshold {args.threshold:.0%}")

    failed = False
    for path, label in METRICS.items():
        got = metric_at(fresh, path)
        baseline, want = baseline_for(baselines, path)
        if got is None or want is None:
            side = "the fresh entry" if got is None else "every baseline entry"
            print(f"  {label:34s} skipped (absent from {side})")
            continue
        floor = want * (1.0 - args.threshold)
        ratio = got / want if want else float("inf")
        status = "ok" if got >= floor else "REGRESSION"
        print(f"  {label:34s} {got:12,.2f} vs {want:12,.2f} "
              f"({ratio:5.2f}x, floor {floor:,.2f}, {baseline['label']}) {status}")
        if got < floor:
            failed = True

    fleet = fresh.get("sim_fleet")
    if fleet:
        print(f"  sim_fleet (informational)    inline "
              f"{fleet['inline']['instances_per_sec']:.1f}/s -> "
              f"pooled×{fleet['pooled']['processes']} "
              f"{fleet['pooled']['instances_per_sec']:.1f}/s over "
              f"{fleet['runs']} runs ({fleet['pooled_speedup']:.2f}x)")
    sweep = fresh.get("sweep")
    if sweep:
        print(f"  sweep (informational)        cold {sweep['cold_tasks_per_sec']:.2f} "
              f"-> warm {sweep['warm_tasks_per_sec']:.2f} tasks/sec "
              f"({sweep['warm_speedup']:.2f}x warm speedup)")
    store = fresh.get("store_sweep")
    if store:
        print(f"  store_sweep (informational)  cold {store['cold_tasks_per_sec']:.2f} "
              f"-> warm-from-disk {store['warm_tasks_per_sec']:.2f} tasks/sec "
              f"({store['warm_speedup']:.2f}x second-run speedup)")
    backends = fresh.get("store_backends")
    if backends:
        print(f"  store_backends (informational)  delta flushes wrote "
              f"{backends['dir']['cold_bytes_written']:,} bytes; "
              f"cold {backends['dir']['cold_seconds']:.2f}s -> warm "
              f"{backends['dir']['warm_seconds']:.2f}s")

    param = fresh.get("parameterized")
    if param:
        print(f"  parameterized (informational)  {param['seconds']:.2f}s: "
              f"encode {param['encode_seconds']:.2f}s, "
              f"solve {param['solve_seconds']:.2f}s, "
              f"confirm {param['confirm_seconds']:.2f}s, "
              f"dfs other {param['dfs_other_seconds']:.2f}s")

    if failed:
        print("bench regression gate FAILED", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
