"""CLI: verification front end + regeneration of the paper's artifacts.

Usage::

    python -m repro.harness                       # list experiments
    python -m repro.harness table4                # one experiment
    python -m repro.harness all [--slow]          # all quick experiments

    # the repro.api front end
    python -m repro.harness verify mmr14 --json
    python -m repro.harness verify mmr14 --valuation n=4,t=1,f=1 \
        --engine explicit --target termination
    python -m repro.harness verify cc85a --coin disagreeing:1/8
    python -m repro.harness sweep --protocols cc85a,ks16 \
        --coin perfect --coin biased:1/4 --targets agreement
    python -m repro.harness sweep --processes 4 --targets validity \
        --cache-dir .repro-cache --graph-store .repro-cache/graphs --json

    # crash-resilient fleets: supervised timeouts and bounded retries;
    # an interrupted sweep is finished by running it again with the
    # same --cache-dir (finished tasks come back as cache hits)
    python -m repro.harness sweep --processes 4 --task-timeout 300 \
        --retries 3 --cache-dir .repro-cache

    # concurrent Monte Carlo fleets on the executable substrate
    python -m repro.harness simulate mmr14 --runs 2000 --json
    python -m repro.harness simulate cc85b --coin biased:1/4 \
        --processes 4 --runs 5000
    python -m repro.harness simulate mmr14 --scheduler adaptive \
        --runs 50 --max-steps 4000

    # verification as a service: a long-running daemon over one warm
    # worker fleet, and thin-client runs against it
    python -m repro.harness serve --port 8123 --processes 4 \
        --cache-dir .repro-service
    python -m repro.harness verify mmr14 --server http://127.0.0.1:8123
    python -m repro.harness sweep --server http://127.0.0.1:8123 --json

    # on-disk cache maintenance (result cache + state-graph store)
    python -m repro.harness cache info    --dir .repro-cache
    python -m repro.harness cache prune   --dir .repro-cache
    python -m repro.harness cache clear   --dir .repro-cache
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import api
from repro import service as service_api
from repro.counter.store import (
    STALE_TEMP_SECONDS,
    GraphStore,
    _scan_error,
    check_graph_store_dir,
)
from repro.core.coinspec import parse_coin_spec
from repro.errors import ValidationError
from repro.harness.experiments import REGISTRY, run_all, run_experiment
from repro.protocols.registry import names as protocol_names


def _parse_valuation(text: str) -> Dict[str, int]:
    """``"n=4,t=1,f=1"`` → ``{"n": 4, "t": 1, "f": 1}``."""
    valuation = {}
    for pair in text.split(","):
        key, sep, value = pair.partition("=")
        try:
            if not sep:
                raise ValueError
            valuation[key.strip()] = int(value)
        except ValueError:
            raise SystemExit(
                f"bad valuation component {pair!r}; want name=int"
            ) from None
    return valuation


def _parse_coin(text: str):
    """``"perfect"`` / ``"biased:1/4"`` / ... -> a CoinSpec."""
    try:
        return parse_coin_spec(text)
    except ValidationError as exc:
        raise SystemExit(f"bad --coin {text!r}: {exc}") from None


def _store_dir(text: str) -> str:
    """A graph-store or cache directory argument, checked up front."""
    try:
        check_graph_store_dir(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _limits(args: argparse.Namespace) -> api.Limits:
    return api.Limits(
        max_states=args.max_states,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
    )


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-states", type=int, default=None,
                        help="explicit engine: state budget per query")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help="parameterized engine: schema-tree node budget")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="wall-clock budget per obligation bundle")


def _add_pool_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph-store", type=_store_dir, default=None,
                        metavar="DIR",
                        help="persistent state-graph store directory; "
                        "workers warm explored graphs from it on startup "
                        "and rewrite a graph's snapshot after a task that "
                        "grew it (results stay bit-identical)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="supervisor-enforced wall clock per task: a "
                        "hung task gets its worker killed and is retried "
                        "or recorded as an error")
    parser.add_argument("--retries", type=int, default=None,
                        metavar="ATTEMPTS",
                        help="max attempts per task for transient failures "
                        "(worker crash, timeout, max_seconds trip, I/O "
                        "error); default 3, 1 disables retrying")


def _cmd_verify(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness verify",
        description="Verify one benchmark protocol through repro.api.",
    )
    parser.add_argument("protocol",
                        help="registry name: " + ", ".join(protocol_names()))
    parser.add_argument("--valuation", type=_parse_valuation, default=None,
                        metavar="n=4,t=1,f=1",
                        help="parameters (default: the registry's smallest)")
    parser.add_argument("--engine", default="explicit",
                        choices=api.engine_names())
    parser.add_argument("--target", action="append", choices=api.TARGETS,
                        help="repeatable; default: all three properties")
    parser.add_argument("--coin", type=_parse_coin, default=None,
                        metavar="SPEC",
                        help="coin model the registry models are built "
                        "under: perfect (default), biased:P1, "
                        "failing:DELTA, disagreeing:RHO")
    parser.add_argument("--json", action="store_true",
                        help="emit the TaskResult as JSON")
    parser.add_argument("--cache-dir", default=None,
                        help="serve/store this task through the sweep's "
                        "on-disk result cache (identical re-runs answer "
                        "in milliseconds)")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="run on a verification daemon instead of "
                        "locally (see 'serve'); caching then happens "
                        "server-side and --cache-dir is ignored")
    _add_limit_flags(parser)
    args = parser.parse_args(argv)

    if args.server:
        task = api.VerificationTask(
            protocol=args.protocol,
            valuation=args.valuation,
            targets=tuple(args.target) if args.target else (),
            engine=args.engine,
            limits=_limits(args),
            coin=args.coin,
        )
        try:
            result = service_api.ServiceClient(args.server).verify(task)
        except service_api.ServiceError as exc:
            print(f"verify --server: {exc}", file=sys.stderr)
            return 2
    else:
        result = api.verify(
            args.protocol,
            valuation=args.valuation,
            targets=tuple(args.target) if args.target else None,
            engine=args.engine,
            limits=_limits(args),
            coin=args.coin,
            cache_dir=args.cache_dir,
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result)
        if result.counterexample is not None:
            print(f"\ncounterexample: {result.counterexample}")
    return 0


def _cmd_sweep(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness sweep",
        description="Run a protocol x valuation x engine sweep in parallel.",
    )
    parser.add_argument("--protocols", default=None,
                        help="comma-separated registry names (default: all 8)")
    parser.add_argument("--engines", default="explicit",
                        help="comma-separated engines (default: explicit)")
    parser.add_argument("--targets", default=",".join(api.TARGETS),
                        help="comma-separated obligation targets")
    parser.add_argument("--valuation", action="append", type=_parse_valuation,
                        default=None, metavar="n=4,t=1,f=1",
                        help="repeatable: add a valuation to the matrix "
                        "(default: each protocol's smallest)")
    parser.add_argument("--coin", action="append", type=_parse_coin,
                        default=None, metavar="SPEC",
                        help="repeatable: add a coin model to the matrix "
                        "(perfect, biased:P1, failing:DELTA, "
                        "disagreeing:RHO; default: perfect only)")
    parser.add_argument("--processes", type=int, default=1,
                        help="worker pool size (1 = inline)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk result cache directory; running an "
                        "interrupted sweep again with the same directory "
                        "re-executes only what is not cached")
    _add_pool_flags(parser)
    parser.add_argument("--server", default=None, metavar="URL",
                        help="run the matrix on a verification daemon "
                        "instead of locally (see 'serve'); execution "
                        "flags (--processes, --cache-dir, --graph-store, "
                        "--task-timeout, --retries) then "
                        "belong to the daemon and are ignored here")
    parser.add_argument("--json", action="store_true",
                        help="emit the RunReport as JSON")
    _add_limit_flags(parser)
    args = parser.parse_args(argv)

    if args.server:
        ignored = [
            flag for flag, value in (
                ("--processes", args.processes != 1),
                ("--cache-dir", args.cache_dir is not None),
                ("--graph-store", args.graph_store is not None),
                ("--task-timeout", args.task_timeout is not None),
                ("--retries", args.retries is not None),
            ) if value
        ]
        if ignored:
            print(f"sweep --server: ignoring local execution flags "
                  f"{', '.join(ignored)} (the daemon owns execution)",
                  file=sys.stderr)
        tasks = api.task_matrix(
            protocols=args.protocols.split(",") if args.protocols else None,
            valuations=args.valuation,
            engines=args.engines.split(","),
            targets=args.targets.split(","),
            limits=_limits(args),
            coins=tuple(args.coin) if args.coin else (None,),
        )
        try:
            report = service_api.ServiceClient(args.server).submit(tasks)
        except service_api.ServiceError as exc:
            print(f"sweep --server: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.summary())
        return 0 if report.verdict != "error" else 1

    report = api.sweep(
        protocols=args.protocols.split(",") if args.protocols else None,
        valuations=args.valuation,
        engines=args.engines.split(","),
        targets=args.targets.split(","),
        limits=_limits(args),
        coins=tuple(args.coin) if args.coin else None,
        processes=args.processes,
        cache_dir=args.cache_dir,
        graph_store=args.graph_store,
        task_timeout=args.task_timeout,
        retry=args.retries,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.verdict != "error" else 1


def _cmd_simulate(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness simulate",
        description="Run a concurrent Monte Carlo fleet of one protocol "
        "on the executable message-passing substrate and report the "
        "empirical termination statistics (seed-reproducible).",
    )
    parser.add_argument("protocol",
                        help="registry name: " + ", ".join(protocol_names()))
    parser.add_argument("--runs", type=int, default=1000,
                        help="fleet size (default: 1000 instances)")
    parser.add_argument("--coin", type=_parse_coin, default=None,
                        metavar="SPEC",
                        help="coin model: perfect (default), biased:P1, "
                        "failing:DELTA, disagreeing:RHO")
    parser.add_argument("--scheduler", default="random",
                        choices=("random", "adaptive"),
                        help="random delivery or the §II adaptive coin "
                        "attack (category C protocols only)")
    parser.add_argument("--max-steps", type=int, default=20_000,
                        help="delivery budget per instance")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; run i uses decorrelated streams "
                        "derived from seed + i")
    parser.add_argument("--processes", type=int, default=1,
                        help="shard the fleet over a supervised worker "
                        "pool (1 = run every seed in this process)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full FleetReport as JSON")
    args = parser.parse_args(argv)

    from repro.sim.fleet import run_fleet
    try:
        report = run_fleet(
            args.protocol,
            coin=args.coin,
            runs=args.runs,
            scheduler=args.scheduler,
            max_steps=args.max_steps,
            base_seed=args.seed,
            processes=args.processes,
        )
    except (KeyError, ValueError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    summary = report.summary()
    lo, hi = summary["completion_ci99"]
    print(f"fleet          {report.protocol} coin={report.coin} "
          f"scheduler={report.scheduler} n={report.n} t={report.t}")
    print(f"runs           {summary['runs']} (base seed {report.base_seed}, "
          f"max {report.max_steps} deliveries each)")
    print(f"terminated     {summary['completed']} "
          f"({summary['completion']:.3f}, 99% CI [{lo:.3f}, {hi:.3f}])")
    expected = summary["expected_rounds"]
    elo, ehi = summary["expected_rounds_ci99"]
    if expected != float("inf"):
        print(f"expected round {expected:.2f} "
              f"(99% CI [{elo:.2f}, {ehi:.2f}], conditioned on "
              f"termination — read with the completion fraction)")
    print(f"violations     agreement={len(summary['agreement_violations'])} "
          f"validity={len(summary['validity_violations'])} "
          f"errors={len(summary['errors'])}")
    for point in summary["termination_curve"][:12]:
        bar = "#" * round(40 * point["p"])
        print(f"  round {point['round']:2d}  P={point['p']:.3f} "
              f"[{point['lo']:.3f}, {point['hi']:.3f}] {bar}")
    violations = (summary["agreement_violations"]
                  + summary["validity_violations"])
    return 1 if violations else 0


def _cmd_serve(argv: List[str]) -> int:
    """Run the verification daemon until SIGTERM/SIGINT."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Run the verification service: a long-running HTTP "
        "daemon over one persistent warm worker pool.  Clients submit "
        "task matrices (verify/sweep --server URL) and stream results "
        "as they complete; identical concurrent tasks are computed "
        "once, and a restarted daemon serves completed tasks from its "
        "result cache.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=8123,
                        help="TCP port (0 picks an ephemeral one)")
    parser.add_argument("--processes", type=int, default=2,
                        help="persistent worker pool size")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="state directory: on-disk result cache + "
                        "state file; omitting it runs in-memory "
                        "(nothing survives a restart)")
    _add_pool_flags(parser)
    parser.add_argument("--coin", type=_parse_coin, default=None,
                        metavar="SPEC",
                        help="default coin model applied to submitted "
                        "tasks that carry none (perfect, biased:P1, "
                        "failing:DELTA, disagreeing:RHO)")
    parser.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="JSON FaultPlan to install in pool workers "
                        "(chaos drills against a live daemon)")
    args = parser.parse_args(argv)

    fault_plan = None
    if args.fault_plan:
        from repro.testing import FaultPlan
        try:
            fault_plan = FaultPlan.from_dict(
                json.loads(Path(args.fault_plan).read_text())
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"serve: bad --fault-plan {args.fault_plan}: {exc}",
                  file=sys.stderr)
            return 2
    return service_api.serve(
        host=args.host,
        port=args.port,
        processes=args.processes,
        state_dir=args.cache_dir,
        graph_store=args.graph_store,
        task_timeout=args.task_timeout,
        retry=args.retries,
        fault_plan=fault_plan,
        default_coin=args.coin,
    )


#: A ResultCache entry file name: the 32-hex-char task key + ``.json``.
_RESULT_ENTRY = re.compile(r"[0-9a-f]{32}\.json")

#: The journal older releases wrote beside a sweep's result cache; no
#: code reads it, so ``prune`` and ``clear`` delete it.
OLD_SWEEP_JOURNAL = "sweep-journal.jsonl"


def _scan_cache(root: Path):
    """All cache artifacts under ``root``: results, graphs, temps,
    old sweep journals, daemon state files.

    Only *key-shaped* ``.json`` files count as result entries — a cache
    root may also hold saved reports or other JSON the maintenance
    commands must never classify (and ``prune`` must never delete) as
    cache blobs.  Sweeps and the daemon restart from their result
    entries, which ``prune`` drops only when their code version is
    stale.  Sweep journals left by older releases (``OLD_SWEEP_JOURNAL``)
    are dead weight: ``prune`` and ``clear`` both remove them.  The
    verification daemon's ``service-state.json`` breadcrumb is listed
    separately: ``clear`` removes it, but ``prune`` leaves it alone.
    """
    if not root.exists():
        return [], [], [], [], []
    return (
        sorted(p for p in root.rglob("*.json")
               if _RESULT_ENTRY.fullmatch(p.name)),
        sorted(root.rglob("*.graph")),
        sorted(root.rglob("*.tmp")),
        sorted(root.rglob(OLD_SWEEP_JOURNAL)),
        sorted(root.rglob(service_api.SERVICE_STATE_NAME)),
    )


def _cmd_cache(argv: List[str]) -> int:
    """Inspect / maintain the on-disk caches (results + state graphs).

    Both entry kinds carry the code version they were written under —
    result blobs embed ``_code_version``, graph files carry it in the
    file name — and ``prune`` judges staleness against the *current
    source digest*: entries written under any other version (including
    a deliberate custom ``cache_version=``) are dropped.  Caches keyed
    by custom versions should be managed manually or with ``clear``.
    ``info`` only reads.  Each graph key is one ``<key>.graph``
    snapshot that a flush replaces whole, so the graph store needs no
    merge step: the next flush of a key rewrites a corrupt snapshot,
    and ``prune`` removes the files of older store layouts along with
    every other stale version.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness cache",
        description="Maintain the on-disk result cache and state-graph "
        "store: info (read-only summary), prune (drop stale temp "
        "orphans, stale-version entries and old sweep journals; live "
        "writers' temp files survive), clear (drop everything).  The "
        "graph store keeps one <key>.graph snapshot per key, which the "
        "next flush of that key rewrites if it is corrupt.",
    )
    parser.add_argument("action", choices=("info", "prune", "clear"))
    parser.add_argument("--dir", type=_store_dir, default=".repro-cache",
                        metavar="DIR",
                        help="cache root directory to operate on, scanned "
                        "recursively (default: .repro-cache)")
    args = parser.parse_args(argv)
    root = Path(args.dir)
    results, graphs, temps, journals, states = _scan_cache(root)
    current = api.code_version()

    def fresh(path: Path, version: Optional[str]) -> bool:
        return version == current

    stale_results = [p for p in results
                     if not fresh(p, api.ResultCache.entry_version(p))]
    stale_graphs = [p for p in graphs
                    if not fresh(p, GraphStore.entry_version(p))]

    if args.action == "info":
        def _bytes(paths):
            total = 0
            for path in paths:
                try:
                    total += path.stat().st_size
                except OSError as exc:
                    _scan_error("cache_size", path, exc)
            return total

        print(f"cache root     {root}  (code version {current})")
        print(f"result entries {len(results):6d}  "
              f"({_bytes(results):,} bytes, {len(stale_results)} stale)")
        print(f"graph entries  {len(graphs):6d}  "
              f"({_bytes(graphs):,} bytes, {len(stale_graphs)} stale)")
        print(f"temp orphans   {len(temps):6d}  ({_bytes(temps):,} bytes)")
        if journals:
            print(f"old sweep journals {len(journals):2d}  "
                  f"({_bytes(journals):,} bytes)")
        if states:
            print(f"service files  {len(states):6d}  "
                  f"({_bytes(states):,} bytes)")
            for path in states:
                state = service_api.read_state_file(path.parent)
                if state:
                    print(f"  daemon pid {state.get('pid', '?')} on "
                          f"{state.get('host', '?')}:"
                          f"{state.get('port', '?')} "
                          f"({state.get('processes', '?')} workers) — "
                          f"running or unclean shutdown")
        for path in graphs:
            header = GraphStore.describe(path)
            if header:
                mark = "" if fresh(path, GraphStore.entry_version(path)) else "  [stale]"
                print(f"  graph {path.name}: {header['model']} "
                      f"{dict(header['valuation'])} "
                      f"({header['configs']} configs, "
                      f"{header['succ']} successor entries){mark}")
        return 0

    if args.action == "prune":
        # Only *stale* temp files: a concurrently-running sweep's live
        # temp file (seconds old, about to be atomically renamed) must
        # survive — deleting it would silently lose that entry's write.
        now = time.time()
        doomed = []
        for path in temps:
            try:
                if now - path.stat().st_mtime >= STALE_TEMP_SECONDS:
                    doomed.append(path)
            except OSError as exc:
                _scan_error("cache_stat", path, exc)
        doomed += stale_results + stale_graphs + journals
    else:  # clear: a full wipe is explicitly destructive — take it all
        doomed = list(temps) + results + graphs + journals + states
    removed = 0
    for path in doomed:
        try:
            path.unlink()
            removed += 1
        except OSError as exc:
            _scan_error("cache_unlink", path, exc)
    print(f"{args.action}: removed {removed} of {len(doomed)} files "
          f"under {root}")
    return 0


def _list_experiments() -> int:
    print("verification (repro.api):")
    print("  verify <protocol>  check one protocol (--engine, "
          "--valuation, --target, --coin, --cache-dir, --server, --json)")
    print("  sweep              protocol x coin x valuation x engine "
          "matrix (--coin, --processes, --cache-dir, --graph-store, "
          "--server, --json)")
    print("  simulate <protocol>  concurrent Monte Carlo fleet on the "
          "executable substrate (--runs, --coin, --scheduler, "
          "--processes, --json)")
    print("  serve              run the verification daemon: one warm "
          "worker fleet serving verify/sweep --server clients")
    print("  cache              on-disk cache maintenance: "
          "info | prune | clear (--dir DIR)")
    print("experiments:")
    for ident in sorted(REGISTRY):
        experiment = REGISTRY[ident]
        slow = " (slow)" if experiment.slow else ""
        print(f"  {ident:16s} {experiment.description}{slow}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv if argv is None else argv)
    if len(argv) < 2:
        return _list_experiments()
    target = argv[1]
    if target == "verify":
        return _cmd_verify(argv[2:])
    if target == "sweep":
        return _cmd_sweep(argv[2:])
    if target == "simulate":
        return _cmd_simulate(argv[2:])
    if target == "serve":
        return _cmd_serve(argv[2:])
    if target == "cache":
        return _cmd_cache(argv[2:])
    if target == "all":
        print(run_all(include_slow="--slow" in argv))
        return 0
    print(run_experiment(target))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
