"""One benchmark worker: a fresh interpreter that sets up, runs a cold
and a warm pass, checks every answer, and prints one JSON line.

Started by ``run.py`` with the environment pinned (see ``run.py``);
``PERFBENCH_T0`` carries the monotonic time just before the parent
started this process, so ``setup_s`` covers interpreter start-up,
imports and building the workload's inputs.  A short host-speed probe
before the passes lets ``run.py`` half-correct the times for host drift.

    python3 perfbench/worker.py --workload NAME --seed N --index I \
        [--trace] [--tiny] --scratch DIR
"""

import os
import time

T0 = float(os.environ.get("PERFBENCH_T0") or time.monotonic())

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def import_program():
    """Everything the passes import, so none of it lands in ``cold_s``.

    Includes numpy and scipy, which the engines import lazily on their
    first call.
    """
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401 — floatlp's HiGHS solve

    import repro.api  # noqa: F401
    import repro.checker.explicit  # noqa: F401
    import repro.checker.parameterized  # noqa: F401
    import repro.counter.batch  # noqa: F401
    import repro.counter.store  # noqa: F401
    import repro.sim.fleet  # noqa: F401
    import repro.solver.floatlp  # noqa: F401

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


#: rounds of the speed probe; their median is the worker's probe time
PROBE_ROUNDS = 7


def _probe_round(side=30):
    """A fixed graph search over tuple states: the interpreter work the
    checkers do (tuple building, hashing, dict probes), on a small heap."""
    seen = {(0, 0, 0): None}
    frontier = [(0, 0, 0)]
    while frontier:
        state = frontier.pop()
        a, b, c = state
        for succ in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)):
            if max(succ) < side and succ not in seen:
                seen[succ] = state
                frontier.append(succ)
    return len(seen)


def probe_seconds() -> float:
    """Median wall time of one probe round right now (host speed).

    The collector is paused for the probe only, so its rounds time the
    same work whatever heap the worker holds.
    """
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_ROUNDS):
            start = time.perf_counter()
            _probe_round()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def live_configs() -> int:
    """Configurations interned in every live compiled program."""
    from repro.counter import program

    return sum(len(p.intern_table) for p in program._PROGRAM_CACHE._programs.values())


def timed_pass(run, tracer, name):
    gc.collect()
    if tracer is not None:
        tracer.begin_pass(name)
    start = time.perf_counter()
    outputs = run()
    elapsed = time.perf_counter() - start
    summary = None
    if tracer is not None:
        summary = tracer.end_pass()
        summary["configs"] = live_configs()
    return outputs, elapsed, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    env = import_program()
    from workloads import WORKLOADS

    scratch = Path(args.scratch)
    workload = WORKLOADS[args.workload](args.seed, args.index, args.tiny, scratch)
    setup_s = time.monotonic() - T0

    probe_s = probe_seconds()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        workload.reset()
        cold, cold_s, cold_trace = timed_pass(workload.cold, tracer, "cold")
        warm, warm_s, warm_trace = timed_pass(workload.warm, tracer, "warm")
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup()
    attempted, failures = workload.check(cold, warm)

    out = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failures": failures,
        "probe_s": probe_s,
        "env": env,
    }
    if tracer is not None:
        out["trace"] = {"cold": cold_trace, "warm": warm_trace}
        spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "fields": ["id", "key", "start", "end", "parent", "pass"],
            "passes": tracer.passes,
            "dropped": tracer.dropped_spans,
            "spans": tracer.spans,
        }))
        out["spans_file"] = str(spans_path)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown (freeing a large explored heap takes a
    # while and is not part of any metric); output is already flushed.
    os._exit(code)
