"""Benchmark entry point: time one workload, check its answers, print metrics.

    python3 perfbench/run.py --workload explicit-bundle --seed 1 \
        --seconds 30 --trace 0

Runs from the root of a source checkout.  Each sample is a fresh worker
interpreter (``worker.py``) that sets up, times a host-speed probe,
runs a cold pass and a warm pass, and checks every answer.  Workers run
one after another until the next one would overrun ``--seconds``; at
least one always runs.  The reported value of each metric is the
median over the workers, times half-corrected for host speed
(``corrected``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced worker and one traced worker, and reports the per-layer
metrics of the traced one plus the tracing overhead (traced minus
untraced ``cold_s``).  The spans of the traced worker are written to
``.perfbench-runs/``.

Every worker gets the same pinned environment: ``PYTHONHASHSEED=0``,
one BLAS/OpenMP thread, no inherited ``REPRO_*`` switches.  Passes run
in the worker's own process (no pool), after ``gc.collect()``; the
collector stays on.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-runs"
sys.path.insert(0, str(HERE))

from tracing import LAYERS, WARM_METRICS, layer_metrics  # noqa: E402

WORKLOAD_NAMES = ("explicit-bundle", "param-validity", "sweep-store", "sim-fleet")
END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"), ("peak_rss_mb", "MB"))
#: wall-time metrics, corrected for host speed (see ``corrected``)
TIMES = ("setup_s", "cold_s", "warm_s")
#: the host-speed probe's round time on a 2-vCPU VM (2.1 GHz,
#: python 3.11) while its host was fast and steady
PROBE_REFERENCE_S = 0.0235
#: a worker that does not finish in this long counts as lost (two of
#: them, as in a traced run, still end within 180 s)
WORKER_TIMEOUT = 80.0


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(ROOT / "src"),
    })
    return env


def run_worker(workload, seed, index, trace=False, tiny=False, timeout=WORKER_TIMEOUT):
    """One fresh worker; returns its result dict (``None`` when lost)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--scratch", str(SCRATCH)]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    env = pinned_env()
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        # subprocess.run kills and reaps the worker on timeout.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"# worker {index} of {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"# worker {index} of {workload} exited {proc.returncode}:\n"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload, seed, seconds, tiny=False):
    """Sequential workers until the next would overrun ``seconds``."""
    start = time.monotonic()
    results, lost, durations = [], 0, []
    while True:
        began = time.monotonic()
        result = run_worker(workload, seed, len(results) + lost, tiny=tiny)
        durations.append(time.monotonic() - began)
        if result is None:
            lost += 1
        else:
            results.append(result)
        elapsed = time.monotonic() - start
        if elapsed + max(durations) > seconds:
            return results, lost


def tally(results, lost):
    attempted = sum(r["attempted"] for r in results) + lost
    failures = [f for r in results for f in r["failures"]]
    return attempted, len(failures) + lost, failures


def corrected(result, name):
    """A worker's metric; wall times half-corrected for host speed.

    The shared host's speed drifts by more than twofold between
    half-hours, and more slowly within them.  A time is multiplied by
    ``sqrt(PROBE_REFERENCE_S / probe)``: the passes slow down about half
    as much as the probe does (least-squares slope of log pass time on
    log probe time 0.3-0.6 over 222 workers), and on two sets of ten
    runs the half correction cut the widest spread from 0.31 to 0.17
    and the widest set-to-set shift from 0.23 to 0.12, where the full
    correction widened spreads to 0.33.
    """
    value = result[name]
    if name in TIMES:
        value *= (PROBE_REFERENCE_S / result["probe_s"]) ** 0.5
    return value


def end_to_end(results):
    return {
        name: {"value": statistics.median(corrected(r, name) for r in results),
               "unit": unit}
        for name, unit in END_TO_END
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def per_layer(traced, untraced):
    """The per-layer metrics of one traced worker (see README)."""
    cold, warm = traced["trace"]["cold"], traced["trace"]["warm"]
    values = layer_metrics(cold, cold["configs"])
    warm_values = layer_metrics(warm, warm["configs"])
    for name in WARM_METRICS:
        values[f"warm.{name}"] = warm_values[name]
    for label, summary in (("cold", cold), ("warm", warm)):
        for layer in LAYERS:
            values[f"{label}.{layer}.self_s"] = summary["layer_self_s"][layer]
        values[f"{label}.uncovered_s"] = summary["uncovered_s"]
        values[f"{label}.wall_s"] = summary["wall_s"]
    values["trace.overhead_s"] = (
        corrected(traced, "cold_s") - corrected(untraced, "cold_s"))
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def record_history(workload, seed, results):
    """Append each worker's wall times and probe time to
    ``.perfbench-runs/history.jsonl``, so host drift can be studied
    across runs."""
    keys = ("probe_s",) + tuple(name for name, _ in END_TO_END)
    line = {"time": time.time(), "workload": workload, "seed": seed,
            "workers": [{k: r[k] for k in keys} for r in results]}
    with open(SCRATCH / "history.jsonl", "a") as history:
        history.write(json.dumps(line) + "\n")


def print_table(title, metrics, detail=None):
    print(f"# {title}")
    for name, metric in metrics.items():
        extra = f"  {detail[name]}" if detail and name in detail else ""
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs (self-test only)")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "repro" / "__init__.py",
                           ROOT / "tests" / "checker" / "data" / "seed_verdicts.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)

    if args.trace:
        untraced = run_worker(args.workload, args.seed, 0, tiny=args.tiny)
        traced = run_worker(args.workload, args.seed, 0, trace=True, tiny=args.tiny)
        results = [r for r in (untraced, traced) if r is not None]
        attempted, failed, failures = tally(results, 2 - len(results))
        if untraced is None or traced is None:
            print("perfbench: a worker was lost; no per-layer metrics", file=sys.stderr)
            return 1
        metrics = per_layer(traced, untraced)
        print(f"# env {json.dumps(traced['env'])}")
        print(f"# spans {traced['spans_file']}")
        print_table(f"{args.workload} per-layer (traced worker, seed {args.seed})", metrics)
    else:
        results, lost = run_workers(args.workload, args.seed, args.seconds, args.tiny)
        attempted, failed, failures = tally(results, lost)
        if not results:
            print("perfbench: every worker was lost", file=sys.stderr)
            return 1
        metrics = end_to_end(results)
        detail = {
            name: f"median of {len(results)}: "
            + ", ".join(f"{corrected(r, name):.4g}" for r in results)
            + ("; wall: " + ", ".join(f"{r[name]:.4g}" for r in results)
               if name in TIMES else "")
            for name, _ in END_TO_END
        }
        detail["setup_s"] += "; host probe: " + ", ".join(
            f"{r['probe_s'] * 1000:.1f} ms" for r in results)
        record_history(args.workload, args.seed, results)
        print(f"# env {json.dumps(results[0]['env'])}")
        print_table(f"{args.workload} end-to-end (seed {args.seed})", metrics, detail)
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    print(f"# operations attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
