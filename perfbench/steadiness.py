"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steadiness.py --workloads sim-fleet,sweep-store \
        --seeds 1-10 [--trace] [--out steadiness.json]

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  With ``--trace`` it runs the
traced mode instead and reports which count metrics repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            result = run_once(spec, workload, seed, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()
                             if k in bounds),
                  flush=True)
        report[workload] = runs
        names = runs[0]["metrics"]
        if args.trace:
            counts = [n for n, m in names.items() if m["unit"] in ("count", "bytes")]
            moving = [n for n in counts
                      if len({r["metrics"][n]["value"] for r in runs}) > 1]
            print(f"{workload}: {len(counts) - len(moving)}/{len(counts)} "
                  f"count metrics repeat exactly; differing: {moving}")
            continue
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            print(f"  {workload:16s} {name:12s} median {median:.4f} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {share:.3f} "
                  f"(bound {bounds[name]}, a third {bounds[name] / 3:.3f})")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
