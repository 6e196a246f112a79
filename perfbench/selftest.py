"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks, on reduced inputs (about a minute in all):

1. every workload runs end to end through ``run.py --tiny``, untraced
   and traced, and reports zero failed operations;
2. after a traced pass every wrapped function is the original again,
   compared by identity with the objects captured before tracing, and
   the garbage-collector hook is gone;
3. a perturbed known answer is reported as a failed operation, for
   each workload.

Exits non-zero if any check fails.
"""

import copy
import dataclasses
import gc
import json
import subprocess
import sys
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-runs" / "selftest"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import TARGETS, Tracer, _resolve  # noqa: E402


def check_tiny_runs():
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                raise AssertionError(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{name} trace={trace}: {proc.stdout[-2000:]}")


def check_wrappers_restored():
    before = {}
    for target in TARGETS:
        owner, attr = _resolve(target)
        before[target.key] = (owner, attr, vars(owner)[attr])
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, original in before.values():
            if vars(owner)[attr] is original:
                raise AssertionError(f"{owner.__name__}.{attr} was not wrapped")
        load = workloads.ExplicitBundle(0, 0, True, SCRATCH)
        load.reset()
        tracer.begin_pass("cold")
        load.cold()
        summary = tracer.end_pass()
        if not summary["calls"].get("checker.explicit.reach"):
            raise AssertionError("the traced pass recorded no reach calls")
    finally:
        tracer.uninstall()
    for key, (owner, attr, original) in before.items():
        if vars(owner)[attr] is not original:
            raise AssertionError(f"{key}: {owner.__name__}.{attr} not restored")
    if any(cb == tracer._on_gc for cb in gc.callbacks):
        raise AssertionError("gc callback left installed")


def _wrong_state_count(load, cold, warm):
    load.golden = copy.deepcopy(load.golden)
    load.golden["cc85a"]["validity"]["queries"][0][2] += 1


def _wrong_dfs_count(load, cold, warm):
    workloads.PARAM_DFS["fmr05"] = (113, 86)


def _wrong_verdict(load, cold, warm):
    load.expected[-1] = copy.deepcopy(load.expected[-1])
    load.expected[-1]["queries"][0][1] = "violated"


def _agreement_broken(load, cold, warm):
    report = cold["mmr14", None]
    report.records[0] = dataclasses.replace(report.records[0], agreement=False)


def check_perturbed_answers():
    """Each case perturbs a known answer (or, for the fleet, an answer)."""
    cases = (
        (workloads.ExplicitBundle, _wrong_state_count),
        (workloads.ParamValidity, _wrong_dfs_count),
        (workloads.SweepStore, _wrong_verdict),
        (workloads.SimFleet, _agreement_broken),
    )
    saved_dfs = dict(workloads.PARAM_DFS)
    try:
        for kind, perturb in cases:
            load = kind(0, 0, True, SCRATCH)
            load.reset()
            cold, warm = load.cold(), load.warm()
            load.cleanup()
            attempted, failures = load.check(cold, warm)
            if failures:
                raise AssertionError(f"{load.name}: unperturbed run failed: {failures[:3]}")
            perturb(load, cold, warm)
            attempted, failures = load.check(cold, warm)
            if not failures:
                raise AssertionError(f"{load.name}: perturbed answer not reported")
    finally:
        workloads.PARAM_DFS.clear()
        workloads.PARAM_DFS.update(saved_dfs)


def main() -> int:
    checks = (check_wrappers_restored, check_perturbed_answers, check_tiny_runs)
    failed = 0
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
