"""The four workloads: inputs, timed passes and known-answer checks.

A workload object is built from the run's seed and the worker's index
(this is the set-up the ``setup_s`` metric covers), then runs a cold
pass and a warm pass, and finally checks every answer of both passes.
Operations are verification tasks, or fleet instances in ``sim-fleet``.
An operation fails when it raised, tripped a budget, or gave an answer
other than the known one.

Known answers come from outside the program under test:
``tests/checker/data/seed_verdicts.json`` (the explicit golden file,
read at run time), the parameterized DFS counts stated below, the
n+1 sweep cells below (recorded once on the seed code), and for the
simulator the protocol's safety properties.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "checker" / "data" / "seed_verdicts.json"

#: explicit-bundle: full obligation bundles at the golden valuation
EXPLICIT_PROTOCOLS = ("mmr14", "cc85b")
#: the golden file was recorded under this state budget
EXPLICIT_MAX_STATES = 150_000

#: param-validity: protocol -> (DFS nodes, pruned) per inv2 query
PARAM_DFS = {"cc85a": (360, 294), "fmr05": (113, 87), "rabin83": (467, 374)}

#: sweep-store cells: protocol -> n offsets; every cell decides within
#: SWEEP_MAX_STATES (rabin83 and miller18 trip it at both sizes, aby22
#: at n+1, so they are left out).
SWEEP_CELLS = {
    "cc85a": (0, 1), "cc85b": (0, 1), "fmr05": (0, 1), "ks16": (0, 1),
    "aby22": (0,),
}
SWEEP_TARGETS = ("agreement", "validity")
SWEEP_MAX_STATES = 20_000
#: the n+1 cells are not in the golden file: verdict and states per
#: query, recorded on the seed code (side conditions all hold).
SWEEP_LARGER = {
    "cc85a": {"agreement": 1974, "validity": 112},
    "cc85b": {"agreement": 16480, "validity": 286},
    "fmr05": {"agreement": 8360, "validity": 226},
    "ks16": {"agreement": 2614, "validity": 158},
}

#: sim-fleet cells: (protocol, coin spec)
FLEET_CELLS = (("mmr14", None), ("cc85a", "failing:1/8"))
FLEET_RUNS = 1000

#: reduced sizes for the self-test
TINY = {
    "explicit": ("cc85a",),
    "param": ("fmr05",),
    "sweep": {"cc85a": (0, 1)},
    "fleet_runs": 25,
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def seeded_order(items, seed: int, index: int) -> list:
    """The seed picks the order; worker ``index`` rotates it by ``index``.

    Rotation makes the workers of one run cover different orders, so a
    run's median does not hinge on the one order its seed drew.
    """
    order = list(items)
    random.Random(seed).shuffle(order)
    shift = index % len(order)
    return order[shift:] + order[:shift]


def project(outcome) -> dict:
    """The golden file's view of one obligation outcome."""
    return {
        "queries": [[q.query, q.verdict, q.states_explored] for q in outcome.queries],
        "sides": dict(outcome.side_conditions),
    }


def strip_times(value):
    """A result's ``to_dict()`` without its wall-clock fields."""
    if isinstance(value, dict):
        return {k: strip_times(v) for k, v in value.items() if k != "time_seconds"}
    if isinstance(value, list):
        return [strip_times(v) for v in value]
    return value


def _task_problems(result, expected: Dict[str, dict]) -> List[str]:
    """Why one task result differs from its known answer (empty: ok)."""
    if isinstance(result, str):
        return [result]
    problems = []
    if result.error:
        problems.append(f"error: {result.error}")
    seen = set()
    for outcome in result.obligations:
        seen.add(outcome.target)
        if outcome.limits_tripped:
            problems.append(f"{outcome.target}: budget {outcome.limits_tripped}")
        want = expected.get(outcome.target)
        if want is not None and project(outcome) != want:
            problems.append(
                f"{outcome.target}: got {project(outcome)}, want {want}")
    missing = set(expected) - seen
    if missing:
        problems.append(f"missing targets {sorted(missing)}")
    return problems


def _verify(protocol: str, **kwargs):
    from repro import api

    try:
        return api.verify(protocol, **kwargs)
    except Exception as exc:  # noqa: BLE001 — an error is a failed operation
        return f"{type(exc).__name__}: {exc}"


class Workload:
    """Base: inputs are built in ``__init__`` (part of set-up)."""

    name = ""

    def __init__(self, seed: int, index: int, tiny: bool, scratch: Path):
        self.golden = load_golden()

    def reset(self) -> None:
        """Empty in-process state before the cold pass."""
        from repro.counter.system import clear_shared_caches

        clear_shared_caches()

    def cold(self):
        return self.run_pass()

    def warm(self):
        return self.run_pass()

    def run_pass(self):
        raise NotImplementedError

    def check(self, cold, warm) -> Tuple[int, List[str]]:
        """``(operations attempted, failure messages)`` over both passes.

        This default serves passes that map each protocol to one task
        result; ``problems`` judges one result.
        """
        failures = []
        for label, outputs in (("cold", cold), ("warm", warm)):
            for name, result in outputs.items():
                for problem in self.problems(name, result):
                    failures.append(f"{label} {name}: {problem}")
        return 2 * len(self.protocols), failures

    def problems(self, name, result) -> List[str]:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class ExplicitBundle(Workload):
    name = "explicit-bundle"

    def __init__(self, seed, index, tiny, scratch):
        super().__init__(seed, index, tiny, scratch)
        from repro import api

        protocols = TINY["explicit"] if tiny else EXPLICIT_PROTOCOLS
        self.protocols = seeded_order(protocols, seed, index)
        self.limits = api.Limits(max_states=EXPLICIT_MAX_STATES)

    def run_pass(self):
        return {name: _verify(name, limits=self.limits) for name in self.protocols}

    def problems(self, name, result):
        return _task_problems(result, self.golden[name])


class ParamValidity(Workload):
    name = "param-validity"

    def __init__(self, seed, index, tiny, scratch):
        super().__init__(seed, index, tiny, scratch)
        protocols = TINY["param"] if tiny else tuple(PARAM_DFS)
        self.protocols = seeded_order(protocols, seed, index)

    def run_pass(self):
        return {
            name: _verify(name, engine="parameterized", target="validity")
            for name in self.protocols
        }

    def problems(self, name, result):
        problems = _task_problems(result, {})
        if problems:
            return problems
        nodes, pruned = PARAM_DFS[name]
        # The independent oracle: the explicit golden verdict per query.
        oracle = {q: v for q, v, _ in self.golden[name]["validity"]["queries"]}
        queries = result.outcome("validity").queries
        if sorted(q.query for q in queries) != sorted(oracle):
            problems.append(f"queries {[q.query for q in queries]}")
        for q in queries:
            if q.verdict != "holds" or q.verdict != oracle.get(q.query):
                problems.append(f"{q.query}: verdict {q.verdict}")
            if q.states_explored != nodes or f", {pruned} pruned" not in q.detail:
                problems.append(
                    f"{q.query}: nodes {q.states_explored} ({q.detail}), "
                    f"want {nodes} nodes / {pruned} pruned")
        return problems


class SweepStore(Workload):
    name = "sweep-store"

    def __init__(self, seed, index, tiny, scratch):
        super().__init__(seed, index, tiny, scratch)
        from repro import api
        from repro.protocols.registry import by_name

        cells = TINY["sweep"] if tiny else SWEEP_CELLS
        limits = api.Limits(max_states=SWEEP_MAX_STATES)
        self.tasks = []
        self.expected = []
        for name in seeded_order(cells, seed, index):
            small = by_name(name).small_valuation
            for offset in cells[name]:
                valuation = dict(small, n=small["n"] + offset)
                for target in SWEEP_TARGETS:
                    self.tasks.append(api.VerificationTask(
                        protocol=name, valuation=valuation,
                        targets=(target,), limits=limits))
                    self.expected.append(self._expected(name, offset, target))
        self.store_dir = scratch / f"store-{seed}-{index}"

    def _expected(self, name, offset, target) -> dict:
        if offset == 0:
            return self.golden[name][target]
        states = SWEEP_LARGER[name][target]
        invariant = "inv1" if target == "agreement" else "inv2"
        return {
            "queries": [[f"{invariant}[{v}]", "holds", states] for v in (0, 1)],
            "sides": {"non_blocking": True, "fair_termination": True},
        }

    def reset(self):
        super().reset()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir.mkdir(parents=True)

    def cold(self):
        return self._sweep()

    def warm(self):
        from repro.counter.system import clear_shared_caches

        # The warm pass starts from empty in-process state too; only
        # the on-disk graph store written by the cold pass is warm.
        clear_shared_caches()
        return self._sweep()

    def _sweep(self):
        from repro import api

        try:
            report = api.sweep(
                self.tasks, graph_store=str(self.store_dir), processes=1)
        except Exception as exc:  # noqa: BLE001 — a failed sweep fails every task
            return f"{type(exc).__name__}: {exc}"
        return list(report.results)

    def check(self, cold, warm):
        failures = []
        for label, results in (("cold", cold), ("warm", warm)):
            if isinstance(results, str):
                failures.extend(f"{label} task {i}: {results}"
                                for i in range(len(self.tasks)))
                continue
            for task, want, result in zip(self.tasks, self.expected, results):
                for problem in _task_problems(result, {task.targets[0]: want}):
                    failures.append(f"{label} {task.task_id}: {problem}")
        if not isinstance(cold, str) and not isinstance(warm, str):
            for task, a, b in zip(self.tasks, cold, warm):
                if strip_times(a.to_dict()) != strip_times(b.to_dict()):
                    failures.append(f"warm {task.task_id}: differs from cold")
        return 2 * len(self.tasks), failures

    def cleanup(self):
        shutil.rmtree(self.store_dir, ignore_errors=True)


class SimFleet(Workload):
    name = "sim-fleet"

    def __init__(self, seed, index, tiny, scratch):
        super().__init__(seed, index, tiny, scratch)
        self.runs = TINY["fleet_runs"] if tiny else FLEET_RUNS
        self.cells = seeded_order(FLEET_CELLS, seed, index)
        # Disjoint instance seeds per worker of a run.
        self.base_seed = (seed * 64 + index) * self.runs

    def run_pass(self):
        from repro.sim.fleet import run_fleet

        reports = {}
        for protocol, coin in self.cells:
            try:
                reports[protocol, coin] = run_fleet(
                    protocol, coin=coin, runs=self.runs,
                    base_seed=self.base_seed, processes=1)
            except Exception as exc:  # noqa: BLE001 — fails the cell's instances
                reports[protocol, coin] = f"{type(exc).__name__}: {exc}"
        return reports

    def check(self, cold, warm):
        failures = []
        for label, reports in (("cold", cold), ("warm", warm)):
            for (protocol, coin), report in reports.items():
                failures.extend(
                    f"{label} {protocol}/{coin or 'perfect'} {problem}"
                    for problem in self._cell_problems(protocol, coin, report))
        for cell, report in cold.items():
            other = warm[cell]
            if isinstance(report, str) or isinstance(other, str):
                continue
            for a, b in zip(report.records, other.records):
                if a != b:
                    failures.append(f"warm {cell} seed {a.seed}: differs from cold")
        return 2 * len(self.cells) * self.runs, failures

    def _cell_problems(self, protocol, coin, report) -> List[str]:
        if isinstance(report, str):
            return [f"instance {i}: {report}" for i in range(self.runs)]
        problems = []
        if len(report.records) != self.runs:
            problems.append(f"{len(report.records)} records for {self.runs} runs")
        replay = set()
        for record in report.records:
            if record.error:
                problems.append(f"seed {record.seed}: error {record.error}")
            elif not record.decided:
                problems.append(f"seed {record.seed}: did not terminate")
            elif not record.validity:
                problems.append(f"seed {record.seed}: validity violated")
            elif not record.agreement:
                if coin is None:
                    problems.append(f"seed {record.seed}: agreement violated")
                else:
                    replay.add(record.seed)
        # A failing coin gives no common value in some rounds and the
        # simulator then serves each process a private bit (the
        # documented divergence from the checker's model, see
        # repro.sim.crossval), so agreement may break -- but only in a
        # run that actually read a failed round.  Replay those seeds.
        for seed in sorted(replay):
            if not _read_failed_round(protocol, coin, seed, report):
                problems.append(
                    f"seed {seed}: agreement violated without a failed coin round")
        return problems


def _read_failed_round(protocol, coin, seed, report) -> bool:
    """Replay one instance; did any process read a round with no common value?"""
    from repro.sim import coin as sim_coin
    from repro.sim.fleet import run_fleet

    original = sim_coin.CommonCoin.get
    failed = []

    def get(self, round_no, pid):
        value = original(self, round_no, pid)
        if self._values.get(round_no, 0) is None:
            failed.append(round_no)
        return value

    sim_coin.CommonCoin.get = get
    try:
        again = run_fleet(protocol, coin=coin, runs=1, base_seed=seed,
                          max_steps=report.max_steps, processes=1)
    finally:
        sim_coin.CommonCoin.get = original
    same = again.records[0] == next(r for r in report.records if r.seed == seed)
    return same and bool(failed)


WORKLOADS = {w.name: w for w in (ExplicitBundle, ParamValidity, SweepStore, SimFleet)}
