"""Fleet engine tests: reproducibility, serialization, statistics, CLI.

The fleet contract under test: the report is a pure function of the
invocation (seed-reproducible across sharding), it round-trips through
JSON, its statistics always pair the conditional mean with the
completion fraction, and the §II adaptive attack shows up as a 0.0
completion for MMR14 while the fixed protocols shrug it off.  The
registry-wide statistical gate against the checker's MDP lives in
``test_checker_agreement.py`` (slow-gated); everything here is tier-1.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.fleet import (
    FleetReport,
    RunRecord,
    run_fleet,
    wilson_interval,
)
from repro.sim.runner import Simulation, split_seed

REPO_ROOT = Path(__file__).resolve().parents[2]


def small_fleet(protocol="mmr14", **overrides):
    kwargs = dict(runs=30, max_steps=20_000)
    kwargs.update(overrides)
    return run_fleet(protocol, **kwargs)


class TestReproducibility:
    def test_same_invocation_same_report(self):
        first = small_fleet()
        second = small_fleet()
        assert first.to_dict() == second.to_dict()

    def test_sharded_report_equals_inline_report(self):
        """Sharding across pool workers must not change a single bit:
        every RNG stream derives from the run's seed alone."""
        inline = small_fleet(runs=24, processes=1)
        pooled = small_fleet(runs=24, processes=2)
        assert inline.records == pooled.records
        assert inline.to_dict() == pooled.to_dict()

    def test_base_seed_selects_the_sample(self):
        shifted = small_fleet(base_seed=10_000)
        baseline = small_fleet()
        assert [r.seed for r in shifted.records] == list(
            range(10_000, 10_030)
        )
        assert shifted.records != baseline.records


class TestSerialization:
    def test_json_round_trip(self):
        report = small_fleet(runs=20)
        wire = json.dumps(report.to_dict())
        restored = FleetReport.from_dict(json.loads(wire))
        assert restored.records == report.records
        assert restored.to_dict() == report.to_dict()

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            FleetReport.from_dict({"kind": "sweep_result"})


class TestStatistics:
    @pytest.fixture(scope="class")
    def report(self):
        return small_fleet(runs=40)

    def test_random_scheduling_completes_cleanly(self, report):
        assert report.completion == 1.0
        assert report.agreement_violations() == []
        assert report.validity_violations() == []
        assert report.error_seeds() == []

    def test_expected_rounds_with_interval(self, report):
        mean = report.expected_rounds()
        lo, hi = report.expected_rounds_interval()
        assert 1.0 <= mean < 20.0
        assert lo <= mean <= hi

    def test_termination_curve_is_a_monotone_cdf(self, report):
        curve = report.termination_curve()
        assert curve, "a fully-completed fleet has curve points"
        probabilities = [point["p"] for point in curve]
        assert probabilities == sorted(probabilities)
        assert curve[-1]["p"] == report.completion
        for point in curve:
            assert 0.0 <= point["lo"] <= point["p"] <= point["hi"] <= 1.0

    def test_category_a_terminates_by_convergence(self):
        report = small_fleet("rabin83", runs=15)
        assert report.completion == 1.0
        for record in report.records:
            assert record.decision_round is not None
            assert record.decision_value in (0, 1)


class TestErrorRecords:
    def _record(self, seed, **overrides):
        kwargs = dict(
            seed=seed, decided=True, decision_round=1, decision_value=0,
            rounds_reached=2, steps=100, agreement=True, validity=True,
        )
        kwargs.update(overrides)
        return RunRecord(**kwargs)

    def test_errors_count_against_completion_not_the_mean(self):
        report = FleetReport(
            protocol="mmr14", coin="perfect", scheduler="random",
            n=4, t=1, byzantine_count=1, max_steps=100, base_seed=0,
            records=[
                self._record(0),
                self._record(1, decided=False, decision_round=None,
                             decision_value=None, error="OSError: boom"),
            ],
        )
        assert report.error_seeds() == [1]
        assert [r.seed for r in report.ok_records] == [0]
        assert report.completion == 0.5
        assert report.expected_rounds() == 2.0  # 1-based, errors excluded

    def test_all_failed_means_infinite_mean(self):
        report = FleetReport(
            protocol="mmr14", coin="perfect", scheduler="random",
            n=4, t=1, byzantine_count=1, max_steps=100, base_seed=0,
            records=[self._record(0, decided=False, decision_round=None,
                                  decision_value=None)],
        )
        assert report.completion == 0.0
        assert report.expected_rounds() == float("inf")


class TestRunIsolation:
    """A run that raises costs exactly its own seed, inline or pooled."""

    BAD_SEED = 7

    @pytest.fixture(scope="class")
    def clean(self):
        return small_fleet(runs=16)

    @pytest.mark.parametrize("processes", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="pool workers inherit the patched simulator by fork")),
    ])
    def test_raising_run_becomes_its_seeds_error_record(
            self, monkeypatch, clean, processes):
        bad_coin = split_seed(self.BAD_SEED, "coin")
        real_deliver = Simulation.deliver

        def deliver(sim, envelope):
            if sim.coin._seed == bad_coin and sim.steps == 10:
                raise RuntimeError("injected mid-run failure")
            real_deliver(sim, envelope)

        monkeypatch.setattr(Simulation, "deliver", deliver)
        report = small_fleet(runs=16, processes=processes)
        assert report.error_seeds() == [self.BAD_SEED]
        [bad] = [r for r in report.records if r.seed == self.BAD_SEED]
        assert bad.error == "RuntimeError: injected mid-run failure"
        assert not bad.decided and bad.steps == 0

        def others(fleet):
            return [r for r in fleet.records if r.seed != self.BAD_SEED]

        assert len(others(report)) == 15
        assert others(report) == others(clean)


class TestAdaptiveAttack:
    def test_mmr14_starves_under_the_adaptive_scheduler(self):
        report = small_fleet(scheduler="adaptive", runs=6, max_steps=4000)
        assert report.completion == 0.0
        # The attack breaks termination only, never safety.
        assert report.agreement_violations() == []
        assert report.validity_violations() == []
        assert all(r.rounds_reached > 10 for r in report.records)

    def test_fixed_protocol_survives_the_adaptive_scheduler(self):
        report = small_fleet("miller18", scheduler="adaptive", runs=4)
        assert report.completion == 1.0
        assert report.agreement_violations() == []


class TestValidation:
    def test_at_least_one_run(self):
        with pytest.raises(ValueError):
            run_fleet("mmr14", runs=0)

    def test_unknown_scheduler_rejected_before_spawning(self):
        with pytest.raises(ValueError):
            run_fleet("mmr14", scheduler="fifo")

    def test_adaptive_rejected_for_non_bv_protocols(self):
        with pytest.raises(ValueError):
            run_fleet("rabin83", scheduler="adaptive", runs=2)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            run_fleet("paxos", runs=2)


class TestWilsonInterval:
    def test_empty_total_spans_everything(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_brackets_the_point_estimate(self):
        for successes, total in ((0, 50), (13, 50), (50, 50)):
            lo, hi = wilson_interval(successes, total)
            assert 0.0 <= lo <= successes / total <= hi <= 1.0

    def test_interval_tightens_with_more_data(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]


class TestImportHygiene:
    def test_pooled_fleet_loads_neither_api_nor_numpy(self):
        """The pool is a leaf module: a pooled fleet's parent (which its
        workers fork from) loads the simulator, not the verifier."""
        script = (
            "import sys\n"
            "from repro.sim.fleet import run_fleet\n"
            "report = run_fleet('mmr14', runs=8, processes=2)\n"
            "assert len(report.records) == 8\n"
            "print(sorted(m for m in ('repro.api', 'numpy', 'scipy')"
            " if m in sys.modules))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, cwd=REPO_ROOT, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSimulateCli:
    def _simulate(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.harness", "simulate", *args],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=120,
        )

    def test_json_report_on_stdout(self):
        proc = self._simulate("mmr14", "--runs", "20", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["kind"] == "fleet_report"
        assert payload["summary"]["runs"] == 20
        assert payload["summary"]["completion"] == 1.0

    def test_unknown_protocol_exits_2(self):
        proc = self._simulate("paxos", "--runs", "2")
        assert proc.returncode == 2
