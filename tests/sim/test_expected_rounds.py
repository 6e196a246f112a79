"""Determinism and calibration of `repro.sim.runner.expected_rounds`.

The measurement drives one simulation per seed in ``range(runs)`` —
coin seed, scheduler seed and Byzantine noise all derive from that seed
sequence, so the mean decision round is a pure function of its
arguments.  The calibration smoke pins MMR14 at ``n=4, t=1`` near the
"4 expected rounds" folklore number the paper's §II quotes for the
fixed MMR14-family protocols.
"""

from repro.sim import MMR14Process, expected_rounds, expected_rounds_stats
from repro.sim import runner
from repro.sim.runner import split_seed


class TestDeterminism:
    def test_same_seed_sequence_same_mean(self):
        kwargs = dict(n=4, t=1, inputs=[0, 0, 1], runs=25)
        first = expected_rounds(MMR14Process, **kwargs)
        second = expected_rounds(MMR14Process, **kwargs)
        assert first == second

    def test_mean_depends_on_the_seed_sequence_only(self):
        # Disjoint run counts use prefixes of the same seed sequence:
        # the 25-run mean is reproducible independently of a longer
        # measurement having run in the same process before.
        long = expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=50)
        short = expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=25)
        again = expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=50)
        assert long == again
        assert short == expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=25)

    def test_byzantine_noise_toggle_changes_the_chain(self):
        noisy = expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=25)
        quiet = expected_rounds(
            MMR14Process, 4, 1, [0, 0, 1], runs=25, with_byzantine_noise=False
        )
        # Both deterministic; the toggle selects a different chain.
        assert quiet == expected_rounds(
            MMR14Process, 4, 1, [0, 0, 1], runs=25, with_byzantine_noise=False
        )
        assert isinstance(noisy, float) and isinstance(quiet, float)


class TestCompletionFraction:
    """Regression: the old estimator silently dropped non-terminating
    runs from the mean — a protocol hanging 30% of the time reported
    the same number as one that always decides.  The mean is still
    conditional, but it now travels with the completion fraction."""

    def test_full_budget_completes_everything(self):
        stats = expected_rounds_stats(MMR14Process, 4, 1, [0, 0, 1],
                                      runs=20)
        assert stats.completion == 1.0
        assert stats.completed == stats.runs == 20
        assert stats.mean >= 1.0

    def test_starved_budget_shows_up_in_completion_not_the_mean(self):
        stats = expected_rounds_stats(MMR14Process, 4, 1, [0, 0, 1],
                                      runs=20, max_steps=40)
        assert stats.completion < 1.0
        if stats.completed == 0:
            assert stats.mean == float("inf")
        else:
            assert stats.mean >= 1.0


class TestSeedStreams:
    """Regression: coin and scheduler RNGs used to share one integer
    seed, correlating delivery order with the coin sequence across
    every run of a sweep.  Each run now derives one decorrelated
    stream per RNG from its seed."""

    def test_coin_and_scheduler_get_distinct_split_streams(
            self, monkeypatch):
        seen = []
        real_simulation = runner.Simulation
        real_scheduler = runner.RandomScheduler

        def simulation(*args, coin_seed, **kwargs):
            seen.append(("coin", coin_seed))
            return real_simulation(*args, coin_seed=coin_seed, **kwargs)

        def scheduler(seed):
            seen.append(("scheduler", seed))
            return real_scheduler(seed=seed)

        monkeypatch.setattr(runner, "Simulation", simulation)
        monkeypatch.setattr(runner, "RandomScheduler", scheduler)
        expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=3)
        assert seen == [
            (stream, split_seed(seed, stream))
            for seed in range(3)
            for stream in ("coin", "scheduler")
        ]
        assert len({value for _stream, value in seen}) == 6


class TestFolkloreCalibration:
    def test_mmr14_lands_near_four_expected_rounds(self):
        """§II folklore: a strong common coin decides in ~4 expected
        rounds (2 per agreement on the coin, ≤2 for the coin to match
        the majority value).  The mixed-input measurement lands well
        inside [1.5, 6.5] — far below the unbounded adaptive-attack
        behaviour and above the 1-round unanimous fast path."""
        mean = expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=50)
        assert 1.5 <= mean <= 6.5

    def test_unanimous_inputs_decide_faster(self):
        unanimous = expected_rounds(MMR14Process, 4, 1, [0, 0, 0], runs=25)
        mixed = expected_rounds(MMR14Process, 4, 1, [0, 0, 1], runs=25)
        assert unanimous <= mixed
        assert unanimous >= 1.0
