"""Tests for the table/experiment harness."""

import logging

import pytest

from repro.errors import CheckError
from repro.harness import (
    REGISTRY,
    format_table,
    paper_row,
    run_experiment,
    table1,
    table3,
)
from repro.harness.paper_data import TABLE_II
from repro.harness.tables import Table2Cell, Table2Row, _check_target, _format_table2
from repro.protocols.registry import by_name


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_paper_reference_lookup(self):
        row = paper_row("mmr14")
        assert row.locations == 17 and row.rules == 29
        assert row.termination_time is None  # the CE row
        with pytest.raises(KeyError):
            paper_row("hotstuff")

    def test_reference_table_has_eight_rows(self):
        assert len(TABLE_II) == 8


class TestTables:
    def test_table1_lists_all_mmr14_rules(self):
        text = table1()
        for name in [f"r{i}" for i in range(1, 28)]:
            assert name in text

    def test_table3_matches_paper_formulas(self):
        text = table3()
        assert "A F (EX{D0}) → G (¬EX{E1, D1})" in text
        assert "A ALL{I0} → G (¬EX{E1, D1})" in text
        assert "A F (EX{Nbot}) → G (¬EX{M0, M1})" in text


class TestExperimentRegistry:
    def test_registry_covers_tables_and_figures(self):
        idents = set(REGISTRY)
        for required in ("table1", "table2", "table3", "table4", "fig4", "attack"):
            assert required in idents

    def test_unknown_experiment_rejected(self):
        with pytest.raises(CheckError):
            run_experiment("table9")

    def test_quick_experiments_run(self):
        assert "r21" in run_experiment("table1")
        assert "digraph" in run_experiment("fig4")
        assert "Inv1" in run_experiment("table3") or "(Inv1)" in run_experiment("table3")


class TestCoinCli:
    """The --coin surface of verify/sweep (local paths)."""

    def test_verify_coin_flag_flips_the_verdict(self, capsys):
        from repro.harness.__main__ import main

        assert main(["harness", "verify", "cc85a", "--target", "agreement",
                     "--max-states", "20000", "--json"]) == 0
        import json as _json
        holds = _json.loads(capsys.readouterr().out)
        assert holds["verdict"] == "holds"
        assert "coin" not in holds["task_id"]

        assert main(["harness", "verify", "cc85a", "--target", "agreement",
                     "--coin", "disagreeing:1/8", "--max-states", "20000",
                     "--json"]) == 0
        split = _json.loads(capsys.readouterr().out)
        assert split["verdict"] == "violated"
        assert "coin=disagreeing:1/8" in split["task_id"]

    def test_sweep_coin_axis(self, capsys):
        from repro.harness.__main__ import main

        assert main(["harness", "sweep", "--protocols", "cc85a",
                     "--targets", "agreement", "--coin", "perfect",
                     "--coin", "biased:1/4", "--max-states", "20000",
                     "--json"]) == 0
        import json as _json
        report = _json.loads(capsys.readouterr().out)
        ids = [r["task_id"] for r in report["results"]]
        assert ids == [
            "cc85a[f=1,n=4,t=1]/agreement@explicit",
            "cc85a[f=1,n=4,t=1;coin=biased:1/4]/agreement@explicit",
        ]

    def test_bad_coin_spec_is_a_usage_error(self):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit, match="bad --coin"):
            main(["harness", "verify", "cc85a", "--coin", "weighted:1/4"])

    def test_verify_usage_lists_sorted_registry_names(self, capsys):
        from repro.harness.__main__ import main
        from repro.protocols.registry import names

        with pytest.raises(SystemExit):
            main(["harness", "verify", "--help"])
        flat = " ".join(capsys.readouterr().out.split())
        assert "registry name: " + ", ".join(names()) in flat


class TestPoolFlagsCli:
    """sweep and serve build --graph-store/--task-timeout/--retries from
    one helper, and a sweep is re-run from its --cache-dir."""

    @staticmethod
    def _help(capsys, command):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["harness", command, "--help"])
        # Compared without whitespace: argparse wraps at hyphens too.
        return "".join(capsys.readouterr().out.split())

    def test_sweep_and_serve_share_one_help_text_per_flag(self, capsys):
        import argparse

        from repro.harness.__main__ import _add_pool_flags

        shared = argparse.ArgumentParser()
        _add_pool_flags(shared)
        helps = {action.option_strings[0]: action.help
                 for action in shared._actions if action.option_strings
                 and action.option_strings[0] != "-h"}
        assert sorted(helps) == ["--graph-store", "--retries",
                                 "--task-timeout"]
        for command in ("sweep", "serve"):
            usage = self._help(capsys, command)
            for flag, text in helps.items():
                assert flag in usage
                assert "".join(text.split()) in usage, (command, flag)

    @pytest.mark.parametrize("flag", ["--resume", "--journal=j.jsonl"])
    def test_journal_flags_are_gone(self, capsys, flag):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["harness", "sweep", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rerun_with_the_same_cache_dir_is_served_from_it(self, tmp_path,
                                                             capsys):
        import json as _json

        from repro.harness.__main__ import main

        argv = ["harness", "sweep", "--protocols", "ks16,cc85a",
                "--targets", "validity", "--cache-dir", str(tmp_path),
                "--json"]
        assert main(argv) == 0
        first = _json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = _json.loads(capsys.readouterr().out)
        assert [r["cached"] for r in first["results"]] == [False, False]
        assert [r["cached"] for r in second["results"]] == [True, True]
        assert second["cache_hits"] == 2
        assert [r["verdict"] for r in second["results"]] == [
            r["verdict"] for r in first["results"]]
        assert not (tmp_path / "sweep-journal.jsonl").exists()


class TestTable2Scope:
    """A Table II cell says which engine decided it."""

    def test_parameterized_cell_keeps_its_engine(self):
        cell, _ = _check_target(by_name("fmr05"), "validity", True)
        assert (cell.verdict, cell.engine) == ("holds", "parameterized")

    def test_unknown_cell_falls_back_with_an_event(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.harness.tables"):
            cell, _ = _check_target(
                by_name("fmr05"), "validity", True, node_budget=1
            )
        assert (cell.verdict, cell.engine) == ("holds", "explicit")
        events = [
            r for r in caplog.records
            if getattr(r, "event", "") == "tables.explicit_fallback"
        ]
        assert len(events) == 1 and events[0].levelno == logging.INFO
        assert (events[0].protocol, events[0].target) == ("fmr05", "validity")
        assert events[0].valuation == {"n": 6, "t": 1, "f": 1}

    def test_explicit_cells_are_marked_in_the_table(self):
        def cell(engine):
            return Table2Cell("holds", 10, 0.5, engine=engine)

        row = Table2Row(
            name="fmr05", category="B", locations=10, rules=16,
            agreement=cell("parameterized"), validity=cell("explicit"),
            termination=cell("explicit"),
        )
        text = _format_table2([row])
        body = text.splitlines()[2].split()
        assert body[4] == "holds" and body[7] == "holds*"
        assert body[9] == "holds*"
        assert text.splitlines()[-2].startswith(
            "* decided at n,t,f on the explicit engine"
        )
