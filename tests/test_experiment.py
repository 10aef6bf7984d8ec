import pytest

from crngame import game as game_module
from crngame.config import load_config
from crngame.experiment import (
    CSV_COLUMNS,
    SweepRow,
    robustness_summary,
    run_robustness,
    run_sweep,
)
from crngame.game import GameConfigError
from crngame.svg import sweep_svg

CONFIG = """
[player:main]
crn = main.crn
utility = takeover X Y

[player:nature]
crn = nature.crn

[sweep]
pair = X Y
total = 40
diffs = {diffs}
trials = {trials}

[simulation]
seed = 424242
catalytic = true
engine = batch
"""


@pytest.fixture
def write_config(tmp_path):
    (tmp_path / "main.crn").write_text(
        "2X + Y + A -> 3X + A @ 1\nX + 2Y + B -> 3Y + B @ 1\n"
        "init A = 5\ninit B = 5\n")
    (tmp_path / "nature.crn").write_text("A -> B @ 20\nB -> A @ 20\n")

    def write(diffs="0:20:10", trials=40, **edits):
        text = CONFIG.format(diffs=diffs, trials=trials)
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return load_config(path)

    return write


class TestRunSweep:
    def test_row_per_accepted_condition(self, write_config):
        out = run_sweep(write_config(diffs="0, 5, 10, 20"))
        assert [r.d for r in out.rows] == [0, 10, 20]
        assert all(r.trials == 40 for r in out.rows)
        assert all(r.succ_with <= r.trials for r in out.rows)
        assert all(not r.error for r in out.rows)

    def test_single_trial_single_condition(self, write_config):
        out = run_sweep(write_config(diffs="10", trials=1))
        [row] = out.rows
        assert row.succ_with in (0, 1)
        assert row.succ_without in (0, 1)

    def test_csv_shape_and_columns(self, write_config):
        out = run_sweep(write_config(diffs="0, 5, 10"))
        text = out.to_csv()
        lines = text.strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("rejected conditions" in c and "5" in c for c in comments)
        assert data[0] == ",".join(CSV_COLUMNS)
        assert len(data) == 1 + 2  # header + accepted rows
        assert all(len(l.split(",")) == len(CSV_COLUMNS) for l in data)

    def test_csv_deterministic_across_workers(self, write_config):
        cfg = write_config()
        a = run_sweep(cfg, workers=1).to_csv()
        b = run_sweep(cfg, workers=3).to_csv()
        assert a == b

    def test_overflow_stays_in_its_own_row(self, write_config, tmp_path):
        # A -> B at 1e308 overflows as soon as A > 1, which only the
        # with-opponents arm of d=0 ever sees; d=10 starts at a takeover
        (tmp_path / "nature.crn").write_text("A -> B @ 1e308\nB -> A @ 20\n")
        out = run_sweep(write_config(diffs="0 10", **{"total = 40": "total = 10"}))
        tie, done = out.rows
        assert tie.d == 0
        assert tie.error == "trial 0: non-finite propensity in reaction 2"
        assert (tie.succ_with, tie.succ_without, tie.p_with) == (0, 0, None)
        assert done.d == 10 and done.error == ""
        assert done.succ_with == done.succ_without == done.trials == 40
        assert done.p_with == done.p_without == 1.0
        assert done.trunc_with == done.trunc_without == 0

    def test_overflow_row_same_for_any_worker_count(self, write_config,
                                                    tmp_path, monkeypatch):
        # the overflowing condition sits between two that stop at once; it
        # fails alone, and every sweep runs its lane pool once
        (tmp_path / "nature.crn").write_text("A -> B @ 1e308\nB -> A @ 20\n")
        cfg = write_config(diffs="10 0 -10", **{"total = 40": "total = 10"})
        pools = []
        run_pool = game_module._run_pool

        def spy(arms, *args):
            pools.append(len(arms))
            return run_pool(arms, *args)

        monkeypatch.setattr(game_module, "_run_pool", spy)
        one = run_sweep(cfg, workers=1)
        assert pools == [6]
        assert [row.error for row in one.rows] == [
            "", "trial 0: non-finite propensity in reaction 2", ""]
        assert [row.succ_with for row in one.rows] == [40, 0, 40]
        for workers in (2, 3):
            assert run_sweep(cfg, workers=workers).to_csv() == one.to_csv()
        assert pools == [6, 6, 6]

    def test_catalytic_violation_raises(self, write_config, tmp_path):
        (tmp_path / "nature.crn").write_text("X -> B @ 20\nB -> X @ 20\n")
        cfg = write_config()
        with pytest.raises(GameConfigError):
            run_sweep(cfg)


class TestRunRobustness:
    def test_report_and_rows_align(self, write_config):
        report, output = run_robustness(write_config(), alpha=0.1)
        assert len(report.conditions) == len(output.rows)
        for cond, row in zip(report.conditions, output.rows):
            assert cond.with_opponents.successes == row.succ_with
            assert cond.ratio == row.ratio
        assert report.verdict in ("PASS", "FAIL", "INCONCLUSIVE")

    def test_summary_line_mentions_verdict(self, write_config):
        report, _ = run_robustness(write_config(), alpha=0.1)
        line = robustness_summary(report)
        assert line.startswith("robustness ")
        assert f"verdict={report.verdict}" in line
        assert "alpha=0.1" in line

    def test_impossible_alpha_fails(self, write_config):
        report, _ = run_robustness(write_config(trials=200), alpha=50.0)
        assert report.verdict == "FAIL"


class TestSvg:
    def test_pure_function_of_rows(self, write_config):
        out = run_sweep(write_config())
        assert sweep_svg(out.rows) == sweep_svg(out.rows)

    def test_plots_both_curves(self, write_config):
        out = run_sweep(write_config())
        svg = sweep_svg(out.rows)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "success frequency" in svg
        assert "x(0) - y(0)" in svg
        assert "isolated" in svg and "with opponents" in svg

    def test_error_rows_are_skipped(self):
        rows = [SweepRow(d=0, n=10, trials=5, error="boom")]
        svg = sweep_svg(rows)
        assert "no plottable rows" in svg

    def test_svg_changes_with_data(self, write_config):
        out = run_sweep(write_config())
        changed = [SweepRow(**{**row.__dict__, "p_with": 0.123})
                   for row in out.rows]
        assert sweep_svg(out.rows) != sweep_svg(changed)
