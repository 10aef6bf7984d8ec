from dataclasses import replace

import pytest

from crngame import game as game_module
from crngame.config import ConfigError, load_config
from crngame.core import CrnError
from crngame.experiment import CSV_COLUMNS, robustness_summary, run_sweep
from crngame.game import ConditionResult, robustness_report
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
        assert [r.label for r in out.results] == ["0", "10", "20"]
        assert all(r.with_opponents.trials == 40 for r in out.results)
        assert all(r.with_opponents.successes <= 40 for r in out.results)
        assert all(r.error is None for r in out.results)

    def test_single_trial_single_condition(self, write_config):
        out = run_sweep(write_config(diffs="10", trials=1))
        [row] = out.results
        assert row.with_opponents.successes in (0, 1)
        assert row.baseline.successes in (0, 1)

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
        a = run_sweep(replace(cfg, threads=1)).to_csv()
        b = run_sweep(replace(cfg, threads=3)).to_csv()
        assert a == b

    def test_overflow_stays_in_its_own_row(self, write_config, tmp_path):
        # A -> B at 1e308 overflows as soon as A > 1, which only the
        # with-opponents arm of d=0 ever sees; d=10 starts at a takeover
        (tmp_path / "nature.crn").write_text("A -> B @ 1e308\nB -> A @ 20\n")
        out = run_sweep(write_config(diffs="0 10", **{"total = 40": "total = 10"}))
        tie, done = out.results
        assert tie.label == "0"
        assert str(tie.error) == "trial 0: non-finite propensity in reaction 2"
        assert (tie.with_opponents, tie.baseline, tie.ratio) == (None, None, None)
        assert done.label == "10" and done.error is None
        w, b = done.with_opponents, done.baseline
        assert w.successes == b.successes == w.trials == b.trials == 40
        assert w.mean == b.mean == 1.0
        assert w.truncated == b.truncated == 0
        # an error row keeps d, n and trials, counts zero and no estimates
        assert out.to_csv().splitlines()[-2:] == [
            "0,10,40,0,0,,,,,,,,,0,0,trial 0: non-finite propensity in reaction 2",
            "10,10,40,40,40,1.0,0.8577267864924155,0.9999999999999999,1.0,"
            "0.8577267864924155,0.9999999999999999,1.0,0.8577267864924156,0,0,"]

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
        one = run_sweep(replace(cfg, threads=1))
        assert pools == [6]
        assert [row.error and str(row.error) for row in one.results] == [
            None, "trial 0: non-finite propensity in reaction 2", None]
        assert [row.with_opponents and row.with_opponents.successes
                for row in one.results] == [40, None, 40]
        for workers in (2, 3):
            assert run_sweep(replace(cfg, threads=workers)).to_csv() == one.to_csv()
        assert pools == [6, 6, 6]

    def test_catalytic_violation_raises(self, write_config, tmp_path):
        (tmp_path / "nature.crn").write_text("X -> B @ 20\nB -> X @ 20\n")
        with pytest.raises(ConfigError, match="catalytic validation failed"):
            write_config()


class TestRunRobustness:
    def test_report_and_rows_align(self, write_config):
        output = run_sweep(write_config())
        report = robustness_report(output.results, alpha=0.1)
        rows = [dict(zip(CSV_COLUMNS, line.split(",")))
                for line in output.to_csv().splitlines()
                if not line.startswith(("#", "d,"))]
        assert len(report.conditions) == len(rows)
        for cond, row in zip(report.conditions, rows):
            assert cond.with_opponents.successes == int(row["succ_with"])
            assert cond.ratio == float(row["ratio"])
        assert report.verdict in ("PASS", "FAIL", "INCONCLUSIVE")

    def test_summary_line_mentions_verdict(self, write_config):
        report = robustness_report(run_sweep(write_config()).results, alpha=0.1)
        line = robustness_summary(report)
        assert line.startswith("robustness ")
        assert f"verdict={report.verdict}" in line
        assert "alpha=0.1" in line

    def test_impossible_alpha_fails(self, write_config):
        report = robustness_report(run_sweep(write_config(trials=200)).results,
                                   alpha=50.0)
        assert report.verdict == "FAIL"


class TestSvg:
    def test_pure_function_of_rows(self, write_config):
        out = run_sweep(write_config())
        assert sweep_svg(out.results) == sweep_svg(out.results)

    def test_plots_both_curves(self, write_config):
        out = run_sweep(write_config())
        svg = sweep_svg(out.results)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "success frequency" in svg
        assert "x(0) - y(0)" in svg
        assert "isolated" in svg and "with opponents" in svg

    def test_error_rows_are_skipped(self):
        rows = [ConditionResult("0", error=CrnError("boom"))]
        svg = sweep_svg(rows)
        assert "no plottable rows" in svg

    def test_svg_changes_with_data(self, write_config):
        out = run_sweep(write_config())
        changed = [replace(row, with_opponents=replace(row.with_opponents, mean=0.123))
                   for row in out.results]
        assert sweep_svg(out.results) != sweep_svg(changed)
