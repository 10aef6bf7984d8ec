import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import crngame
from crngame import cli
from crngame.cli import main


@pytest.fixture
def crn_dir(tmp_path):
    (tmp_path / "main.crn").write_text(
        "2X + Y + A -> 3X + A @ 1\nX + 2Y + B -> 3Y + B @ 1\n"
        "init A = 4\ninit B = 4\n")
    (tmp_path / "nature.crn").write_text("A -> B @ 10\nB -> A @ 10\n")
    (tmp_path / "exp.ini").write_text("""
[player:main]
crn = main.crn
utility = takeover X Y

[player:nature]
crn = nature.crn

[sweep]
pair = X Y
total = 30
diffs = 0:10:10
trials = 30

[simulation]
seed = 5150
catalytic = true
""")
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_majority_run(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "pkg:r.crn", "--init", "X=4", "--init", "Y=1",
            "--seed", "3")
        assert code == 0
        assert "final-state: X=5 Y=0" in out
        assert "stop-reason: terminal" in out
        assert "events: 1" in out

    def test_composed_files_with_takeover_stop(self, crn_dir, capsys):
        code, out, err = run_cli(
            capsys, "simulate", str(crn_dir / "main.crn"),
            str(crn_dir / "nature.crn"), "--init", "X=20", "--init", "Y=10",
            "--takeover", "X", "Y", "--seed", "1")
        assert code == 0
        assert "stop-reason: early-stop" in out
        final = dict(part.split("=") for part in
                     out.splitlines()[1].split(": ")[1].split())
        assert int(final["X"]) == 0 or int(final["Y"]) == 0
        assert int(final["X"]) + int(final["Y"]) == 30
        assert int(final["A"]) + int(final["B"]) == 8

    def test_trajectory_dump(self, crn_dir, tmp_path, capsys):
        dump = tmp_path / "trace.tsv"
        code, out, _ = run_cli(
            capsys, "simulate", "pkg:r.crn", "--init", "X=5", "--init", "Y=3",
            "--seed", "2", "--dump", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "#\tX\tY"
        events = int(next(l for l in out.splitlines()
                          if l.startswith("events:")).split()[1])
        assert len(lines) == 1 + events

    @pytest.mark.parametrize("argv, lines, digest", [
        (("pkg:r_prime.crn", "--init", "X=60", "--init", "Y=40", "--volume", "2.5",
          "--seed", "3", "--takeover", "X", "Y"), 83,
         "ad919429923bc78705068fc61194f828e2d6a9342264d3e9c7b8252d019c45df"),
        (("pkg:r_prime.crn", "pkg:nature.crn", "--seed", "3", "--max-events", "5000"),
         5005, "55e5685d7008882d85f8e7b559d90fe82da0088f87df11c1892f05fbf532afe5"),
    ], ids=["takeover", "with-nature"])
    def test_dump_text_unchanged(self, capsys, argv, lines, digest):
        # against a recorded digest of stdout without the parts that pass
        # through libm log: the elapsed line and each event line's time
        code, out, _ = run_cli(capsys, "simulate", *argv, "--dump", "-")
        assert code == 0
        kept, times = [], []
        for line in out.splitlines():
            if line.startswith("elapsed:"):
                continue
            if "\t" in line and not line.startswith("#"):
                time, line = line.split("\t", 1)
                times.append(float(time))
            kept.append(line)
        assert len(kept) == lines
        assert all(a < b for a, b in zip([0.0] + times, times))
        text = "\n".join(kept) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_empty_crn_zero_events(self, tmp_path, capsys):
        empty = tmp_path / "empty.crn"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "simulate", str(empty))
        assert code == 0
        assert "stop-reason: terminal" in out
        assert "events: 0" in out

    def test_missing_file_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "no-such-file.crn")
        assert code == 1
        assert "error" in err.lower()

    def test_parse_error_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.crn"
        bad.write_text("X + Y -> X + Y @ 1\n")
        code, out, err = run_cli(capsys, "simulate", str(bad))
        assert code == 1
        assert "line 1" in err


class TestSweepCommand:
    def test_writes_csv_and_svg(self, crn_dir, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        svg_path = tmp_path / "rows.svg"
        code, out, _ = run_cli(
            capsys, "sweep", str(crn_dir / "exp.ini"),
            "--out", str(csv_path), "--svg", str(svg_path))
        assert code == 0
        text = csv_path.read_text()
        assert text.count("\n") >= 3
        assert svg_path.read_text().startswith("<svg")

    def test_stdout_when_no_out_path(self, crn_dir, capsys):
        code, out, _ = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"))
        assert code == 0
        assert out.splitlines()[0].startswith("# sweep:")

    def test_threads_do_not_change_bytes(self, crn_dir, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", str(crn_dir / "exp.ini"), "--out",
                       str(a), "--threads", "1")[0] == 0
        assert run_cli(capsys, "sweep", str(crn_dir / "exp.ini"), "--out",
                       str(b), "--threads", "3")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_above_cpu_count_warn_once(self, crn_dir, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr("crngame.cli.os.cpu_count", lambda: 2)
        monkeypatch.setattr("crngame.cli.os.sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        code, _, err = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"),
                               "--out", str(a), "--threads", "2")
        assert code == 0 and "warning" not in err
        code, _, err = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"),
                               "--out", str(b), "--threads", "3")
        assert code == 0
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: --threads 3 is more than the 2 CPUs; the "
                            "workers will share them (results do not depend on "
                            "the count)"]
        assert a.read_bytes() == b.read_bytes()

    def test_threads_follow_the_affinity_mask(self, crn_dir, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr("crngame.cli.os.cpu_count", lambda: 4)
        monkeypatch.setattr("crngame.cli.os.sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert cli._resolve_threads(0) == 1
        code, _, err = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"),
                               "--out", str(tmp_path / "a.csv"), "--threads", "2")
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: --threads 2 is more than the 1 CPUs; the workers will share "
            "them (results do not depend on the count)"]

    def test_threads_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.setattr("crngame.cli.os.cpu_count", lambda: 3)
        monkeypatch.delattr("crngame.cli.os.sched_getaffinity", raising=False)
        assert cli._resolve_threads(0) == 3

    def test_seed_override_changes_rows(self, crn_dir, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(capsys, "sweep", str(crn_dir / "exp.ini"), "--out", str(a))
        run_cli(capsys, "sweep", str(crn_dir / "exp.ini"), "--out", str(b),
                "--seed", "999")
        assert a.read_bytes() != b.read_bytes()

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[sweep]\n")
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 1
        assert "error" in err


class TestUsageErrors:
    """Bad settings and unknown species named by flags exit 1, not 2."""

    @pytest.mark.parametrize("extra", [
        ("--max-events", "0"),
        ("--volume", "-1"),
        ("--max-time", "0"),
    ], ids=lambda extra: extra[0])
    def test_sweep_settings(self, crn_dir, capsys, extra):
        code, _, err = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"), *extra)
        assert code == 1
        assert extra[0][2:].replace("-", "_") in err

    def test_config_volume(self, crn_dir, capsys):
        path = crn_dir / "exp.ini"
        path.write_text(path.read_text().replace("seed = 5150",
                                                 "seed = 5150\nvolume = -1"))
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 1
        assert "volume" in err

    @pytest.mark.parametrize("argv,message", [
        (("simulate", "huge.crn"), "line 2, column 10: initial count must be at "
         "most 9223372036854775807 (near '9223372036854775808')"),
        (("oracle", "huge.crn", "--winner", "X", "--loser", "Y"),
         "line 2, column 10: initial count must be at most 9223372036854775807 "
         "(near '9223372036854775808')"),
        (("simulate", "pkg:r.crn", "--init", "X=9223372036854775808"),
         "--init counts must be at most 9223372036854775807"),
        (("sweep", "exp.ini"), "[player:main] init.A = '9223372036854775808': "
         "initial count must be at most 9223372036854775807"),
        # past int()'s 4,300-digit limit: the count is not echoed
        (("oracle", "pkg:r.crn", "--init", "X=" + "1" * 5000, "--winner", "X",
          "--loser", "Y"), "--init counts must be at most 9223372036854775807"),
        (("sweep", "long.ini"), "[player:main] init.A must be at most 9223372036854775807"),
    ], ids=["simulate-crn", "oracle-crn", "simulate-flag", "sweep-config",
            "oracle-flag-5000-digits", "sweep-config-5000-digits"])
    def test_count_above_int64(self, crn_dir, capsys, monkeypatch, argv, message):
        # one past the largest int64 count is one error line, not a traceback
        (crn_dir / "huge.crn").write_text("X + Y -> 2X @ 1\ninit X = 9223372036854775808\n")
        path = crn_dir / "exp.ini"
        path.write_text(path.read_text().replace(
            "utility = takeover X Y", "utility = takeover X Y\ninit.A = 9223372036854775808"))
        (crn_dir / "long.ini").write_text(path.read_text().replace(
            "init.A = 9223372036854775808", "init.A = " + "1" * 5000))
        monkeypatch.chdir(crn_dir)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_config_non_numeric(self, crn_dir, capsys):
        path = crn_dir / "exp.ini"
        path.write_text(path.read_text().replace("seed = 5150",
                                                 "seed = 5150\nvolume = abc"))
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 1
        assert "error: [simulation] volume = 'abc' is not a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,fragment", [
        (("simulate", "pkg:r.crn", "--init", "X=3", "--max-time", "0"), "max_time"),
        (("simulate", "pkg:r.crn", "--init", "Q=3"), "'Q'"),
        (("simulate", "pkg:r.crn", "--init", "X=3", "--takeover", "X", "Q"), "'Q'"),
        (("oracle", "pkg:r.crn", "--init", "X=3", "--winner", "Q", "--loser", "Y"),
         "'Q'"),
        (("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--winner", "X",
          "--loser", "Y", "--volume", "-1"), "volume"),
        (("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--winner", "X",
          "--loser", "Y", "--cap", "0"), "--cap"),
        (("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--winner", "X",
          "--loser", "Y", "--cap", "-3"), "--cap"),
        # underscores only between two digits, as int() reads them
        (("simulate", "pkg:r.crn", "--init", "X=_"), "error: bad --init count '_'\n"),
        (("simulate", "pkg:r.crn", "--init", "X=1__2"), "error: bad --init count '1__2'\n"),
        (("simulate", "pkg:r.crn", "--init", "X=+_5"), "error: bad --init count '+_5'\n"),
    ], ids=["simulate-max-time", "simulate-init", "simulate-takeover", "oracle-winner",
            "oracle-volume", "oracle-cap-0", "oracle-cap-negative", "simulate-init-underscore",
            "simulate-init-double-underscore", "simulate-init-leading-underscore"])
    def test_flags(self, capsys, argv, fragment):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert fragment in err

    @pytest.mark.parametrize("argv,fragment", [
        (("simulate", "pkg:r.crn", "--out", "x.csv"), "--out"),
        (("simulate", "pkg:r.crn", "--svg", "x.svg"), "--svg"),
        (("simulate", "pkg:r.crn", "--threads", "2"), "--threads"),
        (("simulate", "pkg:r.crn", "--confidence", "0.5"), "--confidence"),
        (("oracle", "pkg:r.crn", "--winner", "X", "--loser", "Y", "--seed", "1"),
         "--seed"),
        (("oracle", "pkg:r.crn", "--winner", "X", "--loser", "Y", "--max-events",
          "5"), "--max-events"),
        (("fmt", "pkg:r.crn", "--seed", "1"), "--seed"),
        (("fmt", "pkg:r.crn", "--volume", "2"), "--volume"),
        (("oracle", "pkg:r.crn", "--winner", "X"), "--loser"),
        (("simulate",), "FILE.crn"),
    ], ids=["simulate-out", "simulate-svg", "simulate-threads", "simulate-confidence",
            "oracle-seed", "oracle-max-events", "fmt-seed", "fmt-volume",
            "oracle-no-loser", "simulate-no-file"])
    def test_argparse_errors(self, capsys, argv, fragment):
        # a flag the subcommand does not read, or a missing argument
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error:" in err and fragment in err
        assert err.startswith(f"usage: crngame {argv[0]}")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--help")
        assert code == 0
        assert out.startswith("usage: crngame simulate")
        assert "--out" not in out

    @pytest.fixture
    def no_lanes(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a lane ran before the output paths were checked")
        monkeypatch.setattr("crngame.cli.run_sweep", fail)

    @pytest.mark.parametrize("command", ["sweep", "robustness"])
    @pytest.mark.parametrize("diffs,fragment", [
        ("30:10:10", "no condition"),
        ("1, 3", "no condition"),
        ("0, 40", "d = 40 and n = 30"),
    ], ids=["empty-range", "all-odd", "d-over-n"])
    def test_config_conditions(self, crn_dir, capsys, no_lanes, command, diffs,
                               fragment):
        # both commands reject a condition set at load, before any lane runs
        path = crn_dir / "exp.ini"
        path.write_text(path.read_text().replace("diffs = 0:10:10",
                                                 f"diffs = {diffs}"))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: [sweep] diffs") and fragment in err

    @pytest.mark.parametrize("command", ["sweep", "robustness"])
    @pytest.mark.parametrize("edits,message", [
        ([("exp.ini", "takeover X Y", "takeover X Z")],
         "utility species 'Z' not in the composed game"),
        # C is in the game but not in the baseline, which has only player main
        ([("exp.ini", "takeover X Y", "takeover X C"),
          ("nature.crn", "A -> B @ 10", "A -> B @ 10\nC -> D @ 10")],
         "utility species 'C' not in the composed game"),
        ([("nature.crn", "A -> B @ 10\nB -> A @ 10", "X -> B @ 10\nB -> X @ 10")],
         "catalytic validation failed: species X owned by both player main "
         "and player nature"),
    ], ids=["utility-species", "utility-species-opponent-only", "catalytic"])
    def test_game_checked_at_load(self, crn_dir, capsys, no_lanes, command, edits,
                                  message):
        # a game that cannot be played is one error line, whichever command
        for file, old, new in edits:
            path = crn_dir / file
            path.write_text(path.read_text().replace(old, new))
        target = crn_dir / "rows.csv"
        code, out, err = run_cli(capsys, command, str(crn_dir / "exp.ini"),
                                 "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not target.exists()

    @pytest.mark.parametrize("command", ["sweep", "robustness"])
    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_output_directory_missing(self, crn_dir, capsys, no_lanes, command, flag):
        target = crn_dir / "no-such-dir" / "rows.out"
        code, out, err = run_cli(capsys, command, str(crn_dir / "exp.ini"),
                                 flag, str(target))
        assert code == 1
        assert err.startswith("error: ") and "does not exist" in err
        assert out == ""
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", ["sweep", "robustness"])
    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_output_path_is_directory(self, crn_dir, capsys, no_lanes, command, flag):
        code, out, err = run_cli(capsys, command, str(crn_dir / "exp.ini"),
                                 flag, str(crn_dir))
        assert code == 1
        assert err.startswith("error: ") and "is a directory" in err
        assert out == ""

    def test_failed_write_is_an_error_line(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fmt", "pkg:r.crn", "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestRobustnessCommand:
    def test_pass_exit_zero(self, crn_dir, capsys):
        code, out, _ = run_cli(capsys, "robustness", str(crn_dir / "exp.ini"),
                               "--alpha", "0.05")
        assert code == 0
        assert "verdict=PASS" in out

    def test_fail_exit_three(self, crn_dir, capsys):
        code, out, _ = run_cli(capsys, "robustness", str(crn_dir / "exp.ini"),
                               "--alpha", "50")
        assert code == 3
        assert "verdict=FAIL" in out

    def test_same_outputs_as_sweep(self, crn_dir, capsys):
        # robustness runs the sweep and reads its results, so it writes the
        # sweep's CSV and SVG byte for byte
        ini = str(crn_dir / "exp.ini")
        for command in ("sweep", "robustness"):
            code, _, _ = run_cli(capsys, command, ini, "--threads", "2",
                                 "--out", str(crn_dir / f"{command}.csv"),
                                 "--svg", str(crn_dir / f"{command}.svg"))
            assert code == 0
        for suffix in (".csv", ".svg"):
            sweep = (crn_dir / f"sweep{suffix}").read_bytes()
            assert sweep == (crn_dir / f"robustness{suffix}").read_bytes()
        assert sweep.count(b"<circle") == 2 * 2  # both conditions, both curves

    def test_paired_trivial_opponents_ratio_one(self, crn_dir, tmp_path, capsys):
        (tmp_path / "empty.crn").write_text("")
        (tmp_path / "paired.ini").write_text(f"""
[player:main]
crn = {crn_dir / 'main.crn'}
utility = takeover X Y

[player:void]
crn = empty.crn

[sweep]
pair = X Y
total = 30
diffs = 10
trials = 40

[simulation]
seed = 31337
""")
        code, out, _ = run_cli(capsys, "robustness", str(tmp_path / "paired.ini"),
                               "--alpha", "1.0", "--paired-seeds")
        assert code == 0
        assert "ratio=1.0" in out
        assert "verdict=PASS" in out


class TestFullScaleSimulate:
    def test_composed_full_population_converges_fast(self, capsys):
        # one full-population trajectory of the shipped consensus + shuffler
        # game: a takeover happens within ~1e-8 simulated time units
        code, out, _ = run_cli(
            capsys, "simulate", "pkg:r_prime.crn", "pkg:nature.crn",
            "--init", "X=5120", "--init", "Y=4880",
            "--takeover", "X", "Y", "--seed", "1")
        assert code == 0
        assert "stop-reason: early-stop" in out
        final = dict(part.split("=") for part in
                     out.splitlines()[1].split(": ")[1].split())
        assert {int(final["X"]), int(final["Y"])} == {0, 10000}
        elapsed = float(next(l for l in out.splitlines()
                             if l.startswith("elapsed:")).split()[1])
        assert elapsed < 1e-7


class TestOracleCommand:
    def test_exact_probability_formatting(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2",
            "--winner", "X", "--loser", "Y")
        assert code == 0
        assert out.splitlines()[0] == "p = 0.750000000000"

    def test_all_states_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "pkg:r.crn", "--init", "X=2", "--init", "Y=2",
            "--winner", "X", "--loser", "Y", "--all")
        lines = out.splitlines()
        assert lines[0] == "p = 0.500000000000"
        assert len(lines) == 1 + 5  # header + the five states of n=4
        assert any(l.startswith("X=4 Y=0 p=1.00000000000") for l in lines)

    def test_all_states_text_unchanged(self, tmp_path, capsys):
        # approximate majority at n = 40 (860 states), against a recorded
        # digest of the whole text
        am = tmp_path / "am.crn"
        am.write_text("X + Y -> X + B @ 1\nX + Y -> Y + B @ 1\n"
                      "B + X -> 2X @ 1\nB + Y -> 2Y @ 1\n")
        code, out, _ = run_cli(capsys, "oracle", str(am), "--init", "X=22",
                               "--init", "Y=18", "--winner", "X", "--loser", "Y",
                               "--all")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["p = 0.738801309752",
                             "X=22 Y=18 B=0 p=0.738801309752",
                             "X=22 Y=17 B=1 p=0.791153904582"]
        assert len(lines) == 1 + 860
        # exactly 1 - 2**-13 = 0.9998779296875 (rational iterative refinement);
        # a solve 4 ulp low, 0.9998779296874996, prints ...687
        assert lines[608] == "X=13 Y=1 B=26 p=0.999877929688"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c4ab69d6867b88b51eea52b60a3703b7dae82d9fda66d06107ca59eea5764d7c")

    def test_cap_exceeded_is_runtime_error(self, tmp_path, capsys):
        grower = tmp_path / "grow.crn"
        grower.write_text("X -> 2X @ 1\n")
        code, _, err = run_cli(capsys, "oracle", str(grower), "--init", "X=1",
                               "--winner", "X", "--loser", "X", "--cap", "10")
        assert code == 2
        assert "simulate" in err  # advises the stochastic path

    def test_shuffler_never_absorbs(self, crn_dir, capsys):
        code, _, err = run_cli(
            capsys, "oracle", str(crn_dir / "nature.crn"), "--init", "A=2",
            "--winner", "A", "--loser", "B")
        assert code == 2
        assert "absorbing" in err


class TestFmtCommand:
    def test_canonicalizes(self, tmp_path, capsys):
        messy = tmp_path / "messy.crn"
        messy.write_text("2 X   +Y->3X@1.000\ninit   X=4\n")
        code, out, _ = run_cli(capsys, "fmt", str(messy))
        assert code == 0
        assert out == "2X + Y -> 3X @ 1\ninit X = 4\n"

    def test_write_to_file(self, tmp_path, capsys):
        messy = tmp_path / "messy.crn"
        messy.write_text("A->B@2\n")
        out_path = tmp_path / "clean.crn"
        code, _, _ = run_cli(capsys, "fmt", str(messy), "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "A -> B @ 2\n"

    def test_count_past_int_digit_limit_is_one_error_line(self, tmp_path, capsys):
        long_count = tmp_path / "long.crn"
        long_count.write_text("X -> Y @ 1\ninit X = " + "1" * 5000 + "\n")
        code, out, err = run_cli(capsys, "fmt", str(long_count))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 2, column 10: initial count must be at most")
        assert len(err.splitlines()) == 1


class TestNoScipyOutsideOracle:
    """Only the exact oracle loads scipy; every simulation command starts without it."""

    def test_fresh_interpreter(self, crn_dir, tmp_path):
        script = textwrap.dedent("""
            import sys

            def assert_no_scipy(step):
                loaded = sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))
                assert not loaded, f"{step} loaded {loaded[:5]}"

            import crngame
            import crngame.cli
            assert_no_scipy("import")
            main = crngame.cli.main
            ini, out = sys.argv[1], sys.argv[2]
            assert main(["sweep", ini, "--out", out + ".csv"]) == 0
            assert_no_scipy("sweep")
            assert main(["robustness", ini, "--alpha", "0.05"]) == 0
            assert_no_scipy("robustness")
            assert main(["simulate", "pkg:r.crn", "--init", "X=4", "--init", "Y=1",
                         "--seed", "3", "--dump", out + ".dump"]) == 0
            assert_no_scipy("simulate")
            assert main(["fmt", "pkg:r.crn"]) == 0
            assert_no_scipy("fmt")
            assert main(["oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2",
                         "--winner", "X", "--loser", "Y"]) == 0
            assert "scipy" in sys.modules
        """)
        src = str(Path(crngame.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(crn_dir / "exp.ini"),
             str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run.csv").read_text().startswith("# sweep:")
        assert proc.stdout.splitlines()[-1].startswith("p = ")
