import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import crngame
from crngame import game as game_module
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


def record_pool_threads(monkeypatch) -> list[int]:
    """The thread count of each lane pool started from now on, in order."""
    pools = []
    executor = game_module.ThreadPoolExecutor

    def recorded(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(game_module, "ThreadPoolExecutor", recorded)
    return pools


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

    @pytest.mark.parametrize("argv", [["simulate", "--max-events", "3"],
                                      ["oracle", "--winner", "X", "--loser", "Y"]])
    def test_count_above_int64_is_one_error_line(self, tmp_path, capsys, argv):
        grow = tmp_path / "grow.crn"
        grow.write_text("0 -> X @ 1\nX -> Y @ 1e-30\ninit X = 9223372036854775806\n")
        code, out, err = run_cli(capsys, argv[0], str(grow), *argv[1:])
        assert code == 2 and out == ""
        assert err == ("error: reaction 0 takes the count of species 'X' above "
                       "9223372036854775807\n")

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
        monkeypatch.setattr("crngame.game.os.cpu_count", lambda: 2)
        monkeypatch.setattr("crngame.game.os.sched_getaffinity", lambda pid: {0, 1},
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
        assert warnings == ["warning: --threads 3 is more than the 2 CPUs; 2 "
                            "threads will run (results do not depend on the "
                            "count)"]
        assert a.read_bytes() == b.read_bytes()

    def test_threads_follow_the_affinity_mask(self, crn_dir, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr("crngame.game.os.cpu_count", lambda: 4)
        monkeypatch.setattr("crngame.game.os.sched_getaffinity", lambda pid: {0},
                            raising=False)
        pools = record_pool_threads(monkeypatch)
        code, _, err = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"),
                               "--out", str(tmp_path / "a.csv"), "--threads", "0")
        assert (code, err, pools) == (0, "", [1])
        code, _, err = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"),
                               "--out", str(tmp_path / "a.csv"), "--threads", "2")
        assert (code, pools) == (0, [1, 1])
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: --threads 2 is more than the 1 CPUs; 1 threads will run "
            "(results do not depend on the count)"]
        # a count from the config names its key, not the flag
        path = crn_dir / "exp.ini"
        path.write_text(path.read_text().replace("seed = 5150", "seed = 5150\nthreads = 2"))
        code, _, err = run_cli(capsys, "sweep", str(path), "--out", str(tmp_path / "a.csv"))
        assert (code, pools) == (0, [1, 1, 1])
        assert err.startswith("warning: [simulation] threads = 2 is more than the 1 CPUs;")

    def test_threads_without_an_affinity_mask(self, crn_dir, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr("crngame.game.os.cpu_count", lambda: 3)
        monkeypatch.delattr("crngame.game.os.sched_getaffinity", raising=False)
        pools = record_pool_threads(monkeypatch)
        code, _, err = run_cli(capsys, "sweep", str(crn_dir / "exp.ini"),
                               "--out", str(tmp_path / "a.csv"), "--threads", "0")
        assert (code, err, pools) == (0, "", [3])

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

    @pytest.mark.parametrize("names,fragment", [
        (["main", "nature", "nature"], "two players are named 'nature'"),
        (["main\nX,Y,oops", "nature"], "player name 'main\\nX,Y,oops' holds a line break"),
    ], ids=["duplicate", "line-break"])
    def test_bad_json_player_names(self, crn_dir, capsys, names, fragment):
        # one error line and exit 1, and no CSV whose comment line the name breaks
        players = [{"name": name, "crn": "main.crn" if i == 0 else "nature.crn"}
                   for i, name in enumerate(names)]
        players[0]["utility"] = "takeover X Y"
        path = crn_dir / "exp.json"
        path.write_text(json.dumps({"players": players, "sweep": {
            "pair": ["X", "Y"], "total": 30, "diffs": [0], "trials": 5}}))
        code, out, err = run_cli(capsys, "sweep", str(path))
        assert (code, out, err) == (1, "", f"error: {fragment}\n")


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

    @pytest.mark.parametrize("command", ["sweep", "robustness"])
    def test_shared_count_past_int64_fails_at_load(self, crn_dir, capsys, monkeypatch,
                                                   command):
        # 2^62 + 2^62 of a species that both players start with would wrap to
        # -2^63 in an int64 start; it is a config error before any lane runs
        def fail(*args, **kwargs):
            raise AssertionError("a lane ran")
        monkeypatch.setattr(game_module, "simulate_batch", fail)
        path = crn_dir / "exp.ini"
        half = "\ninit.A = 4611686018427387904"
        path.write_text(path.read_text()
                        .replace("utility = takeover X Y", "utility = takeover X Y" + half)
                        .replace("crn = nature.crn", "crn = nature.crn" + half))
        assert run_cli(capsys, command, str(path)) == (
            1, "", "error: species 'A': the players' initial counts can sum to "
                   "9223372036854775808, but initial counts must be at most "
                   "9223372036854775807\n")

    @pytest.mark.parametrize("argv", [
        ("simulate",), ("simulate", "--init", "X=1"),
        ("oracle", "--winner", "X", "--loser", "Y")],
        ids=["simulate", "simulate-init", "oracle"])
    def test_files_summing_past_int64_are_one_error_line(self, tmp_path, capsys, argv):
        # the files' start is checked when they are composed, so an --init
        # that would lower the sum comes too late
        for name in ("a.crn", "b.crn"):
            (tmp_path / name).write_text("X -> Y @ 1\ninit X = 4611686018427387904\n")
        assert run_cli(capsys, argv[0], str(tmp_path / "a.crn"), str(tmp_path / "b.crn"),
                       *argv[1:]) == (
            1, "", "error: species 'X': the players' initial counts can sum to "
                   "9223372036854775808, but initial counts must be at most "
                   "9223372036854775807\n")

    @pytest.mark.parametrize("argv", [("simulate", "pkg:r.crn"), ("sweep", "exp.ini"),
                                      ("robustness", "exp.ini")],
                             ids=lambda argv: argv[0])
    def test_max_events_above_int64(self, crn_dir, capsys, monkeypatch, argv):
        # the lane kernel's event ceiling is an int64: 2^64 would wrap to 0
        monkeypatch.chdir(crn_dir)
        code, out, err = run_cli(capsys, *argv, "--max-events", str(2**64))
        assert (code, out, err) == (
            1, "", "error: max_events must be at most 9223372036854775807\n")

    def test_config_non_numeric(self, crn_dir, capsys):
        path = crn_dir / "exp.ini"
        path.write_text(path.read_text().replace("seed = 5150",
                                                 "seed = 5150\nvolume = abc"))
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 1
        assert "error: [simulation] volume = 'abc' is not a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting,flag,message", [
        ("threads = -1", (), "[simulation] threads must be >= 0"),
        ("threads = 2", ("--threads", "-1"), "--threads must be >= 0"),
    ], ids=["config", "flag"])
    def test_negative_threads_name_their_source(self, crn_dir, capsys, setting, flag,
                                                message):
        path = crn_dir / "exp.ini"
        path.write_text(path.read_text().replace("seed = 5150",
                                                 f"seed = 5150\n{setting}"))
        assert run_cli(capsys, "sweep", str(path), *flag) == (1, "", f"error: {message}\n")

    SEED_RANGE = "seed must be between 0 and 18446744073709551615"

    @pytest.mark.parametrize("argv,edit,message", [
        (("simulate", "pkg:r.crn", "--seed", "-1"), None, SEED_RANGE),
        (("simulate", "pkg:r.crn", "--seed", str(2**64)), None, SEED_RANGE),
        (("sweep", "exp.ini", "--seed", "-1"), None, SEED_RANGE),
        (("robustness", "exp.ini", "--seed", str(2**64)), None, SEED_RANGE),
        (("sweep", "exp.ini"), ("seed = 5150", "seed = -7"), SEED_RANGE),
        (("sweep", "exp.ini"), ("seed = 5150", "seed = " + "1" * 5000),
         "[simulation] seed must be at most 18446744073709551615"),
        (("sweep", "exp.ini"), ("trials = 30", "trials = " + "1" * 5000),
         "[sweep] trials must be at most 9223372036854775807"),
        (("sweep", "exp.ini"), ("total = 30", "total = " + "1" * 5000),
         "[sweep] total must be at most 9223372036854775807"),
        (("sweep", "exp.ini"), ("total = 30", "total = 100000000000000000000"),
         "[sweep] total must be at most 9223372036854775807"),
        # each flag is read as its config key: a long value is named, not echoed
        (("simulate", "pkg:r.crn", "--seed", "1" * 5000), None,
         "--seed must be at most 18446744073709551615"),
        (("sweep", "exp.ini", "--seed", "1" * 5000), None,
         "--seed must be at most 18446744073709551615"),
        (("simulate", "pkg:r.crn", "--max-events", "1" * 5000), None,
         "--max-events must be at most 9223372036854775807"),
        (("sweep", "exp.ini", "--max-events", "1" * 5000), None,
         "--max-events must be at most 9223372036854775807"),
        (("sweep", "exp.ini", "--threads", "1" * 5000), None,
         "--threads must be at most 9223372036854775807"),
        (("sweep", "exp.ini", "--threads", "1" + "0" * 3000), None,
         "--threads must be at most 9223372036854775807"),
        (("sweep", "exp.ini"), ("seed = 5150", "seed = 5150\nthreads = 1" + "0" * 3000),
         "[simulation] threads must be at most 9223372036854775807"),
        (("oracle", "pkg:r.crn", "--winner", "X", "--loser", "Y", "--cap", "1" * 5000),
         None, "--cap must be at most 9223372036854775807"),
    ], ids=["simulate-seed-negative", "simulate-seed-2^64", "sweep-seed-flag",
            "robustness-seed-flag", "config-seed-negative", "config-seed-5000-digits",
            "config-trials-5000-digits", "config-total-5000-digits", "config-total-1e20",
            "simulate-seed-5000-digits", "sweep-seed-5000-digits",
            "simulate-max-events-5000-digits", "sweep-max-events-5000-digits",
            "sweep-threads-5000-digits", "sweep-threads-3001-digits",
            "config-threads-3001-digits", "oracle-cap-5000-digits"])
    def test_integer_out_of_range_is_one_short_line(self, crn_dir, capsys, monkeypatch,
                                                    argv, edit, message):
        # the seed is a 64-bit word; a key past int()'s digit limit is named,
        # not echoed
        if edit is not None:
            path = crn_dir / "exp.ini"
            path.write_text(path.read_text().replace(*edit))
        monkeypatch.chdir(crn_dir)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert len(err) < 200

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
        # V**-2 underflows to 0 at V = 1e200, and is 0 at V = inf: no reaction fires
        (("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--winner", "X",
          "--loser", "Y", "--volume", "1e200"),
         "error: reaction 0: k * V**-2 = 1.0 * 1e+200**-2 underflows to 0\n"),
        (("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--winner", "X",
          "--loser", "Y", "--volume", "inf"),
         "error: volume must be positive and finite, got inf\n"),
        (("simulate", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--volume", "1e200"),
         "error: reaction 0: k * V**-2 = 1.0 * 1e+200**-2 underflows to 0\n"),
        (("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--winner", "X",
          "--loser", "Y", "--volume", "1e-200"),
         "error: reaction 0: k * V**-2 = 1.0 * 1e-200**-2 overflows\n"),
        # were the sweep to run, it would write nowhere
        (("robustness", "pkg:takeover_point.ini", "--alpha", "nan", "--out", os.devnull,
          "--threads", "1"), "error: --alpha must be a finite number, got nan\n"),
        # a takeover pair of one species would score every run alike
        (("simulate", "pkg:r.crn", "--init", "X=3", "--takeover", "X", "X"),
         "error: a takeover pair must be two different species, not 'X' twice\n"),
        (("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2", "--winner", "X",
          "--loser", "X"),
         "error: --winner and --loser must be two different species, not 'X' twice\n"),
    ], ids=["simulate-max-time", "simulate-init", "simulate-takeover", "oracle-winner",
            "oracle-volume", "oracle-cap-0", "oracle-cap-negative", "simulate-init-underscore",
            "simulate-init-double-underscore", "simulate-init-leading-underscore",
            "oracle-volume-1e200", "oracle-volume-inf", "simulate-volume-1e200",
            "oracle-volume-1e-200", "robustness-alpha-nan", "simulate-takeover-one-species",
            "oracle-winner-is-loser"])
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

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_alpha_must_be_finite(self, crn_dir, capsys, no_lanes, alpha):
        # a NaN threshold would never fail the gate; it is rejected before any
        # lane runs
        code, out, err = run_cli(capsys, "robustness", str(crn_dir / "exp.ini"),
                                 "--alpha", alpha)
        assert (code, out, err) == (
            1, "", f"error: --alpha must be a finite number, got {alpha}\n")

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
        # a pair of one species: every lane would score alike
        ([("exp.ini", "pair = X Y", "pair = X X")],
         "sweep pair must be two different species, not 'X' twice"),
        ([("exp.ini", "takeover X Y", "takeover X X")],
         "a takeover pair must be two different species, not 'X' twice"),
    ], ids=["utility-species", "utility-species-opponent-only", "catalytic",
            "pair-one-species", "utility-one-species"])
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
        # digest of the whole text; swapping X and Y is a symmetry of it, so
        # one state of each mirrored pair is solved for (CHANGES.md gives the
        # exact rational check of this digest)
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
            "172f8c88fdfb942bcc2eb1658e49d2c6a299582ebba41060982e657833453509")

    def test_benchmark_crn_text_unchanged(self, tmp_path, capsys):
        # the reaction lines of perfbench/am.crn at n = 40, from another
        # split, against a recorded digest of the whole text
        am = tmp_path / "am.crn"
        am.write_text("X + Y -> X + B @ 1\nX + Y -> Y + B @ 1\n"
                      "B + X -> 2X @ 1\nB + Y -> 2Y @ 1\n")
        code, out, _ = run_cli(capsys, "oracle", str(am), "--init", "X=21",
                               "--init", "Y=19", "--winner", "X", "--loser", "Y",
                               "--all")
        assert code == 0
        assert len(out.splitlines()) == 861
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f58e4993508e0fb38cd63ec401e635a1b3cf0a7b046ea620ffc7fcc9c9946888")

    def test_text_without_the_symmetry_unchanged(self, tmp_path, capsys):
        # approximate majority with X + Y -> Y + B at rate 2: no species swap
        # maps it onto itself, so every transient state is solved for, as
        # before the mirrored solve; a recorded digest of the whole text
        am = tmp_path / "am.crn"
        am.write_text("X + Y -> X + B @ 1\nX + Y -> Y + B @ 2\n"
                      "B + X -> 2X @ 1\nB + Y -> 2Y @ 1\n")
        code, out, _ = run_cli(capsys, "oracle", str(am), "--init", "X=22",
                               "--init", "Y=18", "--winner", "X", "--loser", "Y",
                               "--all")
        assert code == 0
        assert len(out.splitlines()) == 861
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "66874ae2024523592c5070d7b4c6378cf501bc78eefd2d35a11cb5bda1f7be6c")

    def test_cap_exceeded_is_runtime_error(self, tmp_path, capsys):
        grower = tmp_path / "grow.crn"
        grower.write_text("X -> 2X @ 1\nY -> 0 @ 1\n")
        code, _, err = run_cli(capsys, "oracle", str(grower), "--init", "X=1",
                               "--winner", "X", "--loser", "Y", "--cap", "10")
        assert code == 2
        assert "simulate" in err  # advises the stochastic path

    def test_shuffler_never_absorbs(self, crn_dir, capsys):
        code, _, err = run_cli(
            capsys, "oracle", str(crn_dir / "nature.crn"), "--init", "A=2",
            "--winner", "A", "--loser", "B")
        assert code == 2
        assert "absorbing" in err

    def test_files_load_as_their_union(self, tmp_path, capsys):
        # oracle reads FILE.crn... as simulate does: two files give, byte for
        # byte, the table of one file with their reactions in the same order
        first = "X + Y -> X + B @ 1\nX + Y -> Y + B @ 1\ninit X = 7\n"
        second = "B + X -> 2X @ 1\nB + Y -> 2Y @ 1\ninit Y = 5\n"
        (tmp_path / "a.crn").write_text(first)
        (tmp_path / "b.crn").write_text(second)
        (tmp_path / "ab.crn").write_text(first + second)
        query = ("--winner", "X", "--loser", "Y", "--all")
        code, split, _ = run_cli(capsys, "oracle", str(tmp_path / "a.crn"),
                                 str(tmp_path / "b.crn"), *query)
        assert code == 0
        assert run_cli(capsys, "oracle", str(tmp_path / "ab.crn"), *query) == (0, split, "")
        assert split.splitlines()[1].startswith("X=7 Y=5 B=0 p=")

    def test_winner_scores_only_where_the_loser_is_zero(self, tmp_path, capsys):
        # 2Y -> Z leaves one Y whatever happens: X never takes over, though
        # it outnumbers Y in the one absorbing state
        (tmp_path / "y.crn").write_text("2Y -> Z @ 1\n")
        (tmp_path / "x.crn").write_text("X + Z -> X + W @ 1\n")
        code, out, _ = run_cli(capsys, "oracle", str(tmp_path / "y.crn"),
                               str(tmp_path / "x.crn"), "--init", "X=2", "--init", "Y=3",
                               "--winner", "X", "--loser", "Y", "--all")
        assert code == 0
        assert out.splitlines() == ["p = 0.00000000000",
                                    "Y=3 Z=0 X=2 W=0 p=0.00000000000",
                                    "Y=1 Z=1 X=2 W=0 p=0.00000000000",
                                    "Y=1 Z=0 X=2 W=1 p=0.00000000000"]

    def test_union_with_nature_never_absorbs(self, crn_dir, capsys):
        code, _, err = run_cli(
            capsys, "oracle", str(crn_dir / "main.crn"), str(crn_dir / "nature.crn"),
            "--init", "X=2", "--init", "Y=1", "--winner", "X", "--loser", "Y")
        assert code == 2
        assert "absorbing" in err


# the W -> X, X <-> Y trap: state 2 (W = 1, X = 1) is the first that cannot
# reach the absorbing state W = X = Y = 0
STRANDED_CRN = "W -> 0 @ 1\nW -> X @ 1\nX -> Y @ 1\nY -> X @ 1\ninit W = 2\n"


class TestOracleImportThread:
    """``crngame oracle`` imports scipy on a helper thread while the state
    search runs, and joins it before it returns."""

    ORACLE = ("oracle", "pkg:r.crn", "--init", "X=3", "--init", "Y=2",
              "--winner", "X", "--loser", "Y")

    @pytest.mark.parametrize("extra, code, message", [
        ((), 0, ""),
        (("--cap", "1"), 2, "error: reachable state space exceeds cap of 1 states"),
    ])
    def test_no_thread_is_left_after_a_solve_or_a_cap(self, capsys, extra, code, message):
        before = threading.active_count()
        got, _, err = run_cli(capsys, *self.ORACLE, *extra)
        assert threading.active_count() == before
        assert got == code and err.startswith(message)

    def test_no_thread_is_left_after_a_space_without_absorption(self, capsys):
        before = threading.active_count()
        code, _, err = run_cli(capsys, "oracle", "pkg:nature.crn", "--init", "A=2",
                               "--winner", "A", "--loser", "B")
        assert threading.active_count() == before
        assert (code, err) == (2, "error: no absorbing state is reachable\n")

    def test_no_thread_is_left_after_a_stranded_state(self, tmp_path, capsys):
        (tmp_path / "w.crn").write_text(STRANDED_CRN)
        before = threading.active_count()
        code, _, err = run_cli(capsys, "oracle", str(tmp_path / "w.crn"),
                               "--winner", "X", "--loser", "Y")
        assert threading.active_count() == before
        assert (code, err) == (2, "error: state 2 cannot reach any absorbing state\n")

    def test_search_that_fails_while_scipy_loads(self, fresh_python):
        # in a fresh interpreter the helper is still importing when --cap 1
        # stops the search; the command waits for it, and then scipy is loaded
        proc = fresh_python("""
            import sys, threading
            from crngame.cli import main
            before = threading.active_count()
            code = main(sys.argv[1:])
            assert threading.active_count() == before
            assert "scipy.sparse.linalg" in sys.modules
            sys.exit(code)
        """, *self.ORACLE, "--cap", "1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: reachable state space exceeds cap")

    def test_missing_scipy_fails_as_without_the_thread(self, fresh_python):
        # the helper's failed import is silent; the solve's own import fails
        # and its traceback, the only one, ends as a plain import does
        blocked = "import sys\nsys.modules['scipy'] = None\n"
        proc = fresh_python(blocked + textwrap.dedent("""
            from crngame.cli import main
            sys.exit(main(sys.argv[1:]))
        """), *self.ORACLE)
        plain = fresh_python(blocked + "import scipy.sparse.linalg\n")
        assert proc.returncode == plain.returncode == 1
        assert "Exception in thread" not in proc.stderr
        assert proc.stderr.count("Traceback") == 1
        assert proc.stderr.splitlines()[-1] == plain.stderr.splitlines()[-1]
        assert proc.stdout == ""


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
