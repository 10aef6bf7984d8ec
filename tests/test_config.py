import json

import pytest

from crngame.config import ConfigError, load_config
from crngame.experiment import run_sweep
from crngame.game import ConstantCount, Indifferent, TakeoverSuccess, UniformCount

INI_TEXT = """
[player:main]
crn = main.crn
utility = takeover X Y
init.A = 100
init.B = 90..110

[player:nature]
crn = nature.crn

[sweep]
pair = X Y
total = 1000
diffs = 0:40:20
trials = 50

[simulation]
seed = 7
volume = 2.0
confidence = 0.95
catalytic = true
engine = batch
threads = 2

[output]
csv = out.csv
svg = out.svg
"""


@pytest.fixture
def config_dir(tmp_path):
    (tmp_path / "main.crn").write_text(
        "2X + Y + A -> 3X + A @ 1\nX + 2Y + B -> 3Y + B @ 1\n"
        "init A = 1\ninit B = 1\n")
    (tmp_path / "nature.crn").write_text("A -> B @ 1e9\nB -> A @ 1e9\n")
    return tmp_path


class TestIniConfig:
    def test_full_roundtrip(self, config_dir):
        path = config_dir / "exp.ini"
        path.write_text(INI_TEXT)
        cfg = load_config(path)
        assert [p.name for p in cfg.players] == ["main", "nature"]
        assert cfg.players[0].utility == TakeoverSuccess("X", "Y")
        assert cfg.players[1].utility == Indifferent()
        assert cfg.pair == ("X", "Y")
        assert cfg.total == 1000
        assert cfg.diffs == [0, 20, 40]
        assert cfg.trials == 50
        assert cfg.seed == 7
        assert cfg.volume == 2.0
        assert cfg.confidence == 0.95
        assert cfg.catalytic is True
        assert cfg.threads == 2
        assert cfg.csv_path == "out.csv" and cfg.svg_path == "out.svg"

    def test_init_overrides_beat_file_inits(self, config_dir):
        path = config_dir / "exp.ini"
        path.write_text(INI_TEXT)
        cfg = load_config(path)
        player = cfg.players[0]
        entries = dict(zip(player.strategy.species.names,
                           player.initial_distribution.entries))
        assert entries["A"] == ConstantCount(100)
        assert entries["B"] == UniformCount(90, 110)
        assert entries["X"] == ConstantCount(0)

    def test_rejected_and_accepted_diffs(self, config_dir):
        text = INI_TEXT.replace("diffs = 0:40:20", "diffs = 0, 15, 20")
        (config_dir / "exp.ini").write_text(text)
        cfg = load_config(config_dir / "exp.ini")
        assert cfg.accepted_diffs() == [0, 20]
        assert cfg.rejected_diffs() == [15]

    def test_conditions_pin_the_pair(self, config_dir):
        (config_dir / "exp.ini").write_text(INI_TEXT)
        cfg = load_config(config_dir / "exp.ini")
        conditions = cfg.conditions()
        assert [c.label for c in conditions] == ["0", "20", "40"]
        player = cfg.players[0]
        x_index = player.strategy.species.index_of("X")
        y_index = player.strategy.species.index_of("Y")
        assert conditions[1].distribution.entries[x_index] == ConstantCount(510)
        assert conditions[1].distribution.entries[y_index] == ConstantCount(490)

    @pytest.mark.parametrize("mutation,fragment", [
        (("crn = main.crn", "crn = missing.crn"), "missing.crn"),
        (("pair = X Y", "pair = X"), "two species"),
        (("pair = X Y", "pair = X Q"), "not in player"),
        (("trials = 50", "trials = 0"), "trials"),
        (("utility = takeover X Y", "utility = maximize X"), "utility"),
        (("engine = batch", "engine = warp"), "engine"),
        (("catalytic = true", "catalytic = maybe"), "boolean"),
        (("diffs = 0:40:20", "diffs = 0:40:0"), "step"),
        (("engine = batch", "engine = reference"), "removed"),
        (("volume = 2.0", "volume = -1"), "volume"),
        (("seed = 7", "seed = 7\nmax_events = 0"), "max_events"),
        (("seed = 7", "seed = 7\nmax_time = 0"), "max_time"),
        (("total = 1000", "total = lots"), "[sweep] total = 'lots' is not an integer"),
        (("trials = 50", "trials = many"), "[sweep] trials = 'many'"),
        (("seed = 7", "seed = x7"), "[simulation] seed = 'x7'"),
        (("volume = 2.0", "volume = abc"), "[simulation] volume = 'abc' is not a number"),
        (("seed = 7", "seed = 7\nmax_time = soon"), "[simulation] max_time = 'soon'"),
        (("seed = 7", "seed = 7\nmax_events = 1.5"), "[simulation] max_events = '1.5'"),
        (("confidence = 0.95", "confidence = high"), "[simulation] confidence = 'high'"),
        (("threads = 2", "threads = two"), "[simulation] threads = 'two'"),
        (("diffs = 0:40:20", "diffs = 0:x:20"), "[sweep] diffs = 'x'"),
        (("diffs = 0:40:20", "diffs = 0, ten"), "[sweep] diffs = 'ten'"),
        (("init.A = 100", "init.A = lots"), "[player:main] init.A = 'lots'"),
        (("init.B = 90..110", "init.B = 90..z"), "[player:main] init.B = 'z'"),
        (("seed = 7", "seeed = 7"), "unknown key(s) in [simulation]: seeed"),
        (("[output]", "[outptu]"), "unknown config section [outptu]"),
        (("[output]", "[DEFAULT]\nseed = 5\n[output]"), "unknown config section [DEFAULT]"),
        (("crn = nature.crn", "crn = nature.crn\ncolour = red"),
         "unknown key(s) in [player:nature]: colour"),
        (("init.A = 100", "init.a = 100"), "init.a: species 'a' is not in player"),
        (("init.A = 100", "init.Q = 100"), "init.Q: species 'Q' is not in player"),
        (("diffs = 0:40:20", "diffs = -1200, 0"), "d = -1200 and n = 1000"),
        (("total = 1000", "total = 30"), "d = 40 and n = 30"),
        (("diffs = 0:40:20", "diffs = 30:10:10"), "no condition"),
        (("diffs = 0:40:20", "diffs = 1, 3"), "no condition"),
        (("init.A = 100", "init.A = -5"),
         "[player:main] init.A = '-5': initial count must be nonnegative"),
        (("init.B = 90..110", "init.B = 5..3"),
         "[player:main] init.B = '5..3': bad uniform range [5, 3]"),
        (("init.B = 90..110", "init.B = -2..4"),
         "[player:main] init.B = '-2..4': bad uniform range [-2, 4]"),
        (("init.A = 100", "init.A = 9223372036854775808"),
         "[player:main] init.A = '9223372036854775808': initial count must be at "
         "most 9223372036854775807"),
        (("init.B = 90..110", "init.B = 90..99999999999999999999"),
         "[player:main] init.B = '90..99999999999999999999': initial count must be "
         "at most 9223372036854775807"),
        # past int()'s 4,300-digit limit: the count is not echoed
        (("init.A = 100", "init.A = " + "1" * 5000),
         "[player:main] init.A must be at most 9223372036854775807"),
        # underscores only between two digits, as int() reads them
        (("init.A = 100", "init.A = _"), "[player:main] init.A = '_' is not an integer"),
        (("init.B = 90..110", "init.B = 1__2..90"),
         "[player:main] init.B = '1__2' is not an integer"),
        (("init.A = 100", "init.A = 5_"), "[player:main] init.A = '5_' is not an integer"),
    ])
    def test_bad_configs_rejected(self, config_dir, mutation, fragment):
        old, new = mutation
        (config_dir / "exp.ini").write_text(INI_TEXT.replace(old, new))
        with pytest.raises((ConfigError, FileNotFoundError)) as err:
            load_config(config_dir / "exp.ini")
        assert fragment.lower() in str(err.value).lower()

    def test_missing_sweep_section(self, config_dir):
        (config_dir / "exp.ini").write_text(
            "[player:main]\ncrn = main.crn\n")
        with pytest.raises(ConfigError):
            load_config(config_dir / "exp.ini")


class TestJsonConfig:
    def test_equivalent_to_ini(self, config_dir):
        data = {
            "players": [
                {"name": "main", "crn": "main.crn", "utility": "takeover X Y",
                 "init": {"A": 100, "B": "90..110"}},
                {"name": "nature", "crn": "nature.crn"},
            ],
            "sweep": {"pair": ["X", "Y"], "total": 1000, "diffs": [0, 20, 40],
                      "trials": 50},
            "simulation": {"seed": 7, "volume": 2.0, "confidence": 0.95,
                           "catalytic": True, "engine": "batch", "threads": 2},
            "output": {"csv": "out.csv", "svg": "out.svg"},
        }
        (config_dir / "exp.json").write_text(json.dumps(data))
        (config_dir / "exp.ini").write_text(INI_TEXT)
        a = load_config(config_dir / "exp.json")
        b = load_config(config_dir / "exp.ini")
        assert [p.name for p in a.players] == [p.name for p in b.players]
        assert a.pair == b.pair
        assert a.diffs == b.diffs
        assert a.seed == b.seed
        assert a.players[0].initial_distribution == b.players[0].initial_distribution

    def test_diff_range_string_accepted(self, config_dir):
        data = {
            "players": [{"name": "m", "crn": "main.crn",
                         "utility": "takeover X Y"}],
            "sweep": {"pair": "X Y", "total": 100, "diffs": "0:10:5",
                      "trials": 5},
        }
        (config_dir / "exp.json").write_text(json.dumps(data))
        assert load_config(config_dir / "exp.json").diffs == [0, 5, 10]

    def test_bad_json_rejected(self, config_dir):
        main = {"name": "m", "crn": "main.crn", "utility": "takeover X Y"}
        base = {"players": [main],
                "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5}}
        for text, fragment in [
            ("{not json", "bad JSON"),
            (json.dumps({**base, "simulaton": {"seed": 5}}),
             "unknown config section [simulaton]"),
            (json.dumps({**base, "simulation": {"seeed": 5}}),
             "unknown key(s) in [simulation]: seeed"),
            (json.dumps({**base, "players": [{**main, "utilty": "indifferent"}]}),
             "unknown key(s) in [player:m]: utilty"),
            (json.dumps({**base, "players": [{**main, "init": {"Q": 5}}]}),
             "species 'Q' is not in player"),
            (json.dumps({**base, "players": [{**main, "init": [1]}]}),
             "[player:m] 'init' must be an object"),
            (json.dumps({**base, "players": [{**main, "init": "A=5"}]}),
             "[player:m] 'init' must be an object"),
            (json.dumps({**base, "output": {"csv": ["a.csv"]}}),
             '[output] csv = ["a.csv"] is not a single value'),
            (json.dumps({**base, "sweep": {**base["sweep"], "diffs": [0, 10.7]}}),
             "[sweep] diffs = '10.7' is not an integer"),
            (json.dumps({**base, "sweep": {**base["sweep"], "diffs": [0, True]}}),
             "[sweep] diffs = 'True' is not an integer"),
        ]:
            (config_dir / "exp.json").write_text(text)
            with pytest.raises(ConfigError) as err:
                load_config(config_dir / "exp.json")
            assert fragment.lower() in str(err.value).lower()

    def test_lists_run_as_the_ini_text(self, config_dir):
        # pair and diffs as JSON lists give the INI twin's CSV byte for byte
        ini = INI_TEXT.replace("total = 1000", "total = 20").replace(
            "diffs = 0:40:20", "diffs = 0, 10").replace("trials = 50", "trials = 8")
        data = {
            "players": [
                {"name": "main", "crn": "main.crn", "utility": "takeover X Y",
                 "init": {"A": 100, "B": "90..110"}},
                {"name": "nature", "crn": "nature.crn"},
            ],
            "sweep": {"pair": ["X", "Y"], "total": 20, "diffs": [0, 10], "trials": 8},
            "simulation": {"seed": 7, "volume": 2.0, "confidence": 0.95,
                           "catalytic": True, "engine": "batch", "threads": 2},
            "output": {"csv": "out.csv", "svg": "out.svg"},
        }
        (config_dir / "nature.crn").write_text("A -> B @ 20\nB -> A @ 20\n")
        (config_dir / "exp.ini").write_text(ini)
        (config_dir / "exp.json").write_text(json.dumps(data))
        csv = [run_sweep(load_config(config_dir / name)).to_csv()
               for name in ("exp.ini", "exp.json")]
        assert csv[0] == csv[1]
        assert len(csv[0].splitlines()) == 5  # two comments, the header, two rows

    def test_json_must_be_object(self, config_dir):
        (config_dir / "exp.json").write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(config_dir / "exp.json")


def test_shipped_default_config_loads():
    from crngame.config import resolve_input_path

    cfg = load_config(resolve_input_path("pkg:default_sweep.ini"))
    assert cfg.total == 1000
    assert cfg.trials == 500
    assert cfg.accepted_diffs() == list(range(0, 101, 10))
    assert cfg.catalytic is True
