import configparser
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from crngame.config import _KEYS, ConfigError, load_config
from crngame.core import MAX_COUNT
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
                           player.initial_distribution))
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
        assert conditions[1].distribution[x_index] == ConstantCount(510)
        assert conditions[1].distribution[y_index] == ConstantCount(490)

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
        # a rejected count is echoed as parsed, not as its zero-padded text
        (("init.A = 100", "init.A = -" + "0" * 5000 + "5"),
         "[player:main] init.A = '-5': initial count must be nonnegative"),
        (("init.B = 90..110", "init.B = " + "0" * 5000 + "5.." + "0" * 5000 + "3"),
         "[player:main] init.B = '5..3': bad uniform range [5, 3]"),
        # the lane kernel's event ceiling is an int64
        (("seed = 7", "seed = 7\nmax_events = 18446744073709551616"),
         "max_events must be at most 9223372036854775807"),
        # seeds are 64-bit words
        (("seed = 7", "seed = -7"), "seed must be between 0 and 18446744073709551615"),
        (("seed = 7", "seed = 18446744073709551616"),
         "seed must be between 0 and 18446744073709551615"),
        (("total = 1000", "total = 100000000000000000000"),
         "[sweep] total must be at most 9223372036854775807"),
        # every integer key past int()'s 4,300-digit limit: named, not echoed
        (("total = 1000", "total = " + "1" * 5000),
         "[sweep] total must be at most 9223372036854775807"),
        (("trials = 50", "trials = " + "1" * 5000),
         "[sweep] trials must be at most 9223372036854775807"),
        (("seed = 7", "seed = " + "1" * 5000),
         "[simulation] seed must be at most 18446744073709551615"),
        (("seed = 7", "seed = -" + "1" * 5000), "[simulation] seed must be nonnegative"),
        (("seed = 7", "seed = 7\nmax_events = " + "1" * 5000),
         "[simulation] max_events must be at most 9223372036854775807"),
        (("threads = 2", "threads = " + "1" * 5000),
         "[simulation] threads must be at most 9223372036854775807"),
        (("diffs = 0:40:20", "diffs = 0, -" + "1" * 5000),
         "[sweep] diffs must be at least -9223372036854775807"),
        (("diffs = 0:40:20", "diffs = 0:" + "1" * 5000 + ":20"),
         "[sweep] diffs must be at most 9223372036854775807"),
        # a volume that is not finite, or that takes a rate to 0
        (("volume = 2.0", "volume = inf"), "volume must be positive and finite"),
        (("volume = 2.0", "volume = 1e200"), "reaction 0: k * V**-3"),
        # integers that int() reads but that are above 2^63 - 1: not echoed
        (("trials = 50", "trials = 100000000000000000000"),
         "[sweep] trials must be at most 9223372036854775807"),
        (("threads = 2", "threads = " + "1" * 3000),
         "[simulation] threads must be at most 9223372036854775807"),
        (("diffs = 0:40:20", "diffs = 0, " + "1" * 4000),
         "[sweep] diffs must be at most 9223372036854775807"),
        (("diffs = 0:40:20", "diffs = 0, -" + "1" * 4000),
         "[sweep] diffs must be at least -9223372036854775807"),
        # a takeover pair of one species
        (("pair = X Y", "pair = X X"),
         "sweep pair must be two different species, not 'X' twice"),
        (("utility = takeover X Y", "utility = takeover X X"),
         "a takeover pair must be two different species, not 'X' twice"),
    ])
    def test_bad_configs_rejected(self, config_dir, mutation, fragment):
        old, new = mutation
        (config_dir / "exp.ini").write_text(INI_TEXT.replace(old, new))
        with pytest.raises((ConfigError, FileNotFoundError)) as err:
            load_config(config_dir / "exp.ini")
        assert fragment.lower() in str(err.value).lower()
        assert "1" * 100 not in str(err.value)  # a long value is not echoed

    def test_every_integer_key_reads_a_long_zero_padded_value(self, config_dir):
        # leading zeros past int()'s digit limit do not change a value
        pad = "0" * 5000
        text = INI_TEXT
        for old in ("total = 1000", "trials = 50", "seed = 7", "threads = 2",
                    "diffs = 0:40:20"):
            key, value = old.split(" = ")
            text = text.replace(old, f"{key} = " + ":".join(
                pad + part for part in value.split(":")))
        (config_dir / "exp.ini").write_text(text)
        config = load_config(config_dir / "exp.ini")
        assert (config.total, config.trials, config.seed, config.threads,
                config.diffs) == (1000, 50, 7, 2, [0, 20, 40])

    def test_diff_range_is_checked_before_it_is_listed(self, config_dir):
        # ten million diffs against n = 1000: the load fails at d = 1001
        # without building the list
        (config_dir / "exp.ini").write_text(
            INI_TEXT.replace("diffs = 0:40:20", "diffs = 0:10000000:1"))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                load_config(config_dir / "exp.ini")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("[sweep] diffs: |d| must not exceed n, but "
                                  "d = 1001 and n = 1000")
        assert peak < 10 * 2**20

    def test_catalytic_reads_configparser_booleans(self, config_dir):
        for word, value in configparser.ConfigParser.BOOLEAN_STATES.items():
            for spelling in (word, word.upper(), f" {word.title()} "):
                (config_dir / "exp.ini").write_text(
                    INI_TEXT.replace("catalytic = true", f"catalytic = {spelling}"))
                assert load_config(config_dir / "exp.ini").catalytic is value

    def test_missing_sweep_section(self, config_dir):
        (config_dir / "exp.ini").write_text(
            "[player:main]\ncrn = main.crn\n")
        with pytest.raises(ConfigError):
            load_config(config_dir / "exp.ini")

    @pytest.mark.parametrize("species,count", [("X", MAX_COUNT - 519),
                                               ("Y", MAX_COUNT - 499)])
    def test_a_condition_start_past_the_largest_count_fails_the_load(
            self, config_dir, species, count):
        # an opponent that reads the pair: x = 520 at d = 40 and y = 500 at
        # d = 0 each take the summed start one past 2^63 - 1; one less loads
        (config_dir / "opp.crn").write_text(f"{species} + W -> {species} + V @ 1\n")
        opponent = f"[player:opp]\ncrn = opp.crn\ninit.{species} = "
        (config_dir / "exp.ini").write_text(f"{INI_TEXT}{opponent}{count}\n")
        with pytest.raises(ConfigError, match=f"^species '{species}': the players' "
                                              f"initial counts can sum to {MAX_COUNT + 1},"):
            load_config(config_dir / "exp.ini")
        (config_dir / "exp.ini").write_text(f"{INI_TEXT}{opponent}{count - 1}\n")
        assert load_config(config_dir / "exp.ini").players[2].name == "opp"

    def test_a_range_holds_at_most_2_to_the_53_values(self, config_dir):
        # a draw scales one 53-bit uniform: a wider range would skip values
        (config_dir / "exp.ini").write_text(
            INI_TEXT.replace("init.B = 90..110", f"init.B = 5..{2**53 + 5}"))
        with pytest.raises(ConfigError) as err:
            load_config(config_dir / "exp.ini")
        assert str(err.value) == (f"[player:main] init.B = '5..{2**53 + 5}': a range "
                                  f"may hold at most 2**53 = {2**53} values")
        (config_dir / "exp.ini").write_text(
            INI_TEXT.replace("init.B = 90..110", f"init.B = 5..{2**53 + 4}"))
        main = load_config(config_dir / "exp.ini").players[0]
        b = main.strategy.species.index_of("B")
        assert main.initial_distribution[b] == UniformCount(5, 2**53 + 4)


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
            # a name or key given twice is rejected, as INI rejects it, not
            # silently kept once; an unnamed player is player<i>
            ('{"players": [{"name": "m", "crn": "main.crn", "utility": "takeover X Y"},'
             ' {"name": "nature", "crn": "main.crn"}, {"name": "nature", "crn": "main.crn"}],'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5}}',
             "two players are named 'nature'"),
            ('{"players": [{"name": "m", "crn": "main.crn", "utility": "takeover X Y"},'
             ' {"crn": "main.crn"}, {"name": "player2", "crn": "main.crn"}],'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5}}',
             "two players are named 'player2'"),
            ('{"players": [{"name": "m", "crn": "main.crn", "utility": "takeover X Y"}],'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5},'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 9}}',
             "key 'sweep' is given twice"),
            ('{"players": [{"name": "m", "crn": "main.crn", "utility": "takeover X Y"}],'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5,'
             ' "trials": 9}}',
             "key 'trials' is given twice"),
            ('{"players": [{"name": "m", "crn": "main.crn", "utility": "takeover X Y",'
             ' "init": {"A": 5, "A": 6}}],'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5}}',
             "key 'A' is given twice"),
            # the sweep's CSV writes the names in a '# players:' comment line,
            # and an INI section name cannot hold a line break either
            (json.dumps({**base, "players": [{**main, "name": "main\nX,Y,oops"}]}),
             "player name 'main\\nX,Y,oops' holds a line break"),
            (json.dumps({**base, "players": [{**main, "name": "main\r"}]}),
             "player name 'main\\r' holds a line break"),
            (json.dumps({**base, "players": [{**main, "name": "main\u2028"}]}),
             "player name 'main\\u2028' holds a line break"),
            # a name, like any key but pair and diffs, is a single value
            (json.dumps({**base, "players": [{**main, "name": ["m"]}]}),
             '[players] name = ["m"] is not a single value'),
            # nor can a key of a section, a player or an init object
            ('{"players": [{"name": "m", "crn": "main.crn", "utility": "takeover X Y"}],'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5,'
             ' "tri\\nals": 5}}',
             "JSON config: key 'tri\\nals' holds a line break"),
            ('{"players": [{"name": "m", "crn": "main.crn", "utility": "takeover X Y",'
             ' "init": {"X\\nY": 5}}],'
             ' "sweep": {"pair": "X Y", "total": 100, "diffs": [0, 10], "trials": 5}}',
             "JSON config: key 'X\\nY' holds a line break"),
        ]:
            (config_dir / "exp.json").write_text(text)
            with pytest.raises(ConfigError) as err:
                load_config(config_dir / "exp.json")
            assert fragment.lower() in str(err.value).lower()
            assert len(str(err.value).splitlines()) == 1, text

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


def test_readme_schema_names_every_key():
    # the README's config block lists each [sweep], [simulation] and [output]
    # key of the loader's table once, under its own section; a commented-out
    # key counts
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    listed, section = [], None
    for line in block.splitlines():
        header = re.match(r"\[([\w:]+)\]", line)
        key = re.match(r"(?:; )?(\w+) *=", line)
        if header:
            section = header[1]
        elif key and not section.startswith("player:"):
            listed.append((section, key[1]))
    assert sorted(listed) == sorted((section, key) for key, (section, _, _) in _KEYS.items())
