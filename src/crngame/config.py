"""Experiment configuration: players, sweep definition, runtime settings.

Configs are INI files (sections of flat key = value pairs) or, equivalently,
JSON objects; ``.json`` files and texts starting with ``{`` take the JSON
path. The full schema, with every key and default, is documented in the
README. The shipped configs under ``crngame/data`` are working references;
any ``crn = `` path may use the ``pkg:`` prefix to name one of those data
files, otherwise paths resolve relative to the config file.

The sweep varies the initial difference ``d`` between a designated species
pair at fixed total ``n``: each condition starts the pair at
``(n + d) / 2`` and ``(n - d) / 2``. Conditions where ``n + d`` is odd are
rejected at load time (silent rounding would bias the tie condition) and
reported alongside the accepted ones; a ``d`` with ``|d| > n``, or a sweep
left with no condition, is a load error. So is a section or key that the
schema does not have, rather than a setting dropped without a word, and so
is a game that cannot be composed (a utility species that no player has, or
that the baseline, with the first player alone, lacks, or a condition whose
start can pass 2^63 - 1), one with a reaction whose rate the volume takes
to 0, or, with ``catalytic`` set, one that is not catalytic. So is an
``init.S = LO..HI`` range that holds more than 2^53 values.

The ``[sweep]``, ``[simulation]`` and ``[output]`` keys are one table,
``_KEYS``, read by the key check, the loader and :func:`read_setting`, with
which the CLI reads each flag: a flag takes its key's grammar and bounds,
and its errors name the flag. Every ``[sweep]`` key is required; any other
key left unset takes its :class:`ExperimentConfig` field default.
"""

from __future__ import annotations

import configparser
import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .core import MAX_COUNT, MAX_SEED, CompiledCrn, ConfigError, bounded_count
from .crnfile import load as load_crn
from .data import path as data_path
from .game import (
    Condition,
    ConstantCount,
    CountDistribution,
    Indifferent,
    Player,
    TakeoverSuccess,
    UniformCount,
    UtilitySpec,
    _condition_arms,
    catalytic_violations,
)
from .ssa import SimConfig


def resolve_input_path(spec: str, base_dir: Path | None = None) -> Path:
    """Resolve a config-referenced path; ``pkg:NAME`` names a shipped data file."""
    if spec.startswith("pkg:"):
        return Path(data_path(spec[len("pkg:"):]))
    path = Path(spec)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    return path


def _check_keys(sections: dict[str, dict]) -> None:
    """Reject a section or key outside the schema, naming it."""
    for name, body in sections.items():
        if name.startswith("player:"):
            unknown = [k for k in body
                       if k not in ("crn", "utility") and not k.startswith("init.")]
        elif name in _SECTIONS:
            unknown = [k for k in body if k not in _KEYS or _KEYS[k][0] != name]
        else:
            raise ConfigError(f"unknown config section [{name}]")
        if unknown:
            raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")


def _parse_utility(text: str) -> UtilitySpec:
    parts = text.split()
    if parts == ["indifferent"]:
        return Indifferent()
    if len(parts) == 3 and parts[0] == "takeover":
        return TakeoverSuccess(parts[1], parts[2])
    raise ConfigError(f"bad utility {text!r}: expected 'indifferent' "
                      f"or 'takeover <X> <Y>'")


def read_number(text: str, where: str) -> float:
    """``float(text)`` for the setting ``where``; text it rejects is a ConfigError."""
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where} = {text!r} is not a number") from None


def parse_count(text: str, where: str, bound: int = MAX_COUNT,
                signed: bool = False) -> int | None:
    """``int(text)`` for the integer setting ``where``, or None if not an integer.

    ``int`` refuses more than 4,300 digits. Such a value is judged by its
    digits (:func:`~crngame.core.bounded_count`) and, if its magnitude
    exceeds ``bound``, reported as a :class:`ConfigError` without echoing
    it. The setting's owner checks the range of every value returned.
    """
    try:
        return int(text)
    except ValueError:
        # int()'s own grammar: an underscore only between two digits
        match = re.fullmatch(r"\s*([+-]?)(\d+(?:_\d+)*)\s*", text)
        if match is None:
            return None
    sign, digits = match.groups()
    count = bounded_count(digits.replace("_", ""), bound)
    if count is None:
        limit = (f"at most {bound}" if sign != "-"
                 else f"at least {-bound}" if signed else "nonnegative")
        raise ConfigError(f"{where} must be {limit}")
    return -count if sign == "-" else count


def read_integer(text: str, where: str, bound: int = MAX_COUNT,
                 signed: bool = False) -> int:
    """:func:`parse_count` for the setting ``where``; no integer is an error."""
    value = parse_count(text, where, bound, signed)
    if value is None:
        raise ConfigError(f"{where} = {text!r} is not an integer")
    return value


def _parse_count_distribution(text: str, where: str) -> CountDistribution:
    """A count (``5``) or an inclusive range (``90..110``) for the setting ``where``.

    A range holds at most ``2**53`` values. A rejected value is echoed as
    parsed, so a long zero-padded count is not echoed digit by digit.
    """
    counts = [read_integer(part, where) for part in text.strip().split("..", 1)]
    parsed = "..".join(map(str, counts))
    try:
        entry = UniformCount(*counts) if len(counts) == 2 else ConstantCount(*counts)
    except ConfigError as exc:
        raise ConfigError(f"{where} = {parsed!r}: {exc}") from None
    return entry


def _parse_diffs(text: str, where: str) -> range | list[int]:
    """The diffs of ``text``; ``start:stop:step`` stays a range, unlisted until checked."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad diff range {text!r}: expected start:stop:step")
        start, stop, step = (read_integer(p, where, signed=True) for p in parts)
        if step <= 0:
            raise ConfigError("diff step must be positive")
        return range(start, stop + 1, step)
    return [read_integer(p, where, signed=True) for p in text.replace(",", " ").split()]


def _read_threads(text: str, where: str) -> int:
    """A worker count: 0 (one per CPU) to 2^63 - 1."""
    threads = read_integer(text, where)
    if threads < 0:
        raise ConfigError(f"{where} must be >= 0")
    if threads > MAX_COUNT:
        raise ConfigError(f"{where} must be at most {MAX_COUNT}")
    return threads


def _read_pair(text: str, where: str) -> tuple[str, str]:
    """The sweep's two species, ``X Y``."""
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError("sweep pair must name two species, e.g. 'X Y'")
    return parts[0], parts[1]


def _read_bool(text: str, where: str) -> bool:
    """A word that ``configparser`` reads as a boolean (``yes``, ``off``, ...)."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
    if value is None:
        raise ConfigError(f"bad boolean for {where}: {text!r}")
    return value


def _read_engine(text: str, where: str) -> str:
    """``batch``, the only engine, which older configs still name."""
    if text != "batch":
        raise ConfigError(
            f"unknown engine {text!r}: 'batch' is the only engine (the scalar "
            f"'reference' engine was removed; it gave identical counts)")
    return text


# Every [sweep], [simulation] and [output] key: its section, the
# ExperimentConfig field it sets (None: read, then dropped) and the reader of
# its text, which names the setting in its errors; ranges that need no name
# are checked where the value is used (SimConfig, ExperimentConfig).
_KEYS = {
    "pair": ("sweep", "pair", _read_pair),
    "total": ("sweep", "total", read_integer),
    "diffs": ("sweep", "diffs", _parse_diffs),
    "trials": ("sweep", "trials", read_integer),
    "seed": ("simulation", "seed", partial(read_integer, bound=MAX_SEED)),
    "volume": ("simulation", "volume", read_number),
    "max_time": ("simulation", "max_time", read_number),
    "max_events": ("simulation", "max_events", read_integer),
    "confidence": ("simulation", "confidence", read_number),
    "catalytic": ("simulation", "catalytic", _read_bool),
    "threads": ("simulation", "threads", _read_threads),
    "engine": ("simulation", None, _read_engine),
    "csv": ("output", "csv_path", lambda text, where: text),
    "svg": ("output", "svg_path", lambda text, where: text),
}
_SECTIONS = {section for section, _, _ in _KEYS.values()}


def read_setting(key: str, text: str, where: str) -> tuple[str | None, object]:
    """The ExperimentConfig field that the setting ``key`` sets, and its value.

    ``text`` is read as the key's config value is; errors name ``where``,
    the config key or the flag that gave it.
    """
    _, field, read = _KEYS[key]
    return field, read(text, where)


@dataclass
class ExperimentConfig:
    """Everything a sweep or robustness run needs, fully resolved."""

    players: list[Player]
    pair: tuple[str, str]
    total: int
    diffs: list[int]
    trials: int
    seed: int = SimConfig.seed
    volume: float = SimConfig.volume
    max_time: float | None = SimConfig.max_time
    max_events: int | None = SimConfig.max_events
    confidence: float = 0.99
    catalytic: bool = False
    threads: int = 1
    csv_path: str | None = None
    svg_path: str | None = None

    def __post_init__(self):
        if not self.players:
            raise ConfigError("at least one [player:*] section is required")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.trials > MAX_COUNT:
            raise ConfigError(f"[sweep] trials must be at most {MAX_COUNT}")
        if self.total < 0:
            raise ConfigError("total must be nonnegative")
        if self.total > MAX_COUNT:
            raise ConfigError(f"[sweep] total must be at most {MAX_COUNT}")
        for d in self.diffs:  # a range stops at its first bad d, before it is listed
            if abs(d) > MAX_COUNT:  # so |d| > n, but too long to echo
                limit = f"at most {MAX_COUNT}" if d > 0 else f"at least {-MAX_COUNT}"
                raise ConfigError(f"[sweep] diffs must be {limit}")
            if abs(d) > self.total:
                raise ConfigError(f"[sweep] diffs: |d| must not exceed n, but "
                                  f"d = {d} and n = {self.total}")
        self.diffs = list(self.diffs)
        if not self.accepted_diffs():
            raise ConfigError(f"[sweep] diffs gives no condition with n + d even "
                              f"(n = {self.total}, diffs = {self.diffs})")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError("confidence must lie in (0, 1)")
        sim = self.sim_config()  # rejects a bad volume, max_time, max_events or seed
        first = self.players[0]
        if self.pair[0] == self.pair[1]:
            raise ConfigError(f"sweep pair must be two different species, "
                              f"not {self.pair[0]!r} twice")
        for name in self.pair:
            if name not in first.strategy.species:
                raise ConfigError(
                    f"sweep pair species {name!r} is not in player "
                    f"{first.name!r}'s CRN")
        # each arm of the conditions whose pair counts are largest, x at the
        # largest d and y at the smallest: this rejects a start that can pass
        # 2^63 - 1, a utility species outside the game or outside the
        # baseline's, and a rate that the volume takes to 0 (no lane runs, so
        # the arms' seeds, here those of condition 0, go unused)
        accepted = self.accepted_diffs()
        for d in sorted({min(accepted), max(accepted)}):
            for arm in _condition_arms(first, tuple(self.players[1:]),
                                       self.condition(d), 0, sim):
                CompiledCrn(arm.game.crn.reactions, self.volume)
        violations = catalytic_violations(self.players) if self.catalytic else []
        if violations:
            raise ConfigError("catalytic validation failed: " + "; ".join(violations))

    def sim_config(self, seed: int | None = None) -> SimConfig:
        return SimConfig(self.volume, self.max_time, self.max_events,
                         self.seed if seed is None else seed)

    def accepted_diffs(self) -> list[int]:
        return [d for d in self.diffs if (self.total + d) % 2 == 0]

    def rejected_diffs(self) -> list[int]:
        return [d for d in self.diffs if (self.total + d) % 2 == 1]

    def condition(self, d: int) -> Condition:
        """The condition of diff ``d``: the pair pinned to (n + d) / 2 and (n - d) / 2."""
        x_name, y_name = self.pair
        varied = self.players[0].with_counts({x_name: (self.total + d) // 2,
                                              y_name: (self.total - d) // 2})
        return Condition(str(d), varied.initial_distribution)

    def conditions(self) -> list[Condition]:
        """One condition per accepted diff, pinning the pair's initial counts."""
        return [self.condition(d) for d in self.accepted_diffs()]

    def main_player(self) -> Player:
        return self.players[0]

    def opponent_players(self) -> list[Player]:
        return self.players[1:]


def _sections_from_ini(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # species names in init.* keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from exc
    if parser.defaults():  # they would be read as keys of every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    return {name: dict(parser.items(name)) for name in parser.sections()}


# The settings that a JSON list may give, as its items joined with spaces.
_JSON_LISTS = {("sweep", "pair"), ("sweep", "diffs")}


def _ini_text(value, section: str, key: str) -> str:
    """The INI text of a JSON value: a scalar as ``str`` writes it."""
    items = value if isinstance(value, list) and (section, key) in _JSON_LISTS else [value]
    if any(isinstance(item, (list, dict)) for item in items):
        raise ConfigError(f"[{section}] {key} = {json.dumps(value)} is not a single value")
    return " ".join(map(str, items))


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is an error, as in INI, and
    so is a key that holds a line break, which no INI key can."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"JSON config: key {key!r} is given twice in one object")
        if "".join(key.splitlines()) != key:
            raise ConfigError(f"JSON config: key {key!r} holds a line break")
        data[key] = value
    return data


def _sections_from_json(text: str) -> dict[str, dict[str, str]]:
    """Normalize the JSON encoding onto the INI section layout, where no two
    players share a name and no name or key holds a line break."""
    try:
        data = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object")
    for key in data:
        if key != "players" and key not in _SECTIONS:
            raise ConfigError(f"unknown config section [{key}]")
    sections: dict[str, dict[str, str]] = {}
    players = data.get("players", [])
    if not isinstance(players, list):
        raise ConfigError("'players' must be a list")
    for i, entry in enumerate(players):
        if not isinstance(entry, dict):
            raise ConfigError("each player must be an object")
        name = _ini_text(entry.get("name", f"player{i + 1}"), "players", "name")
        if "".join(name.splitlines()) != name:
            raise ConfigError(f"player name {name!r} holds a line break")
        if f"player:{name}" in sections:
            raise ConfigError(f"two players are named {name!r}")
        init = entry.get("init")
        if init is not None and not isinstance(init, dict):
            raise ConfigError(f"[player:{name}] 'init' must be an object")
        body = {key: value for key, value in entry.items() if key not in ("name", "init")}
        body.update((f"init.{species}", value) for species, value in (init or {}).items())
        sections[f"player:{name}"] = {
            key: _ini_text(value, f"player:{name}", key) for key, value in body.items()}
    for key, block in data.items():
        if key == "players" or block is None:
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"'{key}' must be an object")
        sections[key] = {k: _ini_text(v, key, k) for k, v in block.items()}
    return sections


def load_config_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        sections = _sections_from_json(text)
    else:
        sections = _sections_from_ini(text)
    _check_keys(sections)

    players: list[Player] = []
    for section_name, body in sections.items():
        if not section_name.startswith("player:"):
            continue
        name = section_name[len("player:"):]
        if "crn" not in body:
            raise ConfigError(f"[{section_name}] is missing crn = <path>")
        document = load_crn(resolve_input_path(body["crn"], base_dir))
        utility = _parse_utility(body.get("utility", "indifferent"))
        # the .crn file's init lines, then the init.<S> overrides
        table = document.crn.species
        entries = [ConstantCount(int(c)) for c in document.initial_state()]
        for key, value in body.items():
            if key.startswith("init."):
                count = _parse_count_distribution(value, f"[{section_name}] {key}")
                species = key[len("init."):]
                if species not in table:
                    raise ConfigError(f"[{section_name}] {key}: species {species!r} "
                                      f"is not in player {name!r}'s CRN")
                entries[table.index_of(species)] = count
        players.append(Player(document.crn, tuple(entries), utility, name))

    sweep = sections.get("sweep")
    if sweep is None:
        raise ConfigError("missing [sweep] section")
    for key, (section, _, _) in _KEYS.items():
        if section == "sweep" and key not in sweep:
            raise ConfigError(f"[sweep] is missing {key}")
    settings = dict(read_setting(key, text, f"[{section}] {key}")
                    for section, body in sections.items() if section in _SECTIONS
                    for key, text in body.items())
    settings.pop(None, None)  # engine's: read, then dropped
    return ExperimentConfig(players=players, **settings)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json" and not text.lstrip().startswith("{"):
        raise ConfigError(f"{path}: .json config must contain a JSON object")
    return load_config_text(text, base_dir=path.parent)
