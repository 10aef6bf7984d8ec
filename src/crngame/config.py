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
that the baseline, with the first player alone, lacks) or, with
``catalytic`` set, one that is not catalytic.
"""

from __future__ import annotations

import configparser
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .core import MAX_COUNT, CrnError, bounded_count
from .crnfile import load as load_crn
from .data import path as data_path
from .game import (
    Condition,
    ConstantCount,
    CountDistribution,
    GameConfigError,
    Indifferent,
    InitialDistribution,
    Player,
    TakeoverSuccess,
    UniformCount,
    UtilitySpec,
    catalytic_violations,
    compose,
)
from .ssa import SimConfig


class ConfigError(CrnError):
    """Malformed or inconsistent experiment configuration."""


def resolve_input_path(spec: str, base_dir: Path | None = None) -> Path:
    """Resolve a config-referenced path; ``pkg:NAME`` names a shipped data file."""
    if spec.startswith("pkg:"):
        return Path(data_path(spec[len("pkg:"):]))
    path = Path(spec)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    return path


# The keys of each section; a player section takes ``crn``, ``utility`` and
# ``init.<species>`` keys.
_SECTION_KEYS = {
    "sweep": {"pair", "total", "diffs", "trials"},
    "simulation": {"seed", "volume", "max_time", "max_events", "confidence",
                   "catalytic", "threads", "engine"},
    "output": {"csv", "svg"},
}


def _check_keys(sections: dict[str, dict]) -> None:
    """Reject a section or key outside the schema, naming it."""
    for name, body in sections.items():
        if name.startswith("player:"):
            unknown = [k for k in body
                       if k not in ("crn", "utility") and not k.startswith("init.")]
        elif name in _SECTION_KEYS:
            unknown = [k for k in body if k not in _SECTION_KEYS[name]]
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


def _convert(kind, value, where: str):
    """``kind(value)`` for the setting ``where``; a value it rejects is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} = {value!r} is not {noun}") from None


def parse_count(text: str, where: str) -> int | None:
    """``int(text)`` for the count setting ``where``, or None if not an integer.

    ``int`` refuses more than 4,300 digits. Such a count is judged by its
    digits (:func:`~crngame.core.bounded_count`) and, if out of range,
    reported as a :class:`ConfigError` without echoing it.
    """
    try:
        return int(text)
    except ValueError:
        # int()'s own grammar: an underscore only between two digits
        match = re.fullmatch(r"\s*([+-]?)(\d+(?:_\d+)*)\s*", text)
        if match is None:
            return None
    sign, digits = match.groups()
    count = bounded_count(digits.replace("_", ""))
    if count is None:
        bound = "nonnegative" if sign == "-" else f"at most {MAX_COUNT}"
        raise ConfigError(f"{where} must be {bound}")
    return -count if sign == "-" else count


def _parse_count_distribution(text: str, where: str) -> CountDistribution:
    def count(part: str) -> int:
        value = parse_count(part, where)
        if value is None:
            raise ConfigError(f"{where} = {part!r} is not an integer")
        return value

    text = text.strip()
    try:
        if ".." in text:
            low, high = (count(part) for part in text.split("..", 1))
            return UniformCount(low, high)
        return ConstantCount(count(text))
    except GameConfigError as exc:
        raise ConfigError(f"{where} = {text!r}: {exc}") from None


def _parse_diffs(text: str) -> list[int]:
    where = "[sweep] diffs"
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad diff range {text!r}: expected start:stop:step")
        start, stop, step = (_convert(int, p, where) for p in parts)
        if step <= 0:
            raise ConfigError("diff step must be positive")
        return list(range(start, stop + 1, step))
    return [_convert(int, p, where) for p in text.replace(",", " ").split()]


def sim_config(volume: float = 1.0, max_time: float | None = None,
               max_events: int | None = None, seed: int = 0) -> SimConfig:
    """Simulation settings given by a user; a bad value is a :class:`ConfigError`."""
    try:
        return SimConfig(volume, max_time, max_events, seed)
    except CrnError as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class ExperimentConfig:
    """Everything a sweep or robustness run needs, fully resolved."""

    players: list[Player]
    pair: tuple[str, str]
    total: int
    diffs: list[int]
    trials: int
    seed: int
    volume: float = 1.0
    max_time: float | None = None
    max_events: int | None = None
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
        if self.total < 0:
            raise ConfigError("total must be nonnegative")
        for d in self.diffs:
            if abs(d) > self.total:
                raise ConfigError(f"[sweep] diffs: |d| must not exceed n, but "
                                  f"d = {d} and n = {self.total}")
        if not self.accepted_diffs():
            raise ConfigError(f"[sweep] diffs gives no condition with n + d even "
                              f"(n = {self.total}, diffs = {self.diffs})")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError("confidence must lie in (0, 1)")
        self.sim_config()  # rejects a bad volume, max_time or max_events
        first = self.players[0]
        for name in self.pair:
            if name not in first.strategy.species:
                raise ConfigError(
                    f"sweep pair species {name!r} is not in player "
                    f"{first.name!r}'s CRN")
        try:  # a utility species outside the game, or outside the baseline's
            for players in (self.players, self.players[:1]):
                compose(players, self.volume)
        except GameConfigError as exc:
            raise ConfigError(str(exc)) from None
        violations = catalytic_violations(self.players) if self.catalytic else []
        if violations:
            raise ConfigError("catalytic validation failed: " + "; ".join(violations))

    def sim_config(self, seed: int | None = None) -> SimConfig:
        return sim_config(self.volume, self.max_time, self.max_events,
                          self.seed if seed is None else seed)

    def accepted_diffs(self) -> list[int]:
        return [d for d in self.diffs if (self.total + d) % 2 == 0]

    def rejected_diffs(self) -> list[int]:
        return [d for d in self.diffs if (self.total + d) % 2 == 1]

    def conditions(self) -> list[Condition]:
        """One condition per accepted diff, pinning the pair's initial counts."""
        player = self.players[0]
        x_name, y_name = self.pair
        out = []
        for d in self.accepted_diffs():
            x0 = (self.total + d) // 2
            y0 = (self.total - d) // 2
            varied = player.with_counts({x_name: x0, y_name: y0})
            out.append(Condition(str(d), varied.initial_distribution))
        return out

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


def _sections_from_json(text: str) -> dict[str, dict[str, str]]:
    """Normalize the JSON encoding onto the INI section layout."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object")
    for key in data:
        if key != "players" and key not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{key}]")
    sections: dict[str, dict[str, str]] = {}
    players = data.get("players", [])
    if not isinstance(players, list):
        raise ConfigError("'players' must be a list")
    for i, entry in enumerate(players):
        if not isinstance(entry, dict):
            raise ConfigError("each player must be an object")
        name = str(entry.get("name", f"player{i + 1}"))
        init = entry.get("init")
        if init is not None and not isinstance(init, dict):
            raise ConfigError(f"[player:{name}] 'init' must be an object")
        body = {key: value for key, value in entry.items() if key not in ("name", "init")}
        body.update((f"init.{species}", value) for species, value in (init or {}).items())
        sections[f"player:{name}"] = {
            key: _ini_text(value, f"player:{name}", key) for key, value in body.items()}
    for key in _SECTION_KEYS:
        block = data.get(key)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"'{key}' must be an object")
        sections[key] = {k: _ini_text(v, key, k) for k, v in block.items()}
    return sections


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(value: str, key: str) -> bool:
    lowered = str(value).strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"bad boolean for {key}: {value!r}")


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
        entries = list(InitialDistribution.deterministic(document.initial_state()).entries)
        for key, value in body.items():
            if key.startswith("init."):
                count = _parse_count_distribution(value, f"[{section_name}] {key}")
                species = key[len("init."):]
                if species not in table:
                    raise ConfigError(f"[{section_name}] {key}: species {species!r} "
                                      f"is not in player {name!r}'s CRN")
                entries[table.index_of(species)] = count
        players.append(Player(document.crn, InitialDistribution(tuple(entries)),
                              utility, name))

    sweep = sections.get("sweep")
    if sweep is None:
        raise ConfigError("missing [sweep] section")
    for key in ("pair", "total", "diffs", "trials"):
        if key not in sweep:
            raise ConfigError(f"[sweep] is missing {key}")
    pair_parts = sweep["pair"].split()
    if len(pair_parts) != 2:
        raise ConfigError("sweep pair must name two species, e.g. 'X Y'")

    sim = sections.get("simulation", {})
    out = sections.get("output", {})
    engine = str(sim.get("engine", "batch"))
    if engine != "batch":
        raise ConfigError(
            f"unknown engine {engine!r}: 'batch' is the only engine (the scalar "
            f"'reference' engine was removed; it gave identical counts)")

    def number(kind, section: str, key: str, default=None):
        value = sections.get(section, {}).get(key, default)
        return None if value is None else _convert(kind, value, f"[{section}] {key}")

    return ExperimentConfig(
        players=players,
        pair=(pair_parts[0], pair_parts[1]),
        total=number(int, "sweep", "total"),
        diffs=_parse_diffs(sweep["diffs"]),
        trials=number(int, "sweep", "trials"),
        seed=number(int, "simulation", "seed", 0),
        volume=number(float, "simulation", "volume", 1.0),
        max_time=number(float, "simulation", "max_time"),
        max_events=number(int, "simulation", "max_events"),
        confidence=number(float, "simulation", "confidence", 0.99),
        catalytic=_as_bool(sim.get("catalytic", "false"), "catalytic"),
        threads=number(int, "simulation", "threads", 1),
        csv_path=out.get("csv"),
        svg_path=out.get("svg"),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json" and not text.lstrip().startswith("{"):
        raise ConfigError(f"{path}: .json config must contain a JSON object")
    return load_config_text(text, base_dir=path.parent)
