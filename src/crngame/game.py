"""Multi-player CRN games: composition, utilities, and robustness estimation.

Each player contributes a CRN strategy, a distribution over its own initial
counts, and a utility. Playing a profile means taking the union of the
players' CRNs (species identified by name) in one solution, so a species'
start is the sum of every player's draw for it. The composed game owns that
start (:attr:`ComposedGame.start`, one entry per player species), and
:func:`compose` rejects a species whose largest possible sum does not fit an
int64 count; utilities are evaluated on the resulting trajectories and
expected utilities are estimated by Monte Carlo. A game is catalytic when no
species is changed by reactions of two different players
(:func:`catalytic_violations`).

The robustness of player 1 against its opponents is the ratio of its
expected utility with the opponents present to its expected utility when
every opponent is replaced by the empty CRN with the empty initial
distribution. A strategy clearing ratio ``a`` on every tested condition is
evidence of ``a``-robustness against that opponent profile. Conditions take
one path: :func:`estimate_conditions` gives one :class:`ConditionResult`
per condition, which the sweep's CSV and SVG and :func:`robustness_report`
all read.

All trials of every arm of every condition run as one lane pool
(:func:`_run_pool`): each arm's trials are cut into chunks that run on
worker threads. Each arm's lanes run on that arm's own CRN, so every lane
is bit-identical to a batch of its own game alone, and a lane that
overflows stops only itself.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .core import (
    MAX_COUNT,
    ConfigError,
    CountOverflowError,
    Crn,
    CountVector,
    CrnError,
    NumericOverflowError,
    Reaction,
    SpeciesTable,
)
from .rng import Xoshiro256, XoshiroBatch, child_seed
from .ssa import SimConfig, StopReason
from .batch import simulate_batch
from .stats import ratio_bounds, wilson_interval


# ---------------------------------------------------------------------------
# Initial distributions

@dataclass(frozen=True)
class ConstantCount:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ConfigError("initial count must be nonnegative")
        if self.value > MAX_COUNT:
            raise ConfigError(f"initial count must be at most {MAX_COUNT}")


@dataclass(frozen=True)
class UniformCount:
    """Uniform over the inclusive integer range [low, high] of at most 2**53 values."""

    low: int
    high: int

    def __post_init__(self):
        if self.low < 0 or self.high < self.low:
            raise ConfigError(f"bad uniform range [{self.low}, {self.high}]")
        if self.high > MAX_COUNT:
            raise ConfigError(f"initial count must be at most {MAX_COUNT}")
        if self.high - self.low >= 2**53:  # a draw scales one 53-bit uniform
            raise ConfigError(f"a range may hold at most 2**53 = {2**53} values")


# A player's start is one of these per species of its CRN, in table order:
# independent counts, drawn per trial (a constant draws nothing). The empty
# tuple is the empty CRN's start.
CountDistribution = ConstantCount | UniformCount


# ---------------------------------------------------------------------------
# Utilities

@dataclass(frozen=True)
class Indifferent:
    """Utility 0 on every trajectory (a disinterested player)."""


def took_over(winner, loser):
    """The takeover test, on one pair of counts or elementwise over arrays: the
    loser is 0 and the winner is positive."""
    return (loser == 0) & (winner > 0)


@dataclass(frozen=True)
class TakeoverSuccess:
    """Utility 1 iff the designated pair, two different species, ends in a takeover.

    The pair is the utility's stop set (:meth:`stop_set`): a trial stops as
    soon as either count is zero, after which no consensus reaction can fire.
    A trial succeeds (:meth:`succeeded`) when it stops for a conclusive
    reason (no reaction applicable, or a count of the pair at zero) and the
    initially larger species took over (:func:`took_over`): the other one is
    0 and it is positive. On an initial tie either species may take over; a
    pair that starts at 0 and 0 never does. Truncated runs score 0.
    """

    x_species: str
    y_species: str

    def __post_init__(self):
        if self.x_species == self.y_species:
            raise ConfigError(f"a takeover pair must be two different species, "
                              f"not {self.x_species!r} twice")

    def stop_set(self, table: SpeciesTable) -> tuple[int, int]:
        """The pair's indices in ``table``; a species it lacks is a ConfigError."""
        for name in (self.x_species, self.y_species):
            if name not in table:
                raise ConfigError(f"utility species {name!r} not in the composed game")
        return table.index_of(self.x_species), table.index_of(self.y_species)

    def succeeded(self, table: SpeciesTable, start, final, conclusive=True):
        """The rule on count vectors over ``table``, elementwise over their rows.

        ``start`` and ``final`` each hold one state or one state per row (they
        broadcast), and ``conclusive`` says whether the run stopped for a
        conclusive reason.
        """
        x, y = self.stop_set(table)
        x0, y0 = start[..., x], start[..., y]
        return (((x0 >= y0) & took_over(final[..., x], final[..., y]))
                | ((y0 >= x0) & took_over(final[..., y], final[..., x]))) & conclusive


UtilitySpec = Indifferent | TakeoverSuccess

_CONCLUSIVE = (StopReason.TERMINAL, StopReason.EARLY_STOP)


# ---------------------------------------------------------------------------
# Players and composition

@dataclass(frozen=True)
class Player:
    """A strategy CRN, its start (one count distribution per species), and its utility."""

    strategy: Crn
    initial_distribution: tuple[CountDistribution, ...]
    utility: UtilitySpec = field(default_factory=Indifferent)
    name: str = ""

    def __post_init__(self):
        if len(self.initial_distribution) != len(self.strategy.species):
            raise ConfigError(
                f"player {self.name or '?'}: initial distribution covers "
                f"{len(self.initial_distribution)} species, strategy has "
                f"{len(self.strategy.species)}")

    @classmethod
    def trivial(cls, name: str = "trivial") -> "Player":
        return cls(Crn.empty(), (), Indifferent(), name)

    def with_counts(self, overrides: Mapping[str, int]) -> "Player":
        """Copy of this player with some species pinned to fixed counts."""
        entries = list(self.initial_distribution)
        for name, count in overrides.items():
            entries[self.strategy.species.index_of(name)] = ConstantCount(int(count))
        return replace(self, initial_distribution=tuple(entries))


@dataclass(frozen=True)
class ComposedGame:
    """The union CRN of a strategy profile and its start.

    ``start`` holds one ``(composed species index, distribution)`` pair per
    entry of every player's initial distribution, in player order and then
    entry order; a species' start is the sum of its pairs' draws.
    """

    players: tuple[Player, ...]
    crn: Crn
    start: tuple[tuple[int, CountDistribution], ...]
    volume: float

    def species_index(self, name: str) -> int:
        return self.crn.species.index_of(name)


def compose(players: Sequence[Player], volume: float = 1.0) -> ComposedGame:
    """Union the players' CRNs; species are identified by name.

    The composed species table lists species in first-appearance order
    across players; the composed reaction list is the de-duplicated union
    (identical triples merge), each reaction's terms renumbered through its
    player's embedding, so composing costs the reactions' terms, not the
    table's size per reaction. Every utility's species must exist in the
    composed table, and every species' largest possible start (the sum of
    its entries' constants and upper ends) must be an int64 count.
    """
    players = tuple(players)
    if not players:
        raise ConfigError("a game needs at least one player")
    names: list[str] = []
    seen: set[str] = set()
    for player in players:
        for name in player.strategy.species.names:
            if name not in seen:
                seen.add(name)
                names.append(name)
    table = SpeciesTable(names)

    start: list[tuple[int, CountDistribution]] = []
    reactions: list[Reaction] = []
    known: set[Reaction] = set()
    for player in players:
        emb = [table.index_of(n) for n in player.strategy.species.names]
        start.extend(zip(emb, player.initial_distribution))
        for rxn in player.strategy.reactions:
            lifted = Reaction({emb[i]: c for i, c in rxn.reactants},
                              {emb[i]: c for i, c in rxn.products}, rxn.rate_constant)
            if lifted not in known:
                known.add(lifted)
                reactions.append(lifted)

    largest = [0] * len(table)  # as Python ints: an int64 sum would wrap
    for i, entry in start:
        largest[i] += entry.value if isinstance(entry, ConstantCount) else entry.high
    for name, total in zip(names, largest):
        if total > MAX_COUNT:
            raise ConfigError(f"species {name!r}: the players' initial counts can "
                              f"sum to {total}, but initial counts must be at most "
                              f"{MAX_COUNT}")
    for player in players:
        if isinstance(player.utility, TakeoverSuccess):
            player.utility.stop_set(table)  # rejects a species the game lacks
    return ComposedGame(players, Crn(table, reactions), tuple(start), volume)


def _draw(entry: CountDistribution, rng: Xoshiro256 | XoshiroBatch):
    """One entry's count: a constant draws nothing, a range one u64 (per lane)."""
    if isinstance(entry, ConstantCount):
        return entry.value
    return entry.low + rng.next_below(entry.high - entry.low + 1)


def sample_initial_state(game: ComposedGame, rng: Xoshiro256) -> CountVector:
    """The game's start: each :attr:`ComposedGame.start` entry drawn in order and
    added to its species (shared species add)."""
    state = np.zeros(len(game.crn.species), dtype=np.int64)
    for i, entry in game.start:
        state[i] += _draw(entry, rng)
    return state


def sample_initial_states(game: ComposedGame, rng: XoshiroBatch) -> np.ndarray:
    """Batch twin of :func:`sample_initial_state`, one row per lane."""
    states = np.zeros((rng.size, len(game.crn.species)), dtype=np.int64)
    for i, entry in game.start:
        states[:, i] += _draw(entry, rng)
    return states


# ---------------------------------------------------------------------------
# Catalytic games

def catalytic_violations(players: Sequence[Player]) -> list[str]:
    """Each species that reactions of two different players change (empty = catalytic).

    A player owns the species its own reactions change and only reads the
    rest, so in a catalytic game players affect one another only through
    reaction rates, never through counts.
    """
    owned = [{player.strategy.species.names[i] for rxn in player.strategy.reactions
              for i, _ in rxn.delta} for player in players]
    return [f"species {name} owned by both player {players[i].name or i} "
            f"and player {players[j].name or j}"
            for i, j in combinations(range(len(players)), 2)
            for name in sorted(owned[i] & owned[j])]


# ---------------------------------------------------------------------------
# Expected-utility estimation

@dataclass(frozen=True)
class UtilityEstimate:
    """Monte Carlo estimate of an expected utility with its interval."""

    mean: float
    lower: float
    upper: float
    successes: int
    trials: int
    truncated: int
    confidence: float


# Most lanes in one batch call, a bound on memory: a thread holds one chunk
# at a time, and a chunk of the full sweep's game (4 species, 4 reactions)
# peaks at about 270 bytes a lane (4.4 MB for 16k lanes, by tracemalloc), so
# the process's memory stays flat however large the sweep.
_SLICE_LANES = 1 << 14


@dataclass(frozen=True)
class _Arm:
    """One estimated arm: a game, and the seed whose child ``j`` drives trial ``j``."""

    game: ComposedGame
    seed: int


def _cpus() -> int:
    """The CPUs this process may run on: the machine's, within its affinity mask."""
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    return cpus


def _run_chunk(arm: _Arm, spec: TakeoverSuccess, config: SimConfig, lo: int,
               hi: int) -> tuple[int, int] | CrnError:
    """Trials ``lo``..``hi`` of one arm, as one :func:`simulate_batch` call.

    Returns (successes, truncations), or the batch's overflow with its
    ``lane`` numbered by trial of the arm.
    """
    game = arm.game
    rng = XoshiroBatch(np.array([child_seed(arm.seed, j) for j in range(lo, hi)],
                                dtype=np.uint64))
    inits = sample_initial_states(game, rng)
    try:
        outcome = simulate_batch(game.crn, inits, config, rng,
                                 stop_when_zero=spec.stop_set(game.crn.species),
                                 times=False)
    except (NumericOverflowError, CountOverflowError) as exc:
        exc.lane += lo
        return exc
    conclusive = np.array([r in _CONCLUSIVE for r in outcome.stop_reasons], dtype=bool)
    won = spec.succeeded(game.crn.species, inits, outcome.final_states, conclusive)
    return int(won.sum()), int((~conclusive).sum())


def _run_pool(arms: Sequence[_Arm], spec: TakeoverSuccess, trials: int,
              config: SimConfig, workers: int
              ) -> list[tuple[int, int] | CrnError]:
    """(successes, truncations) of every arm, or its overflow, from one lane pool.

    The pool runs ``workers`` threads (0 = one per CPU), but never more than
    there are CPUs (the lane kernel releases the GIL). Each arm's trials are
    cut, in order, into chunks of at most ``_SLICE_LANES``, and at most
    ``ceil(trials / threads)``. An arm with an overflowing lane yields the
    error of the lowest trial at the earliest event index at which any of
    its trials overflows, as one batch of the whole arm would, whatever the
    chunks. A chunk that raises cancels the chunks not yet started.
    """
    cpus = _cpus()
    workers = min(workers or cpus, cpus)
    size = min(_SLICE_LANES, -(-trials // workers))
    starts = range(0, trials, size)
    chunks = [(arm, spec, config, lo, min(lo + size, trials))
              for arm in arms for lo in starts]
    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        parts = list(pool.map(lambda chunk: _run_chunk(*chunk), chunks))
    results: list[tuple[int, int] | CrnError] = []
    for a in range(len(arms)):
        arm_parts = parts[a * len(starts):(a + 1) * len(starts)]
        errors = [part for part in arm_parts if isinstance(part, CrnError)]
        if errors:
            results.append(min(errors, key=lambda error: (error.event, error.lane)))
        else:
            results.append(tuple(map(sum, zip(*arm_parts))))
    return results


def _estimate(successes: int, truncated: int, trials: int,
              confidence: float) -> UtilityEstimate:
    lo, hi = wilson_interval(successes, trials, confidence)
    return UtilityEstimate(successes / trials, lo, hi, successes, trials,
                           truncated, confidence)


def _exact_zero(trials: int, confidence: float) -> UtilityEstimate:
    """The estimate of a constant-zero utility: exact, not statistical."""
    return UtilityEstimate(0.0, 0.0, 0.0, 0, trials, 0, confidence)


# ---------------------------------------------------------------------------
# Robustness

@dataclass(frozen=True)
class Condition:
    """One tested setting: a label and player 1's initial distribution."""

    label: str
    distribution: tuple[CountDistribution, ...]


@dataclass(frozen=True)
class ConditionResult:
    """Both arms of one condition and their ratio, or the error that stopped them."""

    label: str
    with_opponents: UtilityEstimate | None = None
    baseline: UtilityEstimate | None = None
    ratio: float | None = None
    ratio_lower: float | None = None
    ratio_upper: float | None = None
    error: CrnError | None = None

    def verdict(self, alpha: float | None) -> str:
        """holds | fails | inconclusive | undefined | not-queried, against ``alpha``."""
        if self.ratio is None:
            return "undefined"
        if alpha is None:
            return "not-queried"
        if self.ratio_lower >= alpha:
            return "holds"
        if self.ratio_upper < alpha:
            return "fails"
        return "inconclusive"


@dataclass(frozen=True)
class RobustnessReport:
    """Per-condition utility ratios and the supported robustness verdict."""

    conditions: tuple[ConditionResult, ...]
    min_ratio: float | None
    min_ratio_lower: float | None
    alpha: float | None
    verdict: str  # PASS | FAIL | INCONCLUSIVE (or NOT-QUERIED)
    trials_per_arm: int


def _condition_arms(player: Player, opponents: tuple[Player, ...],
                    condition: Condition, condition_index: int,
                    config: SimConfig) -> tuple[_Arm, _Arm]:
    """The two arms of a condition: the player with the opponents, and its
    baseline, the player alone.

    Arm ``k`` (0 with the opponents, 1 the baseline) draws from
    ``child_seed(child_seed(seed, condition_index), k)``.
    """
    p1 = replace(player, initial_distribution=condition.distribution)
    cond_seed = child_seed(config.seed, condition_index)
    return (_Arm(compose((p1,) + opponents, config.volume), child_seed(cond_seed, 0)),
            _Arm(compose((p1,), config.volume), child_seed(cond_seed, 1)))


def estimate_conditions(player: Player, opponents: Sequence[Player],
                        conditions: Sequence[Condition], trials: int,
                        config: SimConfig, confidence: float,
                        workers: int) -> list[ConditionResult]:
    """Run both arms of every condition and compare them.

    For each condition, the with-opponents arm and the baseline arm (every
    opponent replaced by the empty CRN and its empty start) are
    estimated with ``trials`` trials each, all in one lane pool. Condition
    ``i`` takes its seeds from index ``i`` (see :func:`_condition_arms`). The
    pool runs ``workers`` threads, 0 for one per CPU (see :func:`_run_pool`).
    A game that cannot be composed raises before any lane runs. A lane
    overflow yields a result that carries its error, the with-opponents
    arm's first; the other conditions are unaffected.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    opponents = tuple(opponents)
    arms = [arm for i, condition in enumerate(conditions)
            for arm in _condition_arms(player, opponents, condition, i, config)]
    if isinstance(player.utility, Indifferent):
        estimates = [_exact_zero(trials, confidence)] * len(arms)
    else:
        counts = _run_pool(arms, player.utility, trials, config, workers) if arms else []
        estimates = [c if isinstance(c, CrnError) else _estimate(*c, trials, confidence)
                     for c in counts]
    results: list[ConditionResult] = []
    for condition, pair in zip(conditions, zip(estimates[::2], estimates[1::2])):
        error = next((arm for arm in pair if isinstance(arm, CrnError)), None)
        if error is not None:
            results.append(ConditionResult(condition.label, error=error))
            continue
        est_with, est_base = pair
        bounds = ratio_bounds(est_with.lower, est_with.upper,
                              est_base.lower, est_base.upper)
        ratio = est_with.mean / est_base.mean if bounds is not None else None
        results.append(ConditionResult(condition.label, est_with, est_base, ratio,
                                       *(bounds or (None, None))))
    return results


def robustness_report(results: Sequence[ConditionResult],
                      alpha: float | None) -> RobustnessReport:
    """The robustness verdict on estimated conditions, against ``alpha``.

    PASS when no condition's conservative ratio interval lies below
    ``alpha`` and every point-estimate ratio clears it; FAIL when some
    interval lies below it; INCONCLUSIVE otherwise; NOT-QUERIED without
    ``alpha``. The first condition that failed raises its error.
    """
    if not results:
        raise ConfigError("conditions must be nonempty")
    for result in results:
        if result.error is not None:
            raise result.error
    defined = [r for r in results if r.ratio is not None]
    min_ratio = min((r.ratio for r in defined), default=None)
    min_ratio_lower = min((r.ratio_lower for r in defined), default=None)
    if alpha is None:
        verdict = "NOT-QUERIED"
    elif any(r.verdict(alpha) == "fails" for r in results):
        verdict = "FAIL"
    elif (len(defined) == len(results)
          and all(r.ratio >= alpha for r in defined)):
        # No condition confidently fails and every point estimate clears the
        # threshold; conditions whose intervals still straddle alpha are
        # visible as per-condition "inconclusive" verdicts.
        verdict = "PASS"
    else:
        verdict = "INCONCLUSIVE"
    return RobustnessReport(tuple(results), min_ratio, min_ratio_lower, alpha,
                            verdict, results[0].with_opponents.trials)

