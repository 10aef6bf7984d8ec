"""Sweep and robustness runs over experiment configs, with CSV output.

A sweep runs, for every accepted initial-difference condition, the game with
all configured opponents and the baseline game with every opponent replaced
by the trivial CRN, and reports both arms' success estimates. Output is one
CSV row per condition with a fixed column set; given the same config and
seed the CSV bytes are identical regardless of worker count.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .config import ExperimentConfig
from .core import CrnError
from .game import (
    ConditionResult,
    GameConfigError,
    RobustnessReport,
    estimate_condition,  # noqa: F401  (perfbench/spans.py looks it up here)
    estimate_conditions,
    estimate_robustness,
    infer_catalytic_partition,
    validate_catalytic,
)

CSV_COLUMNS = (
    "d", "n", "trials",
    "succ_with", "succ_without",
    "p_with", "p_with_lo", "p_with_hi",
    "p_without", "p_without_lo", "p_without_hi",
    "ratio", "ratio_lo",
    "trunc_with", "trunc_without",
    "error",
)


@dataclass
class SweepRow:
    """One sweep condition's results; mirrors the CSV columns."""

    d: int
    n: int
    trials: int
    succ_with: int = 0
    succ_without: int = 0
    p_with: float | None = None
    p_with_lo: float | None = None
    p_with_hi: float | None = None
    p_without: float | None = None
    p_without_lo: float | None = None
    p_without_hi: float | None = None
    ratio: float | None = None
    ratio_lo: float | None = None
    trunc_with: int = 0
    trunc_without: int = 0
    error: str = ""

    @classmethod
    def from_condition(cls, d: int, n: int, result: ConditionResult) -> "SweepRow":
        w, b = result.with_opponents, result.baseline
        return cls(
            d=d, n=n, trials=w.trials,
            succ_with=w.successes, succ_without=b.successes,
            p_with=w.mean, p_with_lo=w.lower, p_with_hi=w.upper,
            p_without=b.mean, p_without_lo=b.lower, p_without_hi=b.upper,
            ratio=result.ratio, ratio_lo=result.ratio_lower,
            trunc_with=w.truncated, trunc_without=b.truncated,
        )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _quote_error(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


@dataclass
class SweepOutput:
    config: ExperimentConfig
    rows: list[SweepRow]

    def to_csv(self) -> str:
        """Render the fixed-column CSV, with a commented header block."""
        cfg = self.config
        buf = io.StringIO()
        # "engine=batch" stays in the header so that sweep CSVs keep their bytes
        buf.write(f"# sweep: n={cfg.total} trials={cfg.trials} seed={cfg.seed}"
                  f" volume={_fmt(cfg.volume)} confidence={_fmt(cfg.confidence)}"
                  f" engine=batch\n")
        buf.write(f"# players: {', '.join(p.name for p in cfg.players)}\n")
        rejected = cfg.rejected_diffs()
        if rejected:
            buf.write(f"# rejected conditions (n+d odd): "
                      f"{', '.join(str(d) for d in rejected)}\n")
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            cells = [
                _fmt(row.d), _fmt(row.n), _fmt(row.trials),
                _fmt(row.succ_with), _fmt(row.succ_without),
                _fmt(row.p_with), _fmt(row.p_with_lo), _fmt(row.p_with_hi),
                _fmt(row.p_without), _fmt(row.p_without_lo), _fmt(row.p_without_hi),
                _fmt(row.ratio), _fmt(row.ratio_lo),
                _fmt(row.trunc_with), _fmt(row.trunc_without),
                _quote_error(row.error),
            ]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def check_catalytic(config: ExperimentConfig) -> list[str]:
    """Validate the catalytic-game structure if the config asks for it."""
    if not config.catalytic:
        return []
    players = [config.main_player()] + config.opponent_players()
    return validate_catalytic(players, infer_catalytic_partition(players))


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepOutput:
    """Run both arms for every accepted condition, all in one lane pool.

    Per-condition failures land in that row's ``error`` column and the run
    continues; configuration-level errors (bad species names, catalytic
    violations when requested) raise instead.
    """
    violations = check_catalytic(config)
    if violations:
        raise GameConfigError(
            "catalytic validation failed: " + "; ".join(violations))
    results = estimate_conditions(
        config.main_player(), config.opponent_players(), config.conditions(),
        config.trials, config.sim_config(), confidence=config.confidence,
        workers=workers)
    rows: list[SweepRow] = []
    for d, result in zip(config.accepted_diffs(), results):
        if isinstance(result, CrnError):
            rows.append(SweepRow(d=d, n=config.total, trials=config.trials,
                                 error=str(result)))
        else:
            rows.append(SweepRow.from_condition(d, config.total, result))
    return SweepOutput(config, rows)


def run_robustness(config: ExperimentConfig, alpha: float | None,
                   paired_seeds: bool = False,
                   workers: int = 1) -> tuple[RobustnessReport, SweepOutput]:
    """Robustness report over the config's conditions, plus its CSV rows."""
    violations = check_catalytic(config)
    if violations:
        raise GameConfigError(
            "catalytic validation failed: " + "; ".join(violations))
    report = estimate_robustness(
        config.main_player(), config.opponent_players(), config.conditions(),
        config.trials, config.sim_config(), alpha=alpha,
        confidence=config.confidence, paired_seeds=paired_seeds,
        workers=workers)
    rows = [
        SweepRow.from_condition(d, config.total, result)
        for d, result in zip(config.accepted_diffs(), report.conditions)
    ]
    return report, SweepOutput(config, rows)


def robustness_summary(report: RobustnessReport) -> str:
    """One-line verdict suitable for logs and CI gates."""
    parts = []
    if report.alpha is not None:
        parts.append(f"alpha={_fmt(report.alpha)}")
    parts.append(f"min_ratio={_fmt(report.min_ratio)}")
    parts.append(f"min_ratio_lo={_fmt(report.min_ratio_lower)}")
    parts.append(f"conditions={len(report.conditions)}")
    parts.append(f"trials_per_arm={report.trials_per_arm}")
    parts.append(f"verdict={report.verdict}")
    return "robustness " + " ".join(parts)
