"""Sweeps over experiment configs, with CSV output.

A sweep runs, for every accepted initial-difference condition, the game with
all configured opponents and the baseline game with every opponent replaced
by the trivial CRN, all in one lane pool, and keeps one
:class:`~crngame.game.ConditionResult` per condition. The CSV, the SVG plot
and the ``robustness`` verdict all read those results. Output is one CSV row
per condition with the columns of :data:`CSV_COLUMNS`; given the same config
and seed the CSV bytes are identical regardless of worker count.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .config import ExperimentConfig
from .game import ConditionResult, RobustnessReport, estimate_conditions


def _arm(name: str, field: str, empty=None):
    """The cell of one arm's estimate, or ``empty`` when the condition failed."""
    def cell(config: ExperimentConfig, result: ConditionResult):
        estimate = getattr(result, name)
        return empty if estimate is None else getattr(estimate, field)
    return cell


# The CSV columns, in order, each with its cell in a condition's row. A sweep
# labels each condition with its initial difference d.
CSV_COLUMNS = {
    "d": lambda config, result: result.label,
    "n": lambda config, result: config.total,
    "trials": lambda config, result: config.trials,
    "succ_with": _arm("with_opponents", "successes", 0),
    "succ_without": _arm("baseline", "successes", 0),
    "p_with": _arm("with_opponents", "mean"),
    "p_with_lo": _arm("with_opponents", "lower"),
    "p_with_hi": _arm("with_opponents", "upper"),
    "p_without": _arm("baseline", "mean"),
    "p_without_lo": _arm("baseline", "lower"),
    "p_without_hi": _arm("baseline", "upper"),
    "ratio": lambda config, result: result.ratio,
    "ratio_lo": lambda config, result: result.ratio_lower,
    "trunc_with": _arm("with_opponents", "truncated", 0),
    "trunc_without": _arm("baseline", "truncated", 0),
    "error": lambda config, result: (
        "" if result.error is None else _quote_error(str(result.error))),
}


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
    results: list[ConditionResult]

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
        for result in self.results:
            buf.write(",".join(_fmt(cell(cfg, result)) for cell in CSV_COLUMNS.values())
                      + "\n")
        return buf.getvalue()


def run_sweep(config: ExperimentConfig) -> SweepOutput:
    """Run both arms of every accepted condition, all in one lane pool.

    The config was checked when it was loaded (species names, composition,
    the catalytic check when requested). The pool runs ``config.threads``
    threads (0 = one per CPU). A lane overflow lands in its condition's
    result (the CSV's ``error`` column) and the run continues.
    """
    return SweepOutput(config, estimate_conditions(
        config.main_player(), config.opponent_players(), config.conditions(),
        config.trials, config.sim_config(), config.confidence, config.threads))


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
