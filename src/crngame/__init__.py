"""Stochastic chemical-reaction-network games and robustness estimation.

The package simulates CRNs under stochastic mass-action kinetics (exact
direct-method SSA), composes multi-player CRN games, validates catalytic
interaction structure, solves small systems exactly for ground truth, and
estimates how robust a strategy's expected utility is to interference from
opponent CRNs. A command-line front end (``crngame``) drives experiment
sweeps from config files and emits CSV results and SVG plots.

The public names below are loaded on first use (PEP 562), so ``import
crngame`` loads no numpy. The CLI relies on this: ``crngame.cli`` gives
OpenBLAS its thread count before its own imports load numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(
        ["ConfigError", "CountOverflowError", "Crn", "CrnError",
         "NumericOverflowError", "Reaction", "SpeciesTable", "make_crn"],
        "core"),
    **dict.fromkeys(["CrnDocument", "ParseError", "parse", "serialize"],
                    "crnfile"),
    **dict.fromkeys(
        ["ComposedGame", "Condition", "ConditionResult", "ConstantCount",
         "Indifferent", "Player", "RobustnessReport", "TakeoverSuccess",
         "UniformCount", "UtilityEstimate", "catalytic_violations", "compose",
         "sample_initial_state"],
        "game"),
    **dict.fromkeys(
        ["NoAbsorptionError", "StateSpace", "StateSpaceTooLargeError",
         "absorption_probabilities", "enumerate_states"],
        "oracle"),
    **dict.fromkeys(["Xoshiro256", "XoshiroBatch", "child_seed"], "rng"),
    **dict.fromkeys(["SimConfig", "SimResult", "StopReason", "simulate"], "ssa"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
