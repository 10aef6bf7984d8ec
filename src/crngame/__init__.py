"""Stochastic chemical-reaction-network games and robustness estimation.

The package simulates CRNs under stochastic mass-action kinetics (exact
direct-method SSA), composes multi-player CRN games, validates catalytic
interaction structure, solves small systems exactly for ground truth, and
estimates how robust a strategy's expected utility is to interference from
opponent CRNs. A command-line front end (``crngame``) drives experiment
sweeps from config files and emits CSV results and SVG plots.
"""

from .core import (
    ConfigError,
    CountOverflowError,
    Crn,
    CrnError,
    NumericOverflowError,
    Reaction,
    SpeciesTable,
    make_crn,
)
from .crnfile import CrnDocument, ParseError, parse, serialize
from .game import (
    ComposedGame,
    Condition,
    ConditionResult,
    ConstantCount,
    Indifferent,
    InitialDistribution,
    Player,
    RobustnessReport,
    TakeoverSuccess,
    UniformCount,
    UtilityEstimate,
    catalytic_violations,
    compose,
    sample_initial_state,
)
from .oracle import (
    NoAbsorptionError,
    StateSpace,
    StateSpaceTooLargeError,
    absorption_probabilities,
    enumerate_states,
)
from .rng import Xoshiro256, XoshiroBatch, child_seed
from .ssa import SimConfig, SimResult, StopReason, simulate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
