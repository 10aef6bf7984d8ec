"""Command-line front end.

Subcommands: ``simulate`` (one trajectory), ``sweep`` (CSV/SVG over the
configured conditions), ``robustness`` (per-condition ratios plus a
PASS/FAIL/INCONCLUSIVE verdict for a queried threshold), ``oracle`` (exact
absorption probabilities for small systems), and ``fmt`` (canonicalize a
``.crn`` file). Exit codes: 0 success, 1 usage or configuration error,
2 runtime error, 3 robustness verdict FAIL.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import crnfile
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_count,
    resolve_input_path,
    sim_config,
)
from .core import MAX_COUNT, Crn, CrnError, SpeciesTable
from .experiment import robustness_summary, run_sweep
from .game import (
    GameConfigError,
    Indifferent,
    InitialDistribution,
    Player,
    compose,
    robustness_report,
)
from .oracle import (
    StateSpaceTooLargeError,
    absorption_probabilities,
    enumerate_states,
)
from .ssa import simulate
from .svg import sweep_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_ROBUSTNESS_FAIL = 3


# Each flag is defined once; a subcommand accepts only the flags it reads.
_FLAGS = {
    "--seed": dict(type=int, help="master seed (overrides config)"),
    "--volume": dict(type=float,
                     help="solution volume for propensities (default 1)"),
    "--max-time": dict(type=float,
                       help="stop a trajectory after this much simulated time"),
    "--max-events": dict(type=int,
                         help="stop a trajectory after this many reaction events"),
    "--threads": dict(type=int, help="worker threads; 0 = one per CPU"),
    "--out": dict(help="output path (CSV or text)"),
    "--svg": dict(help="also write an SVG plot here"),
    "--confidence": dict(type=float,
                         help="confidence level for intervals, in (0, 1)"),
}
_RUN_FLAGS = ("--seed", "--volume", "--max-time", "--max-events")
_SWEEP_FLAGS = _RUN_FLAGS + ("--threads", "--out", "--svg", "--confidence")


def _add_flags(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for name in names:
        parser.add_argument(name, default=None, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crngame",
        description="Stochastic CRN games: simulation, sweeps, robustness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="run one trajectory of the union of CRN files")
    _add_flags(p_sim, _RUN_FLAGS)
    p_sim.add_argument("crn_files", nargs="+", metavar="FILE.crn")
    p_sim.add_argument("--init", action="append", default=[],
                       metavar="SPECIES=COUNT",
                       help="override an initial count (repeatable)")
    p_sim.add_argument("--takeover", nargs=2, metavar=("X", "Y"),
                       help="stop once either species count reaches zero")
    p_sim.add_argument("--dump", default=None,
                       help="write the trajectory dump here ('-' for stdout)")

    p_sweep = sub.add_parser("sweep",
                             help="run the configured sweep; write CSV (+SVG)")
    _add_flags(p_sweep, _SWEEP_FLAGS)
    p_sweep.add_argument("config", help="experiment config (.ini or .json)")

    p_rob = sub.add_parser("robustness",
                           help="estimate per-condition utility ratios")
    _add_flags(p_rob, _SWEEP_FLAGS)
    p_rob.add_argument("config", help="experiment config (.ini or .json)")
    p_rob.add_argument("--alpha", type=float, default=None,
                       help="robustness threshold to gate on")
    p_rob.add_argument("--paired-seeds", action="store_true",
                       help="reuse the with-opponents seeds in the baseline arm")

    p_oracle = sub.add_parser("oracle",
                              help="exact absorption probabilities (small systems)")
    _add_flags(p_oracle, ("--volume",))
    p_oracle.add_argument("crn_file", metavar="FILE.crn")
    p_oracle.add_argument("--init", action="append", default=[],
                          metavar="SPECIES=COUNT")
    p_oracle.add_argument("--winner", required=True,
                          help="success = absorbing states where this species "
                               "outnumbers --loser")
    p_oracle.add_argument("--loser", required=True)
    p_oracle.add_argument("--cap", type=int, default=10**6,
                          help="abort if more states are reachable")
    p_oracle.add_argument("--all", action="store_true",
                          help="print one line per reachable state")

    p_fmt = sub.add_parser("fmt", help="canonicalize a .crn file")
    _add_flags(p_fmt, ("--out",))
    p_fmt.add_argument("crn_file", metavar="FILE.crn")
    parser.subcommands = sub.choices
    return parser


def _parse_init_overrides(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError(f"bad --init {pair!r}: expected SPECIES=COUNT")
        count = parse_count(value, "--init counts")
        if count is None:
            raise ConfigError(f"bad --init count {value!r}")
        if count < 0:
            raise ConfigError("--init counts must be nonnegative")
        if count > MAX_COUNT:
            raise ConfigError(f"--init counts must be at most {MAX_COUNT}")
        out[name] = count
    return out


def _species(table: SpeciesTable, name: str, flag: str) -> int:
    """Index of a species named on the command line; unknown is a usage error."""
    if name not in table:
        raise ConfigError(f"{flag}: unknown species {name!r}")
    return table.index_of(name)


def _apply_init(table: SpeciesTable, state: np.ndarray, pairs: list[str]) -> None:
    """Apply ``--init SPECIES=COUNT`` overrides to ``state`` in place."""
    for name, count in _parse_init_overrides(pairs).items():
        state[_species(table, name, "--init")] = count


def _cpus() -> int:
    """The CPUs this process may run on: the machine's, within its affinity mask."""
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    return cpus


def _resolve_threads(threads: int | None, config_threads: int = 1) -> int:
    value = config_threads if threads is None else threads
    if value == 0:
        return _cpus()
    if value < 0:
        raise ConfigError("--threads must be >= 0")
    cpus = _cpus()
    if value > cpus:
        print(f"warning: --threads {value} is more than the {cpus} CPUs; the "
              f"workers will share them (results do not depend on the count)",
              file=sys.stderr)
    return value


# Each override flag's argparse dest -> the ExperimentConfig field it sets.
_OVERRIDES = {"seed": "seed", "volume": "volume", "max_time": "max_time",
              "max_events": "max_events", "confidence": "confidence",
              "threads": "threads", "out": "csv_path", "svg": "svg_path"}


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {field: getattr(args, flag) for flag, field in _OVERRIDES.items()
               if getattr(args, flag) is not None}
    return replace(config, **updates) if updates else config


def _load_merged_crn(paths: list[str]) -> tuple[Crn, np.ndarray]:
    """Union the files' CRNs and sum their declared initial counts."""
    docs = [crnfile.load(resolve_input_path(spec)) for spec in paths]
    game = compose([
        Player(doc.crn, InitialDistribution.deterministic(doc.initial_state()),
               Indifferent(), f"file{i}")
        for i, doc in enumerate(docs)])
    state = game.crn.species.zero_state()
    for doc, emb in zip(docs, game.embeddings):
        state[emb] += doc.initial_state()
    return game.crn, state


def _cmd_simulate(args) -> int:
    crn, state = _load_merged_crn(args.crn_files)
    _apply_init(crn.species, state, args.init)
    config = sim_config(
        volume=args.volume if args.volume is not None else 1.0,
        max_time=args.max_time,
        max_events=args.max_events,
        seed=args.seed if args.seed is not None else 0,
    )
    watched = tuple(_species(crn.species, name, "--takeover")
                    for name in args.takeover or ())
    names = crn.species.names
    if args.dump is None:
        result = simulate(crn, state, config, watched)
    else:
        opened = nullcontext(sys.stdout) if args.dump == "-" else open(args.dump, "w")
        with opened as dump:
            # '#' and the species names, then one line per event: cumulative
            # time, reaction index and every species count, tab-separated
            dump.write("#\t" + "\t".join(names) + "\n")
            result = simulate(crn, state, config, watched, lambda t, soj, j, counts: (
                dump.write("\t".join([repr(t), str(j), *map(str, counts)]) + "\n")))
    print("species:", " ".join(names))
    print("final-state:", " ".join(f"{n}={c}" for n, c in
                                   zip(names, result.final_state)))
    print("stop-reason:", result.stop_reason.value)
    print("events:", result.events)
    print("elapsed:", repr(result.elapsed))
    return EXIT_OK


def _check_outputs(csv_path: str | None, svg_path: str | None) -> None:
    """Reject an output path that cannot be written, before any lane runs."""
    for path in (csv_path, svg_path):
        if not path:
            continue
        target = Path(path)
        if target.is_dir():
            raise ConfigError(f"output path {path!r} is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"output path {path!r}: directory "
                              f"{str(target.parent)!r} does not exist")


def _write_outputs(output, csv_path: str | None, svg_path: str | None) -> None:
    csv_text = output.to_csv()
    if csv_path:
        Path(csv_path).write_text(csv_text, encoding="utf-8", newline="\n")
        print(f"wrote {csv_path} ({len(output.results)} rows)")
    else:
        sys.stdout.write(csv_text)
    if svg_path:
        Path(svg_path).write_text(sweep_svg(output.results), encoding="utf-8",
                                  newline="\n")
        print(f"wrote {svg_path}")


def _cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(resolve_input_path(args.config)), args)
    workers = _resolve_threads(args.threads, config.threads)
    _check_outputs(config.csv_path, config.svg_path)
    output = run_sweep(config, workers=workers)
    _write_outputs(output, config.csv_path, config.svg_path)
    return EXIT_OK


def _cmd_robustness(args) -> int:
    config = _apply_overrides(load_config(resolve_input_path(args.config)), args)
    workers = _resolve_threads(args.threads, config.threads)
    _check_outputs(config.csv_path, config.svg_path)
    output = run_sweep(config, workers=workers, paired_seeds=args.paired_seeds)
    report = robustness_report(output.results, args.alpha)
    if config.csv_path or config.svg_path:
        _write_outputs(output, config.csv_path, config.svg_path)
    for cond in report.conditions:
        ratio = "undefined" if cond.ratio is None else repr(cond.ratio)
        lo = "" if cond.ratio_lower is None else f" lo={cond.ratio_lower!r}"
        hi = "" if cond.ratio_upper is None else f" hi={cond.ratio_upper!r}"
        print(f"condition d={cond.label} ratio={ratio}{lo}{hi} "
              f"verdict={cond.verdict(report.alpha)}")
    print(robustness_summary(report))
    return EXIT_ROBUSTNESS_FAIL if report.verdict == "FAIL" else EXIT_OK


def _cmd_oracle(args) -> int:
    doc = crnfile.load(resolve_input_path(args.crn_file))
    table = doc.crn.species
    state = table.state_from(doc.initial_counts)
    _apply_init(table, state, args.init)
    volume = sim_config(args.volume if args.volume is not None else 1.0).volume
    winner = _species(table, args.winner, "--winner")
    loser = _species(table, args.loser, "--loser")
    if args.cap < 1:
        raise ConfigError("--cap must be >= 1")
    space = enumerate_states(doc.crn, state, volume, state_cap=args.cap)
    probs = absorption_probabilities(space, lambda s: s[winner] > s[loser])
    print(f"p = {probs[0]:#.12g}")
    if args.all:
        for i in range(len(space)):
            cells = " ".join(f"{n}={c}" for n, c in zip(table.names, space.states[i]))
            print(f"{cells} p={probs[i]:#.12g}")
    return EXIT_OK


def _cmd_fmt(args) -> int:
    doc = crnfile.load(resolve_input_path(args.crn_file))
    text = crnfile.serialize(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "robustness": _cmd_robustness,
    "oracle": _cmd_oracle,
    "fmt": _cmd_fmt,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # parse_args would report them with the top-level usage
            parser.subcommands[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (crnfile.ParseError, ConfigError, GameConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateSpaceTooLargeError as exc:
        print(f"error: {exc}; use the stochastic simulator "
              f"(simulate / sweep) instead", file=sys.stderr)
        return EXIT_RUNTIME
    except CrnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
