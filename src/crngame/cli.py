"""Command-line front end.

Subcommands: ``simulate`` (one trajectory), ``sweep`` (CSV/SVG over the
configured conditions), ``robustness`` (per-condition ratios plus a
PASS/FAIL/INCONCLUSIVE verdict for a queried threshold), ``oracle`` (exact
absorption probabilities for small systems), and ``fmt`` (canonicalize a
``.crn`` file). Exit codes: 0 success, 1 usage or configuration error,
2 runtime error, 3 robustness verdict FAIL.

argparse only collects each flag's text. A flag that sets a config key is
read by that key's reader (:func:`~crngame.config.read_setting`), with the
key's grammar and bounds and errors that name the flag; ``--cap`` and
``--alpha`` go through the same integer and number readers. An unset flag
leaves the config's value, or the :class:`~crngame.ssa.SimConfig` default.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

# The lane pool's threads are the CLI's only fan-out. numpy's and scipy's
# OpenBLAS would start a thread pool per CPU that no command uses: sweeps
# make no BLAS call, and SuperLU factors and solves the 180,900-state
# approximate majority system in the same time on one thread as on two
# (0.221 s against 0.223 s, medians of 10), to the same bytes. Starting
# those pools is paid in every process: this module imported in 0.175 s
# wall and 0.173 s CPU with them, and 0.107 s and 0.106 s on one thread
# (medians of 12 alternating runs, 2 vCPUs).
# OpenBLAS reads the variable when numpy loads it, so this line comes before
# the first import that loads numpy (``import crngame`` loads none). A value
# the user exported wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import crnfile
from .config import (
    ExperimentConfig,
    load_config,
    parse_count,
    read_integer,
    read_number,
    read_setting,
    resolve_input_path,
)
from .core import MAX_COUNT, ConfigError, Crn, CountVector, CrnError, SpeciesTable
from .experiment import robustness_summary, run_sweep
from .game import (
    ConstantCount,
    Indifferent,
    Player,
    TakeoverSuccess,
    _cpus,
    compose,
    robustness_report,
    sample_initial_state,
    took_over,
)
from .oracle import (
    STATE_CAP,
    StateSpaceTooLargeError,
    absorption_probabilities,
    enumerate_states,
)
from .rng import Xoshiro256
from .ssa import SimConfig, simulate
from .svg import sweep_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_ROBUSTNESS_FAIL = 3


# Each flag is defined once, with the config key it sets and its help; a
# subcommand accepts only the flags it reads. (``fmt --out`` is only a path.)
_FLAGS = {
    "--seed": ("seed", "master seed (overrides config)"),
    "--volume": ("volume", f"solution volume for propensities "
                           f"(default {SimConfig.volume:g})"),
    "--max-time": ("max_time", "stop a trajectory after this much simulated time"),
    "--max-events": ("max_events", "stop a trajectory after this many reaction events"),
    "--threads": ("threads", "worker threads; 0 = one per CPU"),
    "--out": ("csv", "output path (CSV or text)"),
    "--svg": ("svg", "also write an SVG plot here"),
    "--confidence": ("confidence", "confidence level for intervals, in (0, 1)"),
}
_RUN_FLAGS = ("--seed", "--volume", "--max-time", "--max-events")
_SWEEP_FLAGS = _RUN_FLAGS + ("--threads", "--out", "--svg", "--confidence")


def _add_flags(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for name in names:
        parser.add_argument(name, help=_FLAGS[name][1])


def _settings(args) -> dict:
    """The config fields that the given flags set, each read as its key is."""
    settings = {}
    for flag, (key, _) in _FLAGS.items():
        text = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
        if text is not None:
            field, value = read_setting(key, text, flag)
            settings[field] = value
    return settings


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
    p_rob.add_argument("--alpha", help="robustness threshold to gate on")

    p_oracle = sub.add_parser("oracle",
                              help="exact absorption probabilities of the union "
                                   "of CRN files (small systems)")
    _add_flags(p_oracle, ("--volume",))
    p_oracle.add_argument("crn_files", nargs="+", metavar="FILE.crn")
    p_oracle.add_argument("--init", action="append", default=[],
                          metavar="SPECIES=COUNT")
    p_oracle.add_argument("--winner", required=True,
                          help="success = absorbing states where --loser is 0 "
                               "and this species is positive")
    p_oracle.add_argument("--loser", required=True)
    p_oracle.add_argument("--cap", default=str(STATE_CAP),
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


def _apply_init(table: SpeciesTable, state: CountVector, pairs: list[str]) -> None:
    """Apply ``--init SPECIES=COUNT`` overrides to ``state`` in place."""
    for name, count in _parse_init_overrides(pairs).items():
        state[_species(table, name, "--init")] = count


def _warn_threads(threads: int, source: str) -> None:
    """Warn that a thread count above the CPU count runs as the CPU count."""
    cpus = _cpus()
    if threads > cpus:
        print(f"warning: {source} {threads} is more than the {cpus} CPUs; {cpus} "
              f"threads will run (results do not depend on the count)",
              file=sys.stderr)


def _load_merged_crn(paths: list[str]) -> tuple[Crn, CountVector]:
    """The union of the files' CRNs and its start, the sum of their declared
    initial counts (all constants, so nothing is drawn)."""
    docs = [crnfile.load(resolve_input_path(spec)) for spec in paths]
    game = compose([
        Player(doc.crn, tuple(ConstantCount(int(c)) for c in doc.initial_state()),
               Indifferent(), f"file{i}")
        for i, doc in enumerate(docs)])
    return game.crn, sample_initial_state(game, Xoshiro256(0))


def _cmd_simulate(args) -> int:
    config = SimConfig(**_settings(args))
    crn, state = _load_merged_crn(args.crn_files)
    _apply_init(crn.species, state, args.init)
    watched = (TakeoverSuccess(*args.takeover).stop_set(crn.species) if args.takeover
               else ())
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


def _load_sweep(args) -> ExperimentConfig:
    """The config with the flags applied, its output paths checked before any
    lane runs."""
    settings = _settings(args)
    config = replace(load_config(resolve_input_path(args.config)), **settings)
    _warn_threads(config.threads,
                  "--threads" if "threads" in settings else "[simulation] threads =")
    _check_outputs(config.csv_path, config.svg_path)
    return config


def _cmd_sweep(args) -> int:
    config = _load_sweep(args)
    output = run_sweep(config)
    _write_outputs(output, config.csv_path, config.svg_path)
    return EXIT_OK


def _cmd_robustness(args) -> int:
    alpha = None if args.alpha is None else read_number(args.alpha, "--alpha")
    if alpha is not None and not math.isfinite(alpha):
        raise ConfigError(f"--alpha must be a finite number, got {alpha!r}")
    config = _load_sweep(args)
    output = run_sweep(config)
    report = robustness_report(output.results, alpha)
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
    if args.winner == args.loser:
        raise ConfigError(f"--winner and --loser must be two different species, "
                          f"not {args.winner!r} twice")
    crn, state = _load_merged_crn(args.crn_files)
    table = crn.species
    _apply_init(table, state, args.init)
    volume = SimConfig(**_settings(args)).volume
    winner = _species(table, args.winner, "--winner")
    loser = _species(table, args.loser, "--loser")
    cap = read_integer(args.cap, "--cap")
    if cap < 1:
        raise ConfigError("--cap must be >= 1")
    # scipy's import runs while the state search does: the search is C code
    # that releases the GIL, and the solve imports scipy only where it first
    # needs it, so it waits for the rest of the import there
    loader = threading.Thread(target=_import_scipy, name="crngame-import-scipy")
    loader.start()
    try:
        space = enumerate_states(crn, state, volume, state_cap=cap,
                                 pair=(winner, loser))
        probs = absorption_probabilities(space, took_over(space.states[:, winner],
                                                          space.states[:, loser]))
    finally:
        loader.join()
    print(f"p = {probs[0]:#.12g}")
    if args.all:
        for i in range(len(space)):
            cells = " ".join(f"{n}={c}" for n, c in zip(table.names, space.states[i]))
            print(f"{cells} p={probs[i]:#.12g}")
    return EXIT_OK


def _import_scipy() -> None:
    """Load the modules the exact solve imports. Without scipy this does
    nothing: the solve's own import then fails as it would alone."""
    try:
        import scipy.sparse.linalg  # noqa: F401
    except ImportError:
        pass


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
    except (ConfigError, OSError) as exc:  # bad input
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
