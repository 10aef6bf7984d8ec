"""Child processes of the benchmark; ``run.py`` starts each in a fresh interpreter.

    child.py setup STAMP -- CLI-ARGS...   stop at the first call into batch/oracle
    child.py check OUTDIR -- CLI-ARGS...  run the CLI, then check oracle residuals
    child.py trace OUTDIR -- CLI-ARGS...  as check, with spans around each layer
    child.py probe OUT.json CONFIG SEED   time the batch and rng kernels alone

``check`` and ``trace`` write ``OUTDIR/summary.json``. Its ``post_s`` and
``post_cpu_s`` are the wall and CPU seconds spent after the CLI returned,
on work the CLI does not do; the caller takes them off its measurements.

``PYTHONPATH`` must name the checkout's ``src`` directory.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import types
from pathlib import Path

# Set-up ends at the first call into one of these modules.
SETUP_END_MODULES = ("crngame.batch", "crngame.oracle")
SETUP_REACHED = "perfbench: set-up reached"


def _stamp(path: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{time.monotonic()!r}\n")


def setup(stamp: str, argv: list[str]) -> int:
    """Run the CLI until its first call into batch/oracle; stamp the time.

    The import is part of what is measured. In a forked worker the stop is
    an exception, which the pool sends back to the parent, so every
    process still ends and is joined as usual.
    """
    import crngame.cli as cli
    from spans import patch_everywhere

    main_pid = os.getpid()

    def stop(*args, **kwargs):
        _stamp(stamp)
        if os.getpid() == main_pid:
            os._exit(0)
        raise RuntimeError(SETUP_REACHED)

    for name in SETUP_END_MODULES:
        module = importlib.import_module(name)
        for attr, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == name):
                patch_everywhere(value, stop)
    try:
        cli.main(argv)
    except RuntimeError as exc:
        if SETUP_REACHED not in str(exc):
            raise
        return 0
    print("perfbench: the CLI ended without calling batch or oracle",
          file=sys.stderr)
    return 1


def check(out_dir: str, argv: list[str]) -> int:
    import crngame.cli as cli

    solved: list = []
    _keep_oracle_result(solved)
    code = cli.main(argv)
    _finish(out_dir, {"exit": code}, solved)
    return code


def trace(out_dir: str, argv: list[str]) -> int:
    t0 = time.monotonic()
    import crngame.cli as cli
    t1 = time.monotonic()
    from spans import Tracer, wrapper_costs

    tracer = Tracer(Path(out_dir))
    tracer.record("cli.import", t0, t1)
    found = tracer.install()
    solved: list = []
    _keep_oracle_result(solved)
    code = cli.main(argv)
    tracer.flush()
    _finish(out_dir, {"exit": code, "wrapped": found}, solved,
            lambda: wrapper_costs(Path(out_dir, "calibration")))
    return code


def _finish(out_dir: str, summary: dict, solved: list, calibrate=None) -> None:
    """Check the solved oracle results, off the CLI's clock; write the summary."""
    w0, c0 = time.monotonic(), time.process_time()
    if solved:
        summary["oracle_residual"] = max(_residual(*pair) for pair in solved)
    if calibrate is not None:
        summary["wrapper_cost_s"] = calibrate()
    summary["post_s"] = time.monotonic() - w0
    summary["post_cpu_s"] = time.process_time() - c0
    Path(out_dir, "summary.json").write_text(json.dumps(summary))


def _keep_oracle_result(solved: list) -> None:
    """Keep each solved (space, probabilities) pair for the residual check."""
    import crngame.oracle as oracle
    from spans import patch_everywhere

    wrapped = oracle.absorption_probabilities

    def absorption_probabilities(space, predicate):
        probs = wrapped(space, predicate)
        solved.append((space, probs))
        return probs

    patch_everywhere(wrapped, absorption_probabilities)


def _residual(space, probs) -> float:
    """Largest first-step-equation residual of the returned probabilities.

    For every transient state i, p_i must equal the rate-weighted mean of
    its successors' p. Absorbing states hold their target value by
    definition, so they contribute no residual.
    """
    import numpy as np

    rows = space.transitions
    lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
    total = int(lengths.sum())
    src = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
    cols = np.fromiter((ti for row in rows for ti, _ in row), dtype=np.int64, count=total)
    rates = np.fromiter((rate for row in rows for _, rate in row), dtype=np.float64,
                        count=total)
    n = len(space)
    exit_rate = np.bincount(src, weights=rates, minlength=n)
    mean_next = np.bincount(src, weights=rates * probs[cols], minlength=n)
    transient = exit_rate > 0
    diff = probs[transient] - mean_next[transient] / exit_rate[transient]
    return float(np.abs(diff).max()) if diff.size else 0.0


def probe(out: str, config_path: str, seed: int) -> int:
    """Per-step cost of ``simulate_batch`` at several widths, and RNG draw rates.

    The game is the baseline arm (opponents replaced by the empty CRN) of
    the config's first condition; lane j uses stream ``child_seed(seed, j)``.
    """
    from dataclasses import replace

    import numpy as np
    from crngame.batch import simulate_batch
    from crngame.config import load_config
    from crngame.game import Player, compose, sample_initial_states
    from crngame.rng import Xoshiro256, XoshiroBatch, child_seed

    config = load_config(config_path)
    condition = config.conditions()[0]
    player = replace(config.main_player(),
                     initial_distribution=condition.distribution)
    trivial = [Player.trivial(f"trivial-{i}")
               for i in range(len(config.opponent_players()))]
    game = compose([player] + trivial, config.volume)
    sim = config.sim_config(seed)
    watch = tuple(game.species_index(name) for name in config.pair)
    result = {"condition": condition.label}
    for width in (50, 500, 5000):
        seeds = np.array([child_seed(seed, j) for j in range(width)], dtype=np.uint64)
        rng = XoshiroBatch(seeds)
        inits = sample_initial_states(game, rng)
        t0 = time.monotonic()
        outcome = simulate_batch(game.crn, inits, sim, rng, stop_when_zero=watch)
        elapsed = time.monotonic() - t0
        steps = int(outcome.events.max())
        result[f"batch.us_per_step.w{width}"] = elapsed / steps * 1e6
        result[f"batch.steps.w{width}"] = steps

    lanes, calls = 500, 2000
    rng = XoshiroBatch(np.arange(lanes, dtype=np.uint64))
    t0 = time.monotonic()
    for _ in range(calls):
        rng.next_u01()
    result["rng.batch_draws_per_s"] = lanes * calls / (time.monotonic() - t0)

    draws = 200_000
    scalar = Xoshiro256(seed)
    t0 = time.monotonic()
    for _ in range(draws):
        scalar.next_u01()
    result["rng.scalar_draws_per_s"] = draws / (time.monotonic() - t0)
    Path(out).write_text(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    mode, target, rest = argv[0], argv[1], argv[2:]
    if mode == "probe":
        return probe(target, rest[0], int(rest[1]))
    cli_args = rest[1:] if rest[:1] == ["--"] else rest
    if mode == "setup":
        return setup(target, cli_args)
    if mode == "check":
        return check(target, cli_args)
    if mode == "trace":
        return trace(target, cli_args)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
