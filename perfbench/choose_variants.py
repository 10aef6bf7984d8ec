"""Choose a sweep workload's eight input variants so that they cost the same.

    python3 perfbench/choose_variants.py WORKLOAD [CANDIDATES]

A sweep's time is set by its lockstep steps: every step costs about the
same, and a batch of lanes runs until its slowest lane stops, so one call's
steps are the largest per-trial event count among its lanes. That maximum
moves a lot with the experiment seed (by up to 30% on sweep_n1000),
which would show as spread between the benchmark's seeds that has nothing
to do with the program. This script runs the workload's CLI in this
process at ``--threads 1`` for CANDIDATES (default 24) seeds from the
seed of its config file on, records every lane's event count, and models
the steps of a run at the workload's thread count: per call, the largest
count over each worker's slice of lanes (slices as ``crngame.game`` cuts
them), the largest slice counted. It prints each candidate's modelled
steps and the eight nearest their median, to be written into
``run.WORKLOADS``. Lane outcomes do not depend on the slicing, since every
lane draws from a stream of its own.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import sys

import run

sys.path.insert(0, str(run.SRC))


def modelled_steps(workload: dict, seed: int) -> int:
    import crngame.batch as batch
    import crngame.cli as cli
    from spans import patch_everywhere

    outcomes = []
    original = batch.simulate_batch

    def simulate_batch(*args, **kwargs):
        outcome = original(*args, **kwargs)
        outcomes.append(outcome.events)
        return outcome

    patch_everywhere(original, simulate_batch)
    workdir = run.OUT / f"choose-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    args = run.cli_args(workload, seed)
    args[args.index("--threads") + 1] = "1"
    args[args.index("--out") + 1] = str(workdir / "out.csv")
    if "--svg" in args:
        args[args.index("--svg") + 1] = str(workdir / "out.svg")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
    finally:
        patch_everywhere(simulate_batch, original)
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"seed {seed}: the CLI exited with {code}")
    threads = workload["threads"]
    steps = 0
    for events in outcomes:
        chunk = -(-len(events) // threads)
        steps += max(int(events[lo:lo + chunk].max())
                     for lo in range(0, len(events), chunk))
    return steps


def main(argv: list[str]) -> int:
    name = argv[0]
    workload = run.WORKLOADS[name]
    if workload["kind"] != "sweep":
        raise SystemExit(f"{name} is not a sweep workload")
    candidates = int(argv[1]) if len(argv) > 1 else 24
    from crngame.config import load_config, resolve_input_path
    first = load_config(resolve_input_path(str(workload["config"]))).seed
    steps = {}
    for seed in range(first, first + candidates):
        steps[seed] = modelled_steps(workload, seed)
        print(f"{name} seed {seed}: {steps[seed]} modelled steps", flush=True)
    median = statistics.median(steps.values())
    chosen = sorted(sorted(steps, key=lambda s: abs(steps[s] - median))[:8])
    spread = [steps[s] for s in chosen]
    print(f"median {median}; chosen {chosen}; their steps "
          f"{min(spread)}..{max(spread)} ({(max(spread) - min(spread)) / median:.2%})")
    return 0


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    sys.exit(main(sys.argv[1:]))
