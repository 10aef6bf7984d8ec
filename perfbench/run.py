"""The crngame benchmark: three workloads run through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the CLI from ``src/`` there.
With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
measured with tracing off. With ``--trace 1`` it prints every per-layer
metric, measured by timing calls into each module from the benchmark's own
files (see spans.py). Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (closed loop: one CLI process at a time, each waits for the last):

* ``sweep_n1000``: the shipped default sweep at n = 1000, cut to d = 0 and
  d = 100, one process. Nature's 1e9-rate shuffles are most of its events,
  so it exercises the lockstep batch kernel, the RNG and per-step overhead.
* ``point_n10000_t2``: ``pkg:takeover_point.ini`` (n = 10,000, one
  condition, 1000 trials per arm) at ``--threads 2``. Consensus events
  dominate and nature is minor; the only workload that fans out to worker
  processes.
* ``oracle_am``: ``crngame oracle`` on approximate majority at n = 600
  (180,900 states). Pure oracle: no simulator code runs, so it is the
  control for every simulator change.

``--seed`` picks one of eight input variants per workload: the experiment
seed of a sweep, or the initial split of the oracle's population. The
sweeps' experiment seeds are the eight of 24 (20 for point_n10000_t2)
whose lockstep steps lie nearest the median, as choose_variants.py picks
them, so that a run's time does not depend on which variant it got. The
outputs of every variant were recorded from the seed commit in
reference.json, and every run checks its outputs against them.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# The host's speed swings by a third over minutes (the same sweep input took
# 14 s in one stretch and 21 s in the next), longer than a run lasts, and
# flickers by a quarter from one second to the next. So every end-to-end
# time is reported at a fixed host speed: the measured seconds times
# YARDSTICK_REF_S over the mean of the run's yardstick() samples, of which
# YARDSTICK_SAMPLES are taken before each process the run starts and after
# the last. The mean, not the median, because a CLI run's time also sums
# over every state the host passes through. YARDSTICK_REF_S is the median of
# 24 yardstick() samples on an idle 2-vCPU Xeon KVM guest; it scales every
# run alike and is never re-fitted.
YARDSTICK_SAMPLES = 2
YARDSTICK_REF_S = 0.2667
CLI_TIMEOUT_S = 150
# Oracle answers must match the recorded ones to this absolute tolerance,
# and their residual, recomputed by child.py after every oracle invocation,
# stay within crngame.oracle.SOLVE_RESIDUAL_BOUND as it was when the
# references were recorded.
P_TOLERANCE = 1e-9
RESIDUAL_BOUND = 1e-10
# When a sweep's CSV bytes differ from the reference (an engine that changes
# the random streams on purpose), each arm of each condition is compared with
# the reference's success count by a two-sided Fisher exact test at this
# level. The allowance for multiple comparisons is Bonferroni's: a run making
# m such tests wrongly fails a correct engine with probability at most
# m * ALPHA_PER_TEST (at most 12 tests, 1.2e-3, in the largest run). On
# sweep_n1000 nearly every trial succeeds, so the test has little power
# there: point_n10000_t2 is the gate for an engine that changes bytes.
ALPHA_PER_TEST = 1e-4

WORKLOADS = {
    "sweep_n1000": {
        "kind": "sweep", "config": HERE / "sweep_n1000.ini", "threads": 1,
        "svg": True, "variants": [20260808, 20260813, 20260821, 20260823,
                                  20260824, 20260827, 20260830, 20260831],
    },
    "point_n10000_t2": {
        "kind": "sweep", "config": "pkg:takeover_point.ini", "threads": 2,
        "svg": False, "variants": [404740, 404744, 404747, 404748,
                                   404752, 404753, 404755, 404758],
    },
    "oracle_am": {
        "kind": "oracle", "crn": HERE / "am.crn", "total": 600, "threads": 1,
        "variants": [305 + v for v in range(8)],
    },
}

# The kernel probe runs the baseline arm of sweep_n1000's d = 0 condition,
# the game behind the ROADMAP's kernel rows, on every sweep workload alike.
PROBE_CONFIG = HERE / "sweep_n1000.ini"
PROBE_SEED = 20260808


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


# ---------------------------------------------------------------------------
# Processes

def _become_subreaper() -> None:
    """Adopt orphaned descendants so that they can be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap(deadline_s: float = 10.0) -> None:
    """Wait for every remaining descendant."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def spawn(cmd: list[str], workdir: Path) -> dict:
    """Run one process tree to exit; wall time, CPU and peak RSS of the tree.

    ``os.wait4`` returns the child's resource use including every
    descendant it waited for, so worker processes are counted, and its
    ``ru_maxrss`` is the largest peak RSS of any process in the tree.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    _reap()
    return {
        "t_spawn": t_spawn,
        "wall_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "stdout": (workdir / "stdout").read_text(errors="replace"),
        "stderr": (workdir / "stderr").read_text(errors="replace"),
        "dir": workdir,
    }


# ---------------------------------------------------------------------------
# Workload inputs and correctness

def cli_args(workload: dict, variant: int) -> list[str]:
    """CLI arguments of one invocation; outputs land in its working directory."""
    if workload["kind"] == "oracle":
        x0 = variant
        return ["oracle", str(workload["crn"]), "--init", f"X={x0}",
                "--init", f"Y={workload['total'] - x0}", "--winner", "X",
                "--loser", "Y"]
    args = ["sweep", str(workload["config"]), "--threads", str(workload["threads"]),
            "--seed", str(variant), "--out", "out.csv"]
    if workload["svg"]:
        args += ["--svg", "out.svg"]
    return args


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact(a: int, n1: int, b: int, n2: int) -> float:
    """Two-sided Fisher exact p-value for a/n1 against b/n2 successes."""
    k, total = a + b, n1 + n2

    def log_p(x):
        return _log_comb(n1, x) + _log_comb(n2, k - x) - _log_comb(total, k)

    observed = log_p(a)
    tables = range(max(0, k - n2), min(k, n1) + 1)
    p = sum(math.exp(log_p(x)) for x in tables if log_p(x) <= observed + 1e-7)
    return min(1.0, p)


def parse_sweep_csv(text: str) -> dict[str, dict]:
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return {row["d"]: row for row in csv.DictReader(io.StringIO(body))}


def check_sweep(ref: dict, res: dict) -> tuple[int, int, dict]:
    """Attempted and failed conditions of one sweep invocation.

    A condition fails if the run raised, its row is missing or has an
    ``error`` cell, any trial was truncated, or (when the output bytes
    differ from the reference) an arm's success count fails the Fisher test.
    """
    conditions = ref["conditions"]
    attempted = len(conditions)
    csv_path = res["dir"] / "out.csv"
    info = {"csv_identical": _sha256(csv_path) == ref["csv_sha256"]}
    if "svg_sha256" in ref:
        info["svg_identical"] = _sha256(res["dir"] / "out.svg") == ref["svg_sha256"]
    if res["exit"] != 0 or not csv_path.is_file():
        return attempted, attempted, info
    identical = all(info.values())
    rows = parse_sweep_csv(csv_path.read_text(encoding="utf-8"))
    if set(rows) != set(conditions):
        return attempted, attempted, info
    failed = 0
    tests = []
    for d, want in conditions.items():
        row = rows[d]
        if (row["error"] or int(row["trunc_with"]) or int(row["trunc_without"])
                or int(row["trials"]) != want["trials"]):
            failed += 1
            continue
        if identical:
            continue
        trials = want["trials"]
        p_values = [fisher_exact(int(row["succ_with"]), trials, want["succ_with"], trials),
                    fisher_exact(int(row["succ_without"]), trials,
                                 want["succ_without"], trials)]
        tests.extend(p_values)
        if min(p_values) < ALPHA_PER_TEST:
            failed += 1
    if tests:
        info["fisher_min_p"] = min(tests)
    return attempted, failed, info


def check_oracle(ref: dict, res: dict) -> tuple[int, int, dict]:
    p = None
    for line in res["stdout"].splitlines():
        if line.startswith("p = "):
            p = float(line[4:])
    residual = res["summary"].get("oracle_residual")
    ok = (res["exit"] == 0 and p is not None and abs(p - ref["p"]) <= P_TOLERANCE
          and residual is not None and residual <= RESIDUAL_BOUND)
    return 1, 0 if ok else 1, {"p": p, "p_reference": ref["p"], "residual": residual}


def check(workload: dict, ref: dict, res: dict) -> tuple[int, int, dict]:
    if workload["kind"] == "oracle":
        return check_oracle(ref, res)
    return check_sweep(ref, res)


def work_items(workload: dict, ref: dict) -> int:
    """Trials over both arms and all conditions, or reachable states solved."""
    if workload["kind"] == "oracle":
        return ref["states"]
    return sum(2 * c["trials"] for c in ref["conditions"].values())


# ---------------------------------------------------------------------------
# Runs

def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    head = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        head = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": head,
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def child_cmd(mode: str, target: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, str(target), "--", *args]


def invoke(workload: dict, args: list[str], workdir: Path, trace: bool = False) -> dict:
    """One CLI invocation, with the child's post-CLI work taken off its times.

    Oracle invocations and traced ones run through ``child.py``, which
    checks each oracle solve's residual after the CLI returns; sweeps run
    ``python -m crngame`` itself.
    """
    if trace:
        cmd = child_cmd("trace", workdir, args)
    elif workload["kind"] == "oracle":
        cmd = child_cmd("check", workdir, args)
    else:
        cmd = [sys.executable, "-m", "crngame", *args]
    res = spawn(cmd, workdir)
    summary_path = workdir / "summary.json"
    res["summary"] = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
    res["wall_s"] -= res["summary"].get("post_s", 0.0)
    res["cpu_s"] -= res["summary"].get("post_cpu_s", 0.0)
    return res


def setup_probe(args: list[str], workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first batch/oracle call."""
    stamp = workdir / "stamp"
    res = spawn(child_cmd("setup", stamp, args), workdir)
    if res["exit"] != 0 or not stamp.is_file():
        raise BenchError(f"set-up probe failed (exit {res['exit']}):\n{res['stderr']}")
    return min(float(x) for x in stamp.read_text().split()) - res["t_spawn"]


def yardstick() -> float:
    """Seconds for one fixed piece of work shaped like the program's.

    A 500-lane lockstep loop of small numpy operations, the batch engine's
    shape, then a pure-Python breadth-first walk over a dict, the oracle's.
    It uses nothing of crngame, so only the host's speed moves it.
    """
    import numpy as np

    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.PCG64(12345))
    lanes = 500
    x = np.full((lanes, 3), 300, dtype=np.int64)
    delta = np.array([[-1, -1, 2], [1, 1, -2], [-1, 1, 0], [1, -1, 0]], dtype=np.int64)
    rates = np.array([1.0, 0.5, 1e3, 1e3])
    for _ in range(2000):
        xf = x.astype(np.float64)
        props = np.stack([xf[:, 0] * xf[:, 1], xf[:, 2] * (xf[:, 2] - 1),
                          xf[:, 0], xf[:, 1]], axis=1) * rates
        total = props.sum(axis=1)
        pick = (np.cumsum(props, axis=1) < (gen.random(lanes) * total)[:, None]).sum(axis=1)
        x += delta[np.minimum(pick, 3)]
        np.maximum(x, 0, out=x)
    seen = {(0, 0): 0}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for a, b in frontier:
            for state in ((a + 1, b), (a, b + 1)):
                if sum(state) <= 400 and state not in seen:
                    seen[state] = len(seen)
                    nxt.append(state)
        frontier = nxt
    return time.perf_counter() - t0


def untraced(workload, ref, args, run_dir, seconds) -> tuple[dict, dict]:
    yard = []

    def measure_host():
        yard.extend(yardstick() for _ in range(YARDSTICK_SAMPLES))

    setups = []
    for i in range(SETUP_REPEATS):
        measure_host()
        setups.append(setup_probe(args, run_dir / f"setup{i}"))
    invocations = []
    attempted = failed = 0
    count = 1
    while len(invocations) < count:
        measure_host()
        res = invoke(workload, args, run_dir / f"cli{len(invocations)}")
        a, f, info = check(workload, ref, res)
        attempted, failed = attempted + a, failed + f
        invocations.append({**_public(res), **info})
        # As many invocations as fill --seconds, judged by the first one.
        count = max(1, round(seconds / invocations[0]["wall_s"]))
    measure_host()
    items = work_items(workload, ref)
    walls = [inv["wall_s"] for inv in invocations]
    measured = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(inv["cpu_s"] for inv in invocations),
    }
    scale = YARDSTICK_REF_S / statistics.fmean(yard)
    metrics = {key: value * scale for key, value in measured.items()}
    metrics["throughput_per_s"] = items / metrics["wall_s"]
    metrics["peak_rss_mb"] = statistics.median(inv["peak_rss_mb"] for inv in invocations)
    detail = {"setups_s": setups, "invocations": invocations,
              "failed_frac": failed / attempted, "yardstick_s": yard,
              "measured": measured}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "checks_ok": True}, detail


def traced(workload, ref, args, run_dir) -> tuple[dict, dict]:
    from layers import EXACT_COUNTS, layer_metrics, load_spans, tracer_overhead

    attempted = failed = 0
    runs, walls, problems = [], [], []
    for i in range(2):
        workdir = run_dir / f"trace{i}"
        res = invoke(workload, args, workdir, trace=True)
        a, f, info = check(workload, ref, res)
        attempted, failed = attempted + a, failed + f
        summary = res["summary"]
        if res["exit"] != 0 or "wrapped" not in summary:
            raise BenchError(f"traced run failed (exit {res['exit']}):\n{res['stderr']}")
        spans = load_spans(workdir)
        m = layer_metrics(spans)
        m["oracle.residual"] = summary.get("oracle_residual", 0.0)
        m["trace.overhead_s"] = tracer_overhead(spans, summary["wrapper_cost_s"])
        runs.append({"metrics": m, "wrapped": summary["wrapped"],
                     "wrapper_cost_s": summary["wrapper_cost_s"], **info})
        walls.append(res["wall_s"])

    for key in EXACT_COUNTS:
        if runs[0]["metrics"][key] != runs[1]["metrics"][key]:
            problems.append(f"exact-count self-check: {key} read "
                            f"{runs[0]['metrics'][key]} then {runs[1]['metrics'][key]}")

    metrics = {key: statistics.median(r["metrics"][key] for r in runs)
               for key in runs[0]["metrics"]}
    for key in EXACT_COUNTS:
        metrics[key] = runs[0]["metrics"][key]

    probe = {}
    if workload["kind"] == "sweep":
        probe_out = run_dir / "probe.json"
        res = spawn([sys.executable, str(HERE / "child.py"), "probe", str(probe_out),
                     str(PROBE_CONFIG), str(PROBE_SEED)], run_dir / "probe")
        if res["exit"] != 0:
            raise BenchError(f"kernel probe failed:\n{res['stderr']}")
        probe = json.loads(probe_out.read_text())
    for key in ("batch.us_per_step.w50", "batch.us_per_step.w500",
                "batch.us_per_step.w5000", "rng.batch_draws_per_s",
                "rng.scalar_draws_per_s"):
        metrics[key] = probe.get(key, 0.0)

    detail = {"traced": runs, "probe": probe, "traced_walls_s": walls,
              "problems": problems}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "checks_ok": not problems}, detail


def _public(res: dict) -> dict:
    return {k: v for k, v in res.items()
            if k not in ("dir", "stdout", "t_spawn", "summary")}


def _declared(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crngame" / "cli.py").is_file():
        print(f"perfbench: no crngame sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    if workload["threads"] > env["nproc"]:
        print(f"perfbench: {args.workload} needs {workload['threads']} workers "
              f"but only {env['nproc']} CPUs are available", file=sys.stderr)
        return 3
    variants = workload["variants"]
    variant = variants[args.seed % len(variants)]
    references = json.loads((HERE / "reference.json").read_text())
    ref = references[args.workload][str(variant)]
    declared = _declared(args.trace)

    _become_subreaper()
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    cli = cli_args(workload, variant)
    try:
        if args.trace:
            result, detail = traced(workload, ref, cli, run_dir)
        else:
            result, detail = untraced(workload, ref, cli, run_dir, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    correct = result["failed"] == 0 and result["checks_ok"]
    record = {"workload": args.workload, "seed": args.seed, "variant": variant,
              "trace": args.trace, "env": env, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": metrics, "detail": detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} variant={variant} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    for problem in detail.get("problems", []):
        print(f"problem: {problem}")
    if not args.trace:
        items = "states_per_s" if workload["kind"] == "oracle" else "trials_per_s"
        print(f"  {items:<28} {metrics['throughput_per_s']:.6g} 1/s")
        print(f"  {'failed_frac':<28} {detail['failed_frac']:.6g} 1")
        for key in ("csv_identical", "svg_identical"):
            values = [inv[key] for inv in detail["invocations"] if key in inv]
            if values:
                print(f"  {key:<28} {str(all(values)).lower()}")
        print(f"  {'yardstick_s':<28} {statistics.fmean(detail['yardstick_s']):.6g} s"
              f" (reference {YARDSTICK_REF_S:.6g} s)")
        for key, value in detail["measured"].items():
            print(f"  {key + ' as measured':<28} {value:.6g} s")
    for m in declared:
        print(f"  {m['name']:<28} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
