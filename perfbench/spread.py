"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 0-9] [--traced-seed N] [--out FILE.json]

For every workload of BENCHMARK.json and every seed it runs ``run.py
--trace 0`` for ``run_seconds`` and reports, per end-to-end metric, the
median, the quartiles (``statistics.quantiles`` with n=4) and the spread
``(q3 - q1) / median`` next to the metric's bound. With ``--traced-seed``
it adds one traced run per workload, with its per-layer metrics. ``--out``
writes everything as JSON; perfbench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    result["detail"] = json.loads(record.read_text())["detail"]
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values), "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"env": run.environment(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in _seeds(args.seeds):
            result = bench(workload, seed, seconds, 0)
            results.append(result)
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        entry = {"all_correct": all(r["correct"] for r in results),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["end_to_end"][metric["name"]] = summarize(values, metric["bound"])
        if args.traced_seed is not None:
            traced = bench(workload, args.traced_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.traced_seed, "correct": traced["correct"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {workload} {name:<18} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']} {flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
