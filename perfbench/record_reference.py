"""Record the reference outputs that run.py checks every run against.

    python3 perfbench/record_reference.py

Run it once, on the commit whose outputs define "correct"; it rewrites
perfbench/reference.json with every variant of every workload.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from layers import layer_metrics, load_spans


def record(name: str) -> dict:
    workload = run.WORKLOADS[name]
    entries = {}
    for variant in workload["variants"]:
        workdir = run.OUT / f"reference-{name}-{variant}"
        args = run.cli_args(workload, variant)
        res = run.spawn([sys.executable, "-m", "crngame", *args], workdir / "cli")
        if res["exit"] != 0:
            raise SystemExit(f"{name} {variant}: exit {res['exit']}\n{res['stderr']}")
        if workload["kind"] == "oracle":
            p = next(float(line[4:]) for line in res["stdout"].splitlines()
                     if line.startswith("p = "))
            traced = run.spawn(run.child_cmd("trace", workdir / "trace", args),
                               workdir / "trace")
            summary = json.loads((workdir / "trace" / "summary.json").read_text())
            metrics = layer_metrics(load_spans(workdir / "trace"))
            if traced["exit"] != 0:
                raise SystemExit(f"{name} {variant}: traced exit {traced['exit']}")
            entry = {"p": p, "residual": summary["oracle_residual"],
                     "states": metrics["oracle.states"],
                     "transitions": metrics["oracle.transitions"]}
        else:
            out = res["dir"]
            rows = run.parse_sweep_csv((out / "out.csv").read_text(encoding="utf-8"))
            entry = {"csv_sha256": run._sha256(out / "out.csv")}
            if workload["svg"]:
                entry["svg_sha256"] = run._sha256(out / "out.svg")
            entry["conditions"] = {
                d: {"trials": int(row["trials"]), "succ_with": int(row["succ_with"]),
                    "succ_without": int(row["succ_without"])}
                for d, row in rows.items()}
        entries[str(variant)] = entry
        print(name, variant, json.dumps(entry), flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
    return entries


def main() -> int:
    data = {name: record(name) for name in sorted(run.WORKLOADS)}
    data["recorded_with"] = run.environment()
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    (run.HERE / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    sys.exit(main())
