"""Per-layer metrics from the spans of one traced CLI run.

Each metric is named ``<layer>.<what>``; the layers are the crngame
modules. ``batch.steps`` and ``batch.occupancy`` are computed here, not
counted by the engine: every live lane fires once per lockstep step, so a
call's step count is the largest per-trial event count it returned.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# Counts that a deterministic program repeats exactly between runs.
EXACT_COUNTS = ("batch.steps", "batch.lane_events", "rng.draws",
                "oracle.states", "oracle.transitions")


def load_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _duration(span: dict) -> float:
    return span["t1"] - span["t0"]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    ids = {span["id"]: span for span in spans}
    m: dict[str, float] = {}

    m["cli.import_s"] = sum(_duration(s) for s in by_name.get("cli.import", []))
    m["config.load_s"] = sum(
        _duration(s) for s in by_name.get("config.load", [])
        if ids.get(s["parent"], {}).get("name") != "config.load")

    conditions = [_duration(s) for s in by_name.get("experiment.condition", [])]
    m["experiment.condition_s.p50"] = statistics.median(conditions) if conditions else 0.0
    m["experiment.condition_s.max"] = max(conditions, default=0.0)
    outputs = by_name.get("experiment.output", [])
    m["experiment.output_s"] = sum(_duration(s) for s in outputs)
    m["experiment.output_bytes"] = sum(s["attrs"].get("bytes", 0) for s in outputs)

    batches = by_name.get("batch.simulate", [])
    arms = by_name.get("game.arm", [])
    under: dict[str, list[dict]] = {}
    for span in batches:
        under.setdefault(span["parent"], []).append(span)
    self_s, imbalance, workers = 0.0, 0.0, 0
    for arm in arms:
        kids = under.get(arm["id"], [])
        self_s += _duration(arm) - _covered(
            arm["t0"], arm["t1"], [(k["t0"], k["t1"]) for k in kids])
        if kids:
            times = [_duration(k) for k in kids]
            imbalance = max(imbalance, max(times) / statistics.fmean(times))
            workers = max(workers, len({k["pid"] for k in kids}))
    for which in ("with", "base"):
        m[f"game.arm_s.{which}"] = sum(
            _duration(a) for a in arms if a["attrs"].get("arm") == which)
    m["game.self_s"] = self_s
    m["game.slice_imbalance"] = imbalance
    m["game.workers"] = workers

    busy = sum(_duration(s) for s in batches)
    events = [e for s in batches for e in s["attrs"]["events"]]
    steps = sum(max(s["attrs"]["events"], default=0) for s in batches)
    lane_steps = sum(max(s["attrs"]["events"], default=0) * s["attrs"]["lanes"]
                     for s in batches)
    lane_events = sum(events)
    m["batch.busy_s"] = busy
    m["batch.steps"] = steps
    m["batch.lane_events"] = lane_events
    m["batch.occupancy"] = _ratio(lane_events, lane_steps)
    m["batch.us_per_step"] = _ratio(busy, steps) * 1e6
    m["batch.lane_events_per_s"] = _ratio(lane_events, busy)
    m["batch.events_per_trial.p50"] = statistics.median(events) if events else 0
    m["batch.events_per_trial.max"] = max(events, default=0)
    for key in ("early", "terminal", "truncated"):
        m[f"batch.stop.{key}"] = sum(s["attrs"]["stops"].get(key, 0) for s in batches)

    def counter(key):
        return sum(s["attrs"].get(key, 0) for s in spans)

    m["rng.u01_s"] = counter("rng.u01_s")
    m["rng.take_s"] = counter("rng.take_s")
    m["rng.draws"] = counter("rng.draws")

    enumerations = by_name.get("oracle.enumerate", [])
    m["oracle.states"] = sum(s["attrs"]["states"] for s in enumerations)
    m["oracle.transitions"] = sum(s["attrs"]["transitions"] for s in enumerations)
    m["oracle.enumerate_s"] = sum(_duration(s) for s in enumerations)
    m["oracle.solve_s"] = sum(_duration(s) for s in by_name.get("oracle.solve", []))
    return m


def tracer_overhead(spans: list[dict], costs: dict[str, float]) -> float:
    """Seconds the wrappers added to the run: calls times calibrated cost.

    ``costs`` are per-call costs from ``spans.wrapper_costs``. The span count
    leaves out spans the tracer did not time itself (``cli.import`` and the
    per-process counter holders). The attribute functions that describe a
    span's result are not charged; they run once per span, not per step.
    """
    timed = sum(1 for s in spans if s["name"] not in ("cli.import", "process"))
    u01 = sum(s["attrs"].get("rng.u01_calls", 0) for s in spans)
    take = sum(s["attrs"].get("rng.take_calls", 0) for s in spans)
    return timed * costs["span"] + u01 * costs["u01"] + take * costs["take"]
