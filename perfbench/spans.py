"""In-memory spans around calls into crngame, recorded from outside.

The tracer replaces public functions of the package with timing wrappers
after import; nothing under ``src/`` knows about it. Each span records its
name, process, start, end, the span that caused it and a few attributes.
Hot calls (the per-step RNG draws) are folded into counters on the
innermost span of their process instead of getting spans of their own.

Times come from ``time.monotonic``, which on Linux is one clock for every
process, so spans recorded in forked workers line up with their parent's.
A forked worker inherits the open span stack, so its spans name the
parent's span (the arm) as their cause. Workers end with ``os._exit`` and
run no exit hooks, so each process appends its finished spans to
``spans-<pid>.jsonl`` whenever its own outermost span closes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

_STOP_KEYS = {
    "EARLY_STOP": "early",
    "TERMINAL": "terminal",
    "TIME_EXHAUSTED": "truncated",
    "EVENT_CEILING": "truncated",
}


def patch_everywhere(original, replacement) -> None:
    """Rebind every crngame module global that refers to ``original``.

    Modules import each other's functions by name, so the function has to
    be replaced in the namespace of every caller, not only where it is
    defined.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "crngame" or name.startswith("crngame.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(path: str):
    """``'crngame.game:estimate_expected_utility'`` -> object, or None."""
    module_name, _, attr = path.partition(":")
    obj = sys.modules.get(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Span recorder for one process tree; create it in the root process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.stack: list[dict] = []
        self.done: list[dict] = []
        self.local_open = 0
        self.orphan = self._new_span("process", None)
        # Attributes of the innermost span opened in this process, where
        # counters go.
        self.attrs = self.orphan["attrs"]
        self._ids = itertools.count()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Keep the inherited stack for parent ids; drop the parent's spans.
        self.pid = os.getpid()
        self.done = []
        self.local_open = 0
        self.orphan = self._new_span("process", None)
        self.attrs = self.orphan["attrs"]
        self._ids = itertools.count()

    def _new_span(self, name: str, parent: str | None) -> dict:
        return {"id": None, "parent": parent, "name": name, "pid": os.getpid(),
                "t0": time.monotonic(), "t1": None, "attrs": {}}

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a finished span that the tracer did not time itself."""
        span = self._new_span(name, None)
        span.update(id=f"{self.pid}-{next(self._ids)}", t0=t0, t1=t1)
        self.done.append(span)

    def wrap(self, name: str, fn, describe=None):
        """Wrap ``fn`` in a span; ``describe(args, kwargs, result)`` adds attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]["id"] if self.stack else None
            span = self._new_span(name, parent)
            span["id"] = f"{self.pid}-{next(self._ids)}"
            outer_attrs = self.attrs
            self.stack.append(span)
            self.local_open += 1
            self.attrs = span["attrs"]
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.monotonic()
                self.stack.pop()
                self.local_open -= 1
                self.attrs = outer_attrs
            if describe is not None:
                span["attrs"].update(describe(args, kwargs, result))
            self.done.append(span)
            if self.local_open == 0:
                self.flush()
            return result

        return wrapper

    def flush(self) -> None:
        spans = self.done
        if self.orphan["attrs"]:
            self.orphan.update(id=f"{self.pid}-orphan", t1=time.monotonic())
            spans = spans + [self.orphan]
            self.orphan = self._new_span("process", None)
            self.attrs = self.orphan["attrs"]
        if not spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        self.done = []

    # -- the layer boundaries --------------------------------------------

    def install(self) -> list[str]:
        """Wrap the layer entry points; returns the names that were found."""
        found = []

        def function(path, name, describe=None):
            original = _resolve(path)
            if original is not None:
                patch_everywhere(original, self.wrap(name, original, describe))
                found.append(path)

        def method(path, replace):
            cls_path, _, meth = path.rpartition(".")
            cls = _resolve(cls_path)
            original = getattr(cls, meth, None)
            if original is not None:
                setattr(cls, meth, replace(original))
                found.append(path)

        function("crngame.config:load_config", "config.load")
        function("crngame.crnfile:load", "config.load")
        function("crngame.experiment:estimate_condition", "experiment.condition")
        method("crngame.experiment:SweepOutput.to_csv",
               lambda fn: self.wrap("experiment.output", fn, _text_bytes))
        function("crngame.svg:sweep_svg", "experiment.output", _text_bytes)
        function("crngame.game:estimate_expected_utility", "game.arm", _arm)
        function("crngame.batch:simulate_batch", "batch.simulate", _batch)
        method("crngame.rng:XoshiroBatch.next_u01", self._u01_counter)
        method("crngame.rng:XoshiroBatch.take", self._take_counter)
        function("crngame.oracle:enumerate_states", "oracle.enumerate", _space)
        function("crngame.oracle:absorption_probabilities", "oracle.solve")
        return found

    def _u01_counter(self, original):
        monotonic = time.monotonic

        @functools.wraps(original)
        def next_u01(rng, *args, **kwargs):
            t0 = monotonic()
            out = original(rng, *args, **kwargs)
            t1 = monotonic()
            attrs = self.attrs
            attrs["rng.u01_s"] = attrs.get("rng.u01_s", 0.0) + (t1 - t0)
            attrs["rng.draws"] = attrs.get("rng.draws", 0) + out.size
            attrs["rng.u01_calls"] = attrs.get("rng.u01_calls", 0) + 1
            return out
        return next_u01

    def _take_counter(self, original):
        monotonic = time.monotonic

        @functools.wraps(original)
        def take(rng, *args, **kwargs):
            t0 = monotonic()
            out = original(rng, *args, **kwargs)
            attrs = self.attrs
            attrs["rng.take_s"] = attrs.get("rng.take_s", 0.0) + (monotonic() - t0)
            attrs["rng.take_calls"] = attrs.get("rng.take_calls", 0) + 1
            return out
        return take


def wrapper_costs(scratch: Path) -> dict[str, float]:
    """Seconds that each kind of wrapper adds to one call, on no-op targets.

    Each cost is the best of five times of a loop of wrapped calls
    minus that of as many direct calls, per call. Every calibration span is
    outermost, so it is charged a flush to ``scratch``; in a traced run only
    outermost spans flush, so the span cost is an upper bound.
    """
    import numpy as np

    one = np.zeros(1)

    class Stub:
        def next_u01(self):
            return one

        def take(self):
            return one

    def noop():
        return None

    def per_call(fn, calls=20_000) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / calls

    Path(scratch).mkdir(parents=True, exist_ok=True)
    tracer = Tracer(scratch)
    stub = Stub()
    u01 = tracer._u01_counter(Stub.next_u01)
    take = tracer._take_counter(Stub.take)
    costs = {
        "span": (per_call(tracer.wrap("calibration", noop), 1000)
                 - per_call(noop, 1000)),
        "u01": per_call(lambda: u01(stub)) - per_call(lambda: Stub.next_u01(stub)),
        "take": per_call(lambda: take(stub)) - per_call(lambda: Stub.take(stub)),
    }
    return {kind: max(0.0, cost) for kind, cost in costs.items()}


def _text_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _arm(args, kwargs, result) -> dict:
    """The baseline arm is the game whose opponents have no reactions."""
    game = args[0] if args else kwargs["game"]
    opponents = game.players[1:]
    base = bool(opponents) and all(not p.strategy.reactions for p in opponents)
    return {"arm": "base" if base else "with"}


def _batch(args, kwargs, result) -> dict:
    stops: dict[str, int] = {}
    for reason in result.stop_reasons:
        key = _STOP_KEYS.get(reason.name, reason.name.lower())
        stops[key] = stops.get(key, 0) + 1
    return {"lanes": int(result.events.size),
            "events": [int(e) for e in result.events],
            "stops": stops}


def _space(args, kwargs, result) -> dict:
    return {"states": len(result),
            "transitions": sum(len(row) for row in result.transitions)}
