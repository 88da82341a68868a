"""Per-layer tracing for the benchmark, from the benchmark's own code.

`Tracer.install` replaces each layer function below at every eyerig module
attribute that holds it, which is where its callers look it up, so
`critic.refine`'s call to `compose` or `mapper.map_frame`'s call to
`validate_control_state` are traced too. Each call records a span (op, id,
parent id, name, start, end); self time is a span's length minus its child
spans. Counters are taken from a call's arguments and result.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


# (module, function) -> {counter: f(args, kwargs, result)}; `passes` is
# reported as pass_ratio, passes per call.
LAYERS = {
    ("library", "load_library"): {"bytes": lambda a, k, r: os.path.getsize(a[0])},
    ("library", "save_library"): {"bytes": lambda a, k, r: os.path.getsize(a[1])},
    ("library", "invert_controls"): {"frames": lambda a, k, r: len(a[0])},
    # compose passes label_filter by keyword
    ("library", "query"): {"fallbacks": lambda a, k, r: k.get("label_filter") is not None and not r},
    ("library", "build_library"): {},
    ("mapper", "save_keypoints_json"): {"bytes": lambda a, k, r: os.path.getsize(a[1])},
    ("mapper", "map_sequence"): {"frames": lambda a, k, r: len(a[0])},
    ("mapper", "load_keypoints_json"): {},
    ("channels", "validate_control_state"): {},
    ("channels", "save_controls_csv"): {},
    ("channels", "load_controls_csv"): {},
    ("channels", "resample_sequence"): {},
    ("channels", "enforce_state_invariants"): {},
    ("demo", "build_demo_library"): {},
    ("planner", "plan"): {},
    ("composer", "compose"): {},
    ("critic", "refine"): {"replans": lambda a, k, r: r.replans},
    ("critic", "critique"): {"passes": lambda a, k, r: r.verdict == "pass"},
    ("critic", "apply_edits"): {},
    ("metrics", "dtw"): {"cells": lambda a, k, r: len(a[0]) * len(a[1])},
    ("metrics", "au_temp"): {},
    ("metrics", "au_f1"): {},
    ("cli", "main"): {},
}

# scipy's NNLS as invert_controls looks it up: counted, not timed.
NNLS = ("library", "nnls", "library.invert_controls.nnls_calls")

UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "frames": "frames",
         "fallbacks": "count", "replans": "count", "cells": "count", "nnls_calls": "count"}

# Untraced and traced op_ms_p50 of the same ops: the tracing overhead.
OVERHEAD_METRICS = ("bench.op_ms_p50.untraced", "bench.op_ms_p50.traced")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for (mod, fn), counters in LAYERS.items():
        name = f"{mod}.{fn}"
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        for key in counters:
            if key == "passes":
                specs.append((f"{name}.pass_ratio", "ratio", "higher"))
            else:
                specs.append((f"{name}.{key}", UNITS[key], "lower"))
        if name == "library.invert_controls":
            specs.append((NNLS[2], "count", "lower"))
    specs += [(m, "ms", "lower") for m in OVERHEAD_METRICS]
    return specs


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, counters):
        stack, spans, ids = self._stack, self.spans, self._ids

        def traced(*args, **kwargs):
            span = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - span[1]
                spans.append((self.op, span[0], parent, name, start, end))
            for key, count in counters.items():
                self.counts[f"{name}.{key}"] += count(args, kwargs, result)
            return result

        return traced

    def _patch(self, original, replacement) -> None:
        for mod in [m for n, m in sys.modules.items() if n == "eyerig" or n.startswith("eyerig.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        for (mod, fn), counters in LAYERS.items():
            original = getattr(sys.modules[f"eyerig.{mod}"], fn)
            self._patch(original, self._wrap(f"{mod}.{fn}", original, counters))
        nnls = getattr(sys.modules[f"eyerig.{NNLS[0]}"], NNLS[1])

        def counted(*args, **kwargs):
            self.counts[NNLS[2]] += 1
            return nnls(*args, **kwargs)

        self._patch(nnls, counted)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric except the overhead pair, per traced op."""
        out = {}
        for name, unit, _ in metric_specs():
            layer, _, key = name.rpartition(".")
            if name in OVERHEAD_METRICS:
                continue
            if key == "calls":
                out[name] = self.calls[layer] / ops
            elif key == "self_s":
                out[name] = self.self_s[layer] / ops
            elif key == "pass_ratio":
                calls = self.calls[layer]
                out[name] = self.counts[f"{layer}.passes"] / calls if calls else 0.0
            else:
                out[name] = self.counts[name] / ops
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[1]):
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
