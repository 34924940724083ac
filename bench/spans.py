"""In-memory span recorder and the per-layer metrics derived from it.

A traced run wraps public ffcs functions at the module attribute their
caller looks them up through (the import site), so every call made by
the library itself is seen.  Each call becomes one span
``[name, start, end, parent, info]``; ``parent`` is the index of the
enclosing span and ``info`` holds a computed work count where one exists.
Span names are ``<layer>.<function>`` with the layer named after the
module in ``src/ffcs`` that does the work.

A layer's self time is the sum, over its spans, of the span duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path


def _profile_key(a, kw, _result):
    return list(a) + [str(v) for v in kw.values()]


def _measure_ops(a, _kw, _result):
    rows, cands = a[1], a[2]
    return int(rows.shape[0]) * int(rows.shape[1]) * int(cands.shape[0])


def _enumerated(_a, _kw, result):
    return int(result[0].shape[0])


def _trial_elem_ops(a, _kw, _result):
    p, trials = a[0], a[1]
    size = sum(math.comb(p.n, j) * (p.q - 1) ** j for j in range(p.k + 1))
    return trials * p.m * size * p.n


# (module, attribute, span name, info function or None).  The info
# function maps (args, kwargs, result) to the span's key or computed count.
WRAPS = [
    ("curves", "union_bound", "bounds.union_bound", None),
    ("curves", "min_measurements", "curves.min_measurements", None),
    ("bounds", "nh_log_profile", "bounds.nh_log_profile", _profile_key),
    ("bounds", "nh_count", "bounds.nh_count", None),
    ("montecarlo", "candidate_matrix", "model.candidate_matrix", _enumerated),
    ("montecarlo", "make_field", "field.make_field", None),
    ("montecarlo", "union_bound", "bounds.union_bound", None),
    ("montecarlo", "fano_lower_bound", "bounds.fano_lower_bound", None),
    ("decoder", "measure_candidates", "model.measure_candidates", _measure_ops),
    ("cli", "curve", "curves.curve", None),
    ("cli", "run_trials", "montecarlo.run_trials", _trial_elem_ops),
    ("cli", "make_field", "field.make_field", None),
]

# per-layer metric -> (unit, better, wrapped names it needs).  A metric
# whose wrapped names are all gone from ffcs is reported as absent.
LAYER_METRICS = {
    "bounds.profile_miss_s": ("s", "lower", ["bounds.nh_log_profile"]),
    "bounds.profile_misses": ("count", "lower", ["bounds.nh_log_profile"]),
    "bounds.profile_hit_ratio": ("ratio", "higher", ["bounds.nh_log_profile"]),
    "bounds.union_bound_s": ("s", "lower", ["curves.union_bound", "montecarlo.union_bound"]),
    "bounds.union_bound_calls": ("count", "lower", ["curves.union_bound", "montecarlo.union_bound"]),
    "bounds.nh_count_s": ("s", "lower", ["bounds.nh_count"]),
    "curves.min_measurements_s": ("s", "lower", ["curves.min_measurements"]),
    "curves.self_s": ("s", "lower", ["cli.curve"]),
    "curves.bound_evals_per_point": ("count", "lower", ["curves.union_bound"]),
    "montecarlo.run_trials_s": ("s", "lower", ["cli.run_trials"]),
    "montecarlo.self_s": ("s", "lower", ["cli.run_trials"]),
    "montecarlo.trial_elem_ops": ("ops", "lower", ["cli.run_trials"]),
    "decoder.decode_s": ("s", "lower", []),
    "decoder.events_s": ("s", "lower", []),
    "decoder.self_s": ("s", "lower", ["decoder.measure_candidates"]),
    "decoder.candidates_scanned": ("count", "lower", []),
    "decoder.unique_ratio": ("ratio", "higher", []),
    "model.measure_s": ("s", "lower", ["decoder.measure_candidates"]),
    "model.measure_ops": ("ops", "lower", ["decoder.measure_candidates"]),
    "model.enumerate_s": ("s", "lower", ["montecarlo.candidate_matrix"]),
    "model.enumerated": ("count", "lower", ["montecarlo.candidate_matrix"]),
    "field.build_s": ("s", "lower", []),
    "field.builds": ("count", "lower", []),
    "cli.self_s": ("s", "lower", []),
    "trace.wall_s": ("s", "lower", []),
}

# Counts computed from inputs and shapes rather than timed; they repeat
# exactly for a given seed and --seconds, so a later change may cite them.
COMPUTED_COUNTS = [
    "bounds.profile_misses",
    "model.measure_ops",
    "montecarlo.trial_elem_ops",
    "decoder.candidates_scanned",
]


class Tracer:
    """Records spans in memory; ``enabled`` gates recording."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True
        self.absent: set[str] = set()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, info_fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if not self.enabled:
                return fn(*a, **kw)
            with self.span(name) as rec:
                result = fn(*a, **kw)
                if info_fn is not None:
                    rec[4] = info_fn(a, kw, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every WRAPS entry; a missing module or attribute is noted as absent."""
        for mod_name, attr, name, info_fn in WRAPS:
            fn = getattr(modules.get(mod_name), attr, None)
            if fn is None:
                self.absent.add(f"{mod_name}.{attr}")
                continue
            setattr(modules[mod_name], attr, self._wrapper(fn, name, info_fn))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")


def layer_metrics(tracer: Tracer, extra: dict, speed: float) -> dict:
    """Per-layer metrics from the recorded spans.

    ``extra`` supplies what the workload computed itself: curve points,
    decoder candidates scanned, unique decodes, decode calls and the
    traced wall time (already scaled).  Span times are multiplied by
    ``speed``, the run's reference-speed factor, like every reported time.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def layer_self(layer):
        return sum(
            s[2] - s[1] - child_time[i]
            for i, s in enumerate(spans)
            if s[0].split(".", 1)[0] == layer
        )

    seen = set()
    miss_s = 0.0
    misses = 0
    for name, start, end, _, info in spans:
        if name == "bounds.nh_log_profile":
            key = json.dumps(info)
            if key not in seen:
                seen.add(key)
                misses += 1
                miss_s += end - start
    profile_calls = calls("bounds.nh_log_profile")
    curve_bound_calls = sum(
        1 for s in spans
        if s[0] == "bounds.union_bound" and s[3] is not None
        and spans[s[3]][0] == "curves.min_measurements"
    )
    points = extra["curve_points"]
    decodes = extra["decode_calls"]

    values = {
        "bounds.profile_miss_s": miss_s,
        "bounds.profile_misses": misses,
        "bounds.profile_hit_ratio": (profile_calls - misses) / profile_calls if profile_calls else 0.0,
        "bounds.union_bound_s": total("bounds.union_bound"),
        "bounds.union_bound_calls": calls("bounds.union_bound"),
        "bounds.nh_count_s": total("bounds.nh_count"),
        "curves.min_measurements_s": total("curves.min_measurements"),
        "curves.self_s": layer_self("curves"),
        "curves.bound_evals_per_point": curve_bound_calls / points if points else 0.0,
        "montecarlo.run_trials_s": total("montecarlo.run_trials"),
        "montecarlo.self_s": layer_self("montecarlo"),
        "montecarlo.trial_elem_ops": sum(s[4] for s in spans if s[0] == "montecarlo.run_trials"),
        "decoder.decode_s": total("decoder.decode_l0"),
        "decoder.events_s": total("decoder.error_events"),
        "decoder.self_s": layer_self("decoder"),
        "decoder.candidates_scanned": extra["candidates_scanned"],
        "decoder.unique_ratio": extra["unique_decodes"] / decodes if decodes else 0.0,
        "model.measure_s": total("model.measure_candidates"),
        "model.measure_ops": sum(s[4] for s in spans if s[0] == "model.measure_candidates"),
        "model.enumerate_s": total("model.candidate_matrix"),
        "model.enumerated": sum(s[4] for s in spans if s[0] == "model.candidate_matrix"),
        "field.build_s": total("field.make_field"),
        "field.builds": calls("field.make_field"),
        "cli.self_s": layer_self("cli"),
        "trace.wall_s": extra["wall_s"],
    }
    out = {}
    for name, (unit, _, needs) in LAYER_METRICS.items():
        gone = bool(needs) and all(n in tracer.absent for n in needs)
        value = values[name] * speed if unit == "s" and name != "trace.wall_s" else values[name]
        out[name] = {"value": None if gone else value, "unit": unit}
    return out
