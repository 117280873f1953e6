"""Span tracer that instruments ``coexist`` from outside, by wrapping its functions.

``Tracer.install`` replaces each listed public function with a wrapper in
every loaded ``coexist`` module that holds a reference to it, so calls made
through ``from .x import f`` bindings and calls inside the defining module
are both seen.  The program's files are not touched.  Each wrapper records
one span -- (op id, span id, parent span id, layer, name, start ns, end ns) --
in memory; ``write_spans`` writes them out once the run ends.

A layer is a module of ``src/coexist``.  Its self time is the time inside
its spans minus the time inside their child spans.  Calls are single
threaded and strictly nested, so the self times of one op's spans sum to
that op's root span duration exactly.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT_LAYER = "bench"

# Public entry points recorded as spans, per layer (module).
SPANNED = {
    "config": ("load_scenario", "resolve_grid"),
    "cli": ("run_command",),
    "numerics": ("solve_root", "q_inverse", "q_tail"),
    "propagation": (
        "gain_linear_array",
        "gain_linear",
        "attenuation",
        "invert_attenuation",
        "fdr_cochannel",
    ),
    "protection_single": (
        "max_tolerable_interference",
        "inr_vs_performance_drop",
        "protection_distance",
        "single_user_gamma",
        "received_interference_w",
    ),
    "protection_multi": (
        "solve_optimal_profile",
        "solve_radar_blind",
        "solve_main_side",
        "optimize_beta",
        "campbell_stats",
        "outage_probability",
        "policy_profile",
        "protected_area_m2",
        "sample_aggregate",
    ),
    "_mc_kernels": ("sample_sums",),
    "radar_detection": (
        "noise_power_w",
        "single_pulse_snr",
        "effective_snr",
        "max_range",
        "snr_required_albersheim",
        "albersheim_snr_linear",
    ),
    "wifi_link": (
        "throughput_trace",
        "throughput_vs_time",
        "average_throughput",
        "duty_factor",
        "radar_interference_w",
        "wifi_sinr",
        "wifi_noise_w",
    ),
}

# Per-element helpers called tens of thousands of times per op: a span each
# would cost more than the call, so they are only counted and their time
# stays in the caller's self time.
COUNTED = {"propagation": ("gain_dbi",), "wifi_link": ("mcs_rate",)}

LAYERS = tuple(SPANNED) + (ROOT_LAYER,)

SOLVERS = frozenset(
    ("solve_optimal_profile", "solve_radar_blind", "solve_main_side", "optimize_beta")
)
GAINS = frozenset(("gain_linear_array", "gain_linear"))


def metric_layer(layer: str) -> str:
    """Layer name as it appears in metric names (which may not start with '_')."""
    return layer.lstrip("_")


class Tracer:
    """Collects spans and counts for the ops run between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, str, int, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = [0]
        self._next_id = 1
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id: int, parent: int, layer: str, name: str, t0: int) -> None:
        t1 = perf_counter_ns()
        self._stack.pop()
        self.spans.append((self._op, span_id, parent, layer, name, t0, t1))

    def run_op(self, op_id: int, fn, *args, **kwargs):
        """Call ``fn`` inside the root span of op ``op_id``."""
        self._op = op_id
        span_id, parent = self._enter()
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span_id, parent, ROOT_LAYER, "op", t0)

    def _span_wrapper(self, fn, layer: str, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._enter()
            t0 = perf_counter_ns()
            try:
                if hook is not None:
                    args, kwargs = hook(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span_id, parent, layer, name, t0)

        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that count work at the boundary ---------------------------

    def _hook_solve_root(self, args, kwargs):
        counts = self.counts
        objective = args[0]

        def counted(x):
            counts["numerics.objective_evals"] += 1
            return objective(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _hook_gain_array(self, args, kwargs):
        theta = args[1] if len(args) > 1 else kwargs["theta_rad"]
        self.counts["propagation.gain_array_points"] += int(np.size(theta))
        return args, kwargs

    def _make_sample_sums_hook(self, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            points = float(bound["lam_disk"]) * int(bound["n_samples"])
            kept = 1.0 - float(np.mean(bound["dnorm2_tab"]))
            counts["mc_kernels.points"] += points
            counts["mc_kernels.kept_points"] += points * kept
            return args, kwargs

        return hook

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a ``coexist`` module references it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "coexist" or name.startswith("coexist."))
        ]
        replacements = {}
        for layer, names in SPANNED.items():
            home = sys.modules[f"coexist.{layer}"]
            for name in names:
                fn = getattr(home, name)
                hook = None
                if name == "solve_root":
                    hook = self._hook_solve_root
                elif name == "gain_linear_array":
                    hook = self._hook_gain_array
                elif name == "sample_sums":
                    hook = self._make_sample_sums_hook(fn)
                replacements[id(fn)] = (fn, self._span_wrapper(fn, layer, name, hook))
        for layer, names in COUNTED.items():
            home = sys.modules[f"coexist.{layer}"]
            for name in names:
                fn = getattr(home, name)
                key = f"{metric_layer(layer)}.{name}"
                replacements[id(fn)] = (fn, self._count_wrapper(fn, key))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("op,span,parent,layer,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


def self_times_ns(spans) -> dict[tuple[int, str], int]:
    """Self time per (op id, layer): span durations minus their children's."""
    child_ns: collections.Counter = collections.Counter()
    for _op, _sid, parent, _layer, _name, t0, t1 in spans:
        child_ns[parent] += t1 - t0
    totals: collections.Counter = collections.Counter()
    for op, sid, _parent, layer, _name, t0, t1 in spans:
        totals[(op, layer)] += (t1 - t0) - child_ns[sid]
    return dict(totals)


def op_durations_ns(spans) -> dict[int, int]:
    """Root span duration of each traced op."""
    return {
        op: t1 - t0
        for op, _sid, _parent, layer, _name, t0, t1 in spans
        if layer == ROOT_LAYER
    }


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced op (or a ratio of totals)."""
    spans = tracer.spans
    ops = op_durations_ns(spans)
    n_ops = len(ops)
    if n_ops == 0:
        raise ValueError("no traced ops")
    counts = tracer.counts
    names = {sid: name for _op, sid, _p, _l, name, _t0, _t1 in spans}
    calls: collections.Counter = collections.Counter()
    incl_ns: collections.Counter = collections.Counter()
    solve_ns = gain_ns = 0
    for _op, _sid, parent, _layer, name, t0, t1 in spans:
        calls[name] += 1
        incl_ns[name] += t1 - t0
        if name in SOLVERS and names.get(parent) not in SOLVERS:
            solve_ns += t1 - t0
        if name in GAINS and names.get(parent) not in GAINS:
            gain_ns += t1 - t0
    layer_self = collections.Counter()
    for (_op, layer), ns in self_times_ns(spans).items():
        layer_self[layer] += ns
    op_ns = sum(ops.values())
    points = counts["mc_kernels.points"]

    def per_op_s(ns: float) -> float:
        return ns / 1e9 / n_ops

    def per_op(count: float) -> float:
        return count / n_ops

    metrics = {
        "trace.op_s": per_op_s(op_ns),
        "config.load_s": per_op_s(incl_ns["load_scenario"]),
        "config.loads": per_op(calls["load_scenario"]),
        "cli.bytes_written": per_op(bytes_written),
        "numerics.solve_root_calls": per_op(calls["solve_root"]),
        "numerics.objective_evals": per_op(counts["numerics.objective_evals"]),
        "numerics.solve_root_s": per_op_s(incl_ns["solve_root"]),
        "protection_multi.solve_s": per_op_s(solve_ns),
        "protection_multi.solve_main_side_calls": per_op(calls["solve_main_side"]),
        "protection_multi.campbell_s": per_op_s(incl_ns["campbell_stats"]),
        "protection_multi.sample_setup_s": per_op_s(
            incl_ns["sample_aggregate"] - incl_ns["sample_sums"]
        ),
        "mc_kernels.sample_sums_s": per_op_s(incl_ns["sample_sums"]),
        "mc_kernels.sample_sums_share": incl_ns["sample_sums"] / op_ns,
        "mc_kernels.ns_per_point": incl_ns["sample_sums"] / points if points else 0.0,
        "mc_kernels.points_computed": per_op(points),
        "mc_kernels.kept_ratio_computed": (
            counts["mc_kernels.kept_points"] / points if points else 0.0
        ),
        "propagation.gain_array_calls": per_op(calls["gain_linear_array"]),
        "propagation.gain_array_points": per_op(
            counts["propagation.gain_array_points"]
        ),
        "propagation.gain_scalar_calls": per_op(counts["propagation.gain_dbi"]),
        "propagation.gain_s": per_op_s(gain_ns),
        "protection_single.protection_distance_calls": per_op(
            calls["protection_distance"]
        ),
        "wifi_link.trace_calls": per_op(calls["throughput_trace"]),
        "wifi_link.mcs_rate_calls": per_op(counts["wifi_link.mcs_rate"]),
    }
    for layer in LAYERS:
        metrics[f"{metric_layer(layer)}.self_s"] = per_op_s(layer_self[layer])
    return metrics
