"""Outside-in tracer for the cvoodg modules.

``Tracer.install`` wraps every public function defined in a ``cvoodg``
module, in every ``cvoodg`` namespace (module globals and module-level
dicts such as ``CURVE_CONSTRUCTORS``) that binds the same object, plus
``BoundCurve.__call__`` and ``QuadratureError.__init__`` on their classes.
``uninstall`` puts every original back.

Each wrapped call is a frame: its time minus the time of the wrapped calls
it makes is its self time, charged to the layer (module) that defines the
function. The layer boundaries in ``SPAN_FUNCTIONS`` also record a span
(name, start, end, parent, job id); every other call, the hot leaves
included, only adds to counters kept per enclosing span.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "specfun", "coherent_bounds", "search", "state_bounds", "cvcore", "oracle")

SPAN_FUNCTIONS = {
    "cli.main", "cli.cmd_bound", "cli.cmd_extend", "cli.cmd_verify", "cli.cmd_sweep",
    "coherent_bounds.concave_hull", "coherent_bounds.universal_coherent_bound_detail",
    "state_bounds.extend",
    "oracle.run_suites", "oracle.run_dominance_suite", "oracle.run_gamma_suite",
    "oracle.run_mu_nu_suite", "oracle.run_delta_s_suite", "oracle.concavity_and_limit_suite",
}
_CHANNEL_BUILDERS = ("rotation_channel", "displacement_channel", "squeezing_channel",
                     "loss_channel")
_SUITE_MS = {"dominance_ms": "run_dominance_suite", "gamma_ms": "run_gamma_suite",
             "mu_nu_ms": "run_mu_nu_suite", "delta_s_ms": "run_delta_s_suite",
             "concavity_ms": "concavity_and_limit_suite"}
_SEARCH_FUNCTIONS = ("search.grid_seeded_log_min", "search.golden_section_min")
_MISSING = object()


def _layer(module_name: str) -> str | None:
    head, _, short = module_name.partition(".")
    if head != "cvoodg" or not short:
        return None
    return short.lstrip("_")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self) -> None:
        self.job: int | None = None
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (parent span index, name) -> [calls, seconds] for non-span calls
        self.counters: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.spans: list[dict] = []
        # (seconds, truncation order, value, s_opt) per universal point
        self.universal: list[tuple[float, int, float, float]] = []
        self.extend_s: list[float] = []
        self.assertions = 0
        self.assertion_failures = 0
        self.quadrature_errors = 0
        self.objective_evals = 0
        self.searches = 0
        self._frames: list[list[float]] = []  # [start, child seconds]
        self._span_stack: list[int] = []
        self._search_depth = 0
        self._restore: list[tuple] = []
        self._s_range = (1e-8, 0.499)

    # -- wrapping ----------------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._frames.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float]) -> float:
        elapsed = time.perf_counter() - frame[0]
        self._frames.pop()
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[1]
        if self._frames:
            self._frames[-1][1] += elapsed
        return elapsed

    def _leaf(self, fn, name: str):
        parent = self._span_stack

        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self._exit(name, frame)
                counter = self.counters[(parent[-1] if parent else None, name)]
                counter[0] += 1
                counter[1] += elapsed

        return functools.wraps(fn)(wrapper)

    def _span(self, fn, name: str):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "job": self.job,
                    "parent": self._span_stack[-1] if self._span_stack else None}
            self.spans.append(span)
            self._span_stack.append(index)
            frame = self._enter()
            span["start"] = frame[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._exit(name, frame)
                self._span_stack.pop()
                span["end"] = span["start"] + elapsed
            self._observe(name, result, elapsed)
            return result

        return functools.wraps(fn)(wrapper)

    def _search(self, fn, name: str):
        """Count outermost searches and wrap the objective they are given."""
        leaf = self._leaf(fn, name)

        def wrapper(f, *args, **kwargs):
            if self._search_depth:
                return leaf(f, *args, **kwargs)
            self.searches += 1
            self._search_depth += 1
            try:
                return leaf(self._objective(f), *args, **kwargs)
            finally:
                self._search_depth -= 1

        return functools.wraps(fn)(wrapper)

    def _objective(self, f):
        layer = _layer(getattr(f, "__module__", "") or "") or "search"
        counted = self._leaf(f, f"{layer}.{getattr(f, '__qualname__', 'objective')}")

        def objective(x):
            self.objective_evals += 1
            return counted(x)

        return objective

    def _observe(self, name: str, result, elapsed: float) -> None:
        if name == "coherent_bounds.universal_coherent_bound_detail":
            self.universal.append((elapsed, result.truncation_order, result.value, result.s_opt))
        elif name == "state_bounds.extend":
            self.extend_s.append(elapsed)
        elif hasattr(result, "assertions") and name != "oracle.run_suites":
            self.assertions += len(result.assertions)
            self.assertion_failures += sum(a.status != "pass" for a in result.assertions)

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, vars(owner).get(key, _MISSING)))
            setattr(owner, key, value)

    def _wrap(self, fn, name: str):
        if name in SPAN_FUNCTIONS:
            return self._span(fn, name)
        if name in _SEARCH_FUNCTIONS:
            return self._search(fn, name)
        return self._leaf(fn, name)

    def install(self) -> None:
        modules = {name: module for name, module in list(sys.modules.items())
                   if module is not None and (name == "cvoodg" or _layer(name))}
        wrappers: dict[int, object] = {}
        for mod_name, module in modules.items():
            for key, obj in vars(module).items():
                if (callable(obj) and not isinstance(obj, type) and not key.startswith("_")
                        and getattr(obj, "__module__", None) == mod_name):
                    wrappers[id(obj)] = self._wrap(obj, f"{_layer(mod_name)}.{key}")
        originals = {id(w.__wrapped__): w.__wrapped__ for w in wrappers.values()}

        def is_wrapped(obj) -> bool:
            return originals.get(id(obj)) is obj

        for module in modules.values():
            namespace = vars(module)
            for key, obj in list(namespace.items()):
                if is_wrapped(obj):
                    self._patch(namespace, key, wrappers[id(obj)])
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for dkey, value in list(obj.items()):
                        if is_wrapped(value):
                            self._patch(obj, dkey, wrappers[id(value)])
        cb = sys.modules["cvoodg.coherent_bounds"]
        self._s_range = getattr(cb, "_UNIVERSAL_S_RANGE", self._s_range)
        self._patch(cb.BoundCurve, "__call__",
                    self._leaf(cb.BoundCurve.__call__, "coherent_bounds.BoundCurve.__call__"))
        quad_error = sys.modules["cvoodg.cvcore"].QuadratureError
        init = quad_error.__init__

        def counted_init(exc, *args, **kwargs):
            self.quadrature_errors += 1
            init(exc, *args, **kwargs)

        self._patch(quad_error, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            elif value is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, value)

    # -- aggregation -------------------------------------------------------

    def span_records(self) -> list[dict]:
        """The spans, each with the calls and ms of the counted calls it
        made directly; calls outside any span go to a final ``null`` span."""
        spans = [dict(s, counts={}) for s in self.spans]
        outside = {"name": None, "job": None, "parent": None, "counts": {}}
        for (parent, name), (calls, seconds) in self.counters.items():
            target = outside if parent is None else spans[parent]
            target["counts"][name] = [calls, 1e3 * seconds]
        return spans + [outside]

    def _calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def _ms(self, name: str, column: int = 1) -> float:
        return 1e3 * self.stats[name][column] if name in self.stats else 0.0

    def _self_ms(self, layer: str) -> float:
        return 1e3 * sum(s[2] for name, s in self.stats.items()
                         if name.split(".", 1)[0] == layer)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        m: dict[str, tuple[float, str]] = {}
        m["cli.jobs"] = (len({s["job"] for s in self.spans if s["name"] == "cli.main"}), "count")
        for fn in ("gamma_upper_log", "log_factorial", "laguerre"):
            m[f"specfun.{fn}.calls"] = (self._calls(f"specfun.{fn}"), "count")
            m[f"specfun.{fn}.ms"] = (self._ms(f"specfun.{fn}"), "ms")

        points = self.universal
        lo, hi = self._s_range
        m["coherent_bounds.universal_points"] = (len(points), "count")
        point_ms = [1e3 * p[0] for p in points]
        m["coherent_bounds.universal_point_p50_ms"] = (
            statistics.median(point_ms) if point_ms else 0.0, "ms")
        m["coherent_bounds.universal_point_p90_ms"] = (_percentile(point_ms, 0.9), "ms")
        m["coherent_bounds.universal_order_mean"] = (
            statistics.fmean(p[1] for p in points) if points else 0.0, "count")
        m["coherent_bounds.universal_trivial_frac"] = (
            sum(p[2] >= 2.0 for p in points) / len(points) if points else 0.0, "frac")
        m["coherent_bounds.universal_s_edge_frac"] = (
            sum(p[3] > 0.0 and (abs(math.log(p[3] / lo)) < 1e-3 or abs(math.log(hi / p[3])) < 1e-3)
                for p in points) / len(points) if points else 0.0, "frac")
        hull_spans = {i for i, s in enumerate(self.spans)
                      if s["name"] == "coherent_bounds.concave_hull"}
        m["coherent_bounds.hull_builds"] = (len(hull_spans), "count")
        m["coherent_bounds.hull_curve_evals"] = (
            sum(c[0] for (parent, name), c in self.counters.items()
                if parent in hull_spans and name == "coherent_bounds.BoundCurve.__call__"),
            "count")
        m["coherent_bounds.hull_self_ms"] = (self._ms("coherent_bounds.concave_hull", 2), "ms")
        constructors = getattr(sys.modules.get("cvoodg.coherent_bounds"), "CURVE_CONSTRUCTORS", {})
        m["coherent_bounds.curve_builds"] = (
            sum(self._calls(f"coherent_bounds.{fn.__name__}")
                for fn in {id(f): f for f in constructors.values()}.values()), "count")
        m["coherent_bounds.curve_evals"] = (self._calls("coherent_bounds.BoundCurve.__call__"),
                                            "count")
        m["coherent_bounds.cubic_phase_ms"] = (self._ms("coherent_bounds.cubic_phase_bound"), "ms")

        m["search.searches"] = (self.searches, "count")
        m["search.objective_evals"] = (self.objective_evals, "count")

        m["state_bounds.extend_calls"] = (len(self.extend_s), "count")
        m["state_bounds.extend_p50_ms"] = (
            1e3 * statistics.median(self.extend_s) if self.extend_s else 0.0, "ms")

        m["cvcore.channels_built"] = (sum(self._calls(f"cvcore.{b}") for b in _CHANNEL_BUILDERS),
                                      "count")
        m["cvcore.gaussian_output_fidelity_sq.calls"] = (
            self._calls("cvcore.gaussian_output_fidelity_sq"), "count")
        m["cvcore.gaussian_output_fidelity_sq.ms"] = (
            self._ms("cvcore.gaussian_output_fidelity_sq"), "ms")
        m["cvcore.p_rep_radial.calls"] = (self._calls("cvcore.p_rep_radial"), "count")
        m["cvcore.additive_noise_apply.ms"] = (self._ms("cvcore.additive_noise_apply"), "ms")
        m["cvcore.quadrature_errors"] = (self.quadrature_errors, "count")

        for metric, fn in _SUITE_MS.items():
            m[f"oracle.{metric}"] = (self._ms(f"oracle.{fn}"), "ms")
        m["oracle.exact_distance_calls"] = (self._calls("oracle.exact_coherent_distance"), "count")
        m["oracle.assertions"] = (self.assertions, "count")
        m["oracle.assertion_failures"] = (self.assertion_failures, "count")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (self._self_ms(layer), "ms")
        return m
