"""Span tracing of the arcmellin layers, installed from outside the package.

The tracer replaces each public function of a layer module with a wrapper,
under every name a caller looks it up by: the defining module, every other
arcmellin module that imported it (``verify`` binds ``quad_phi`` at import,
so ``arcmellin.verify.quad_phi`` is wrapped too) and the package namespace.
Nothing under ``src/`` changes.

A span is ``[id, parent_id, name, start_s, end_s]``.  A layer's self time is
the time of its spans minus the time of their child spans.  The ``exact``
layer is called hundreds of thousands of times per run, so its calls are
counted and timed into their parent span without a span record of their own.
Cache counters come from the public ``cache_info()`` of the ``lru_cache``
functions and from call counts against the growth of ``_quad_cache`` and
``_constant_cache``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from functools import wraps

LAYERS = ("exact", "series", "closedform", "lfuncs", "quadrature", "verify", "cli")
SUITES = (
    "alt-binom-odd", "alt-binom-even", "c-odd-power", "eulerian-a", "eulerian-b",
    "binom-cosh", "vanishing", "eta-coeff", "zeta2-coeff", "d-identity",
    "euler-bernoulli", "bounds", "coupled", "asymptotic-constants", "cross-rep",
    "even-relations", "reference-tables",
)
QUAD_ENTRIES = ("quad_phi", "quad_log_family", "quad_sinh_over_z", "quad_c_constant")
FORM_BUILDERS = ("log_integral_odd_cosh", "log_integral_even_cosh", "sinh_over_z_integral")


class Tracer:
    """Spans and counters of one traced workload run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.bps_args: set = set()
        self.forms: dict[int, object] = {}
        self.suite_s: dict[str, float] = defaultdict(float)
        self.cells = 0
        self.alt_sum_terms = 0
        self.cache_lookups = 0
        # frame: [span_id, layer, start, child_time]
        self._stack: list[list] = [[0, "", 0.0, 0.0]]
        self._next_id = 1
        self._patches: list[tuple] = []
        self._originals: dict[str, object] = {}

    # -- wrapping --------------------------------------------------------

    def _wrap(self, qualname: str, layer: str, func):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        post = self._post_hook(qualname, layer)
        clock = time.perf_counter

        if layer == "exact":  # leaves, called ~10^6 times a run: timed, no span

            @wraps(func)
            def counted(*args, **kwargs):
                start = clock()
                result = func(*args, **kwargs)
                duration = clock() - start
                stack[-1][3] += duration
                calls[qualname] += 1
                self_s[layer] += duration
                return result

            return counted

        @wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                parent[3] += duration
                calls[qualname] += 1
                self_s[layer] += duration - frame[3]
                self_s[qualname] += duration - frame[3]
                spans.append([span_id, parent[0], qualname, frame[2], end])
            if post is not None:
                post(args, result, parent)
            return result

        return traced

    def _post_hook(self, qualname: str, layer: str):
        name = qualname.split(".", 1)[1]
        if qualname == "series.binomial_power_sum":
            return lambda args, result, parent: self.bps_args.add(args)
        if layer == "closedform" and (name in FORM_BUILDERS or name == "phi_odd_closed_form"):
            return lambda args, result, parent: self.forms.setdefault(id(result), result)
        if layer == "verify":
            return self._collect_reports
        return None

    def _collect_reports(self, args, result, parent) -> None:
        if parent[1] == "verify":  # counted once, by the outermost verify call
            return
        for report in result if isinstance(result, list) else [result]:
            if hasattr(report, "elapsed_seconds"):
                self.suite_s[report.family] += report.elapsed_seconds
                self.cells += len(report.cells)

    def _counting_alternating_sum(self, func):
        @wraps(func)
        def counted(term, *args, **kwargs):
            def counted_term(k):
                self.alt_sum_terms += 1
                return term(k)

            return func(counted_term, *args, **kwargs)

        return counted

    def _counting_cached(self, func):
        @wraps(func)
        def counted(*args, **kwargs):
            self.cache_lookups += 1
            return func(*args, **kwargs)

        return counted

    def install(self) -> None:
        package = importlib.import_module("arcmellin")
        modules = {layer: importlib.import_module(f"arcmellin.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                qualname = f"{layer}.{name}"
                self._originals[qualname] = obj
                inner = obj
                if qualname == "lfuncs.alternating_sum":
                    inner = self._counting_alternating_sum(obj)
                wrappers[id(obj)] = self._wrap(qualname, layer, inner)
        lfuncs = modules["lfuncs"]
        wrappers[id(lfuncs._cached)] = self._counting_cached(lfuncs._cached)
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)
        self._modules = modules
        self._before = self._snapshot()
        self._started = time.perf_counter()

    def uninstall(self) -> None:
        self.elapsed_s = time.perf_counter() - self._started
        self._after = self._snapshot()
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()

    def _snapshot(self) -> dict:
        quad = self._modules["quadrature"]
        lru = {
            name: self._originals[name].cache_info().misses
            for name in ("series.x_over_sinh_coeffs", *(f"closedform.{f}" for f in FORM_BUILDERS))
        }
        return {
            "quad": dict(quad._quad_cache),
            "constants": len(self._modules["lfuncs"]._constant_cache),
            "lru": lru,
        }

    # -- results ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self) -> dict[str, float]:
        before, after = self._before, self._after
        calls, self_s = self.calls, self.self_s
        total = self.elapsed_s
        out: dict[str, float] = {}

        new_quads = [r for k, r in after["quad"].items() if k not in before["quad"]]
        quad_calls = sum(calls[f"quadrature.{name}"] for name in QUAD_ENTRIES)
        out["quadrature.calls"] = quad_calls
        out["quadrature.integrals"] = len(new_quads)
        out["quadrature.cache_hit_ratio"] = _ratio(quad_calls - len(new_quads), quad_calls)
        out["quadrature.nodes"] = sum(r.nodes_used for r in new_quads)
        out["quadrature.nodes_per_integral"] = _ratio(out["quadrature.nodes"], len(new_quads))
        out["quadrature.levels_max"] = max((r.levels for r in new_quads), default=0)

        computed = after["constants"] - before["constants"]
        out["lfuncs.eval_calls"] = calls["lfuncs.eval_closed_form"]
        out["lfuncs.symbols_computed"] = computed
        out["lfuncs.cache_hit_ratio"] = _ratio(self.cache_lookups - computed, self.cache_lookups)
        out["lfuncs.alt_sums"] = calls["lfuncs.alternating_sum"]
        out["lfuncs.alt_sum_terms"] = self.alt_sum_terms

        lru_misses = {k: after["lru"][k] - before["lru"][k] for k in after["lru"]}
        out["closedform.forms"] = sum(
            calls[f"closedform.{f}"] for f in (*FORM_BUILDERS, "phi_odd_closed_form")
        )
        out["closedform.forms_built"] = (
            sum(lru_misses[f"closedform.{f}"] for f in FORM_BUILDERS)
            + calls["closedform.phi_odd_closed_form"]
        )
        out["closedform.coeff_digits_max"] = max(
            (
                len(str(max(abs(c.numerator), c.denominator)))
                for form in self.forms.values()
                for _, c in form.items()
            ),
            default=0,
        )

        out["series.x_over_sinh.calls"] = calls["series.x_over_sinh_coeffs"]
        out["series.x_over_sinh.misses"] = lru_misses["series.x_over_sinh_coeffs"]
        out["series.x_over_sinh.self_s"] = self_s["series.x_over_sinh_coeffs"]
        bps_calls = calls["series.binomial_power_sum"]
        out["series.binomial_power_sum.calls"] = bps_calls
        out["series.binomial_power_sum.distinct_ratio"] = _ratio(len(self.bps_args), bps_calls)
        out["series.binomial_power_sum.self_s"] = self_s["series.binomial_power_sum"]

        out["exact.calls"] = sum(v for k, v in calls.items() if k.startswith("exact."))
        out["verify.cells"] = self.cells
        for suite in SUITES:
            out[f"verify.{suite}.s"] = self.suite_s[suite]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = _ratio(self_s[layer], total)
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
