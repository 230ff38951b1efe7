"""Per-layer tracing, installed from outside the package.

The traced run replaces functions of asepx with timing wrappers before
the timed part starts.  Every wrapper is a span on one stack, so a
layer's self time is its span time minus the time of the spans it
called.  Spans are aggregated per name (calls, self time); only the
coarse ones (operations and module entry points) are also kept one by
one, because the scalar layer alone is called millions of times a run.
Cache counters are read from `cache_info()` of the untouched cached
functions.

A name that a later version of asepx no longer has is reported on
stderr and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import micro

# (metric prefix, module, attribute, keep each span, extra counter)
# The attribute may name a method as "Class.method".
SPANS = (
    ("scalar.poly_gcd", "asepx.scalar", "poly_gcd", False, None),
    ("scalar.poly_divmod", "asepx.scalar", "Poly.divmod", False, None),
    ("scalar.poly_mul", "asepx.scalar", "Poly.__mul__", False, None),
    ("scalar.ratfunc_init", "asepx.scalar", "RatFunc.__init__", False, None),
    ("scalar.ratfunc_add", "asepx.scalar", "RatFunc.__add__", False, None),
    ("asep_core.markov_sector", "asepx.asep_core", "markov_sector", True, None),
    ("asep_core.kernel_vector", "asepx.asep_core", "_kernel_vector", True, "dim_total"),
    ("asep_core.orbit_kernel", "asepx.asep_core", "_orbit_reduced_kernel", True, None),
    ("asep_core.canonicalize_values", "asepx.asep_core", "canonicalize_values", True, None),
    ("asep_core.gillespie", "asepx.asep_core", "gillespie", True, None),
    ("mlq.mlq_state", "asepx.mlq", "mlq_state", True, None),
    ("mlq.enumerate_pairings", "asepx.mlq", "enumerate_pairings", False, "outcomes"),
    ("mlq.pairing_weight", "asepx.mlq", "pairing_weight", False, None),
    ("mlq.project_pi", "asepx.mlq", "project_pi", True, None),
    ("ctm.mp_stationary", "asepx.ctm", "mp_stationary", True, None),
    ("ctm.mp_trace", "asepx.ctm", "mp_trace", True, None),
    ("ctm.check_recursion", "asepx.ctm", "check_recursion", True, None),
    ("oscillator.trace_pem", "asepx.oscillator", "trace_pem", False, None),
    ("oscillator.apply_word_to_level", "asepx.oscillator", "apply_word_to_level", False, None),
    ("oscillator.multimode_sum_is_zero", "asepx.oscillator", "multimode_sum_is_zero", False, None),
    ("oscillator.s_element", "asepx.oscillator", "s_element", False, None),
)

# (metric prefix, module, lru-cached function)
CACHES = (
    ("mlq.pairing_images", "asepx.mlq", "_pairing_images"),
    ("ctm.build_X", "asepx.ctm", "build_X"),
    ("oscillator.trace_pem", "asepx.oscillator", "trace_pem"),
)

CHECK_KINDS = ("ybe", "rll", "qp", "lt-link", "rtt", "zf", "hat", "ms-theorem")

# metric name -> stats reported, in output order
REPORTED = {
    "scalar.poly_gcd": ("calls", "self_s"),
    "scalar.poly_divmod": ("calls", "self_s"),
    "scalar.poly_mul": ("calls", "self_s"),
    "scalar.ratfunc_init": ("calls", "self_s"),
    "scalar.ratfunc_add": ("calls", "self_s"),
    "asep_core.markov_sector": ("self_s",),
    "asep_core.kernel_vector": ("calls", "self_s", "dim_total"),
    "asep_core.orbit_kernel": ("calls",),
    "asep_core.canonicalize_values": ("calls", "self_s"),
    "asep_core.gillespie": ("events", "self_s"),
    "mlq.mlq_state": ("self_s",),
    "mlq.enumerate_pairings": ("calls", "outcomes", "self_s"),
    "mlq.pairing_weight": ("calls", "self_s"),
    "mlq.pairing_images": ("hits", "misses"),
    "mlq.project_pi": ("self_s",),
    "ctm.mp_stationary": ("self_s",),
    "ctm.mp_trace": ("calls", "self_s"),
    "ctm.build_X": ("hits", "misses"),
    "ctm.check_recursion": ("calls", "self_s"),
    "oscillator.trace_pem": ("hits", "misses", "self_s"),
    "oscillator.apply_word_to_level": ("calls", "self_s"),
    "oscillator.multimode_sum_is_zero": ("calls", "self_s"),
    "oscillator.s_element": ("calls", "self_s"),
    **{f"algebra_checks.{kind}": ("self_s", "trials") for kind in CHECK_KINDS},
}

COUNT_STATS = {"calls", "outcomes", "dim_total", "hits", "misses", "events", "trials"}
HIGHER_IS_BETTER = {"hits", "events", "trials"}


def _resolve(module: str, attr: str):
    """(owner, name, object) for "func" or "Class.method", or None if absent."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    """Span stack with per-name totals and a record of the coarse spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counters = defaultdict(int)  # "name.stat" -> count
        self.spans: list[dict] = []
        self.op = None  # label of the running operation, shared by its spans
        self.missing: list[str] = []
        self._stack = [[0.0, None]]  # frames: [child seconds, span id]
        self._patched = []
        self._cache_start = {}

    # -- spans ------------------------------------------------------------
    def wrap(self, name: str, fn, keep: bool = False, counter=None):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        counters = self.counters
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = parent[1]
            if keep:
                sid = len(spans)
                spans.append({"name": name, "op": self.op, "parent": parent[1]})
            frame = [0.0, sid]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if keep:
                    spans[sid]["start"] = start
                    spans[sid]["end"] = start + elapsed
            if counter == "outcomes":
                counters[name + ".outcomes"] += len(result)
            elif counter == "dim_total":
                counters[name + ".dim_total"] += args[1]
            return result

        return traced

    def run_span(self, name: str, fn):
        """Call fn() inside a kept span of the benchmark's own."""
        return self.wrap(name, fn, keep=True)()

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        # read the caches before their functions are wrapped
        for name, module, attr in CACHES:
            found = _resolve(module, attr)
            if found is None or not hasattr(found[2], "cache_info"):
                self.missing.append(f"{module}.{attr}.cache_info")
                continue
            self._cache_start[name] = (found[2], found[2].cache_info())
        for name, module, attr, keep, counter in SPANS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, short, orig = found
            wrapper = self.wrap(name, orig, keep, counter)
            if isinstance(owner, type):
                self._patch(owner, short, orig, wrapper)
                continue
            # rebind every module-level reference, including `from x import f`
            for modname, mod in list(sys.modules.items()):
                if modname == "asepx" or modname.startswith("asepx."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)
        if self.missing:
            print(f"trace: not found, reads 0: {', '.join(self.missing)}", file=sys.stderr)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        cache = {}
        for name, (fn, before) in self._cache_start.items():
            after = fn.cache_info()
            cache[name + ".hits"] = after.hits - before.hits
            cache[name + ".misses"] = after.misses - before.misses
        out = {}
        for prefix, stats in REPORTED.items():
            for stat in stats:
                key = f"{prefix}.{stat}"
                if stat == "calls":
                    out[key] = self.stats[prefix][0] if prefix in self.stats else 0
                elif stat == "self_s":
                    out[key] = self.stats[prefix][1] if prefix in self.stats else 0.0
                elif key in cache:
                    out[key] = cache[key]
                else:
                    out[key] = self.counters.get(key, 0)
        return out


def per_layer_names() -> list[str]:
    """Every per-layer metric of a traced run, in output order."""
    spans = [f"{prefix}.{stat}" for prefix, stats in REPORTED.items() for stat in stats]
    return spans + micro.NAMES + ["trace.wall_s", "trace.overhead_s"]


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat in COUNT_STATS:
        return "count"
    return "us" if stat.endswith("_us") else "s"


def better_of(metric: str) -> str:
    return "higher" if metric.rsplit(".", 1)[1] in HIGHER_IS_BETTER else "lower"
