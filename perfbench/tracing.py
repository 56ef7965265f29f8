"""Span recorder for traced benchmark runs.

The recorder wraps every public function of every probstirling module in
a span and rebinds the wrapper under each name that pointed at the
original, in every module, so calls through ``from .x import y`` aliases
and through a module's own globals (recursion included) are recorded.
Nothing in the library changes on disk.

A span is (name, start, end, parent, run id), kept in memory and written
out when the run ends. A module's self time is the summed duration of its
spans minus the part covered by their direct child spans; time in
unwrapped helpers and in the standard library goes to the innermost open
span. Generator functions get no span, because their frames run inside
the consumer's; they only count the items they hand to callers outside
themselves. There are no queues or threads, so no span ever waits.

Memo-table counters come from the original ``lru_cache`` objects.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter

MODULES = (
    "cli",
    "exact_core",
    "distributions",
    "series",
    "gen_stirling",
    "sums",
    "appell",
    "polylog",
    "montecarlo",
)

# repeat_ratio is tracked only where it measures known waste:
# the uncached moment expansion that the memo tables do not cover
REPEAT_TRACKED = ("distributions.shifted_sum_moment",)

# functions whose spans are summed as totals (outermost calls only)
TOTALS = (
    "gen_stirling.sy",
    "gen_stirling.sy_via_factorial",
    "gen_stirling.sy_via_gf",
    "gen_stirling.sy_via_uniform_rep",
    "polylog.li_conv_direct",
    "montecarlo.estimate_sum_moment",
)

CACHES = (
    "distributions.sum_moment",
    "distributions.moment",
    "exact_core.stirling2",
    "exact_core.stirling1",
    "exact_core.cnn_table",
    "polylog.li_neg",
)

CALL_COUNTS = (
    "distributions.shifted_sum_moment",
    "gen_stirling.sy",
    "series.series_mul",
    "appell.theorem12_check",
)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        # lru_cache wrappers are not functions but carry cache_info
        is_callable = inspect.isfunction(obj) or hasattr(obj, "cache_info")
        if is_callable and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Records spans around the public probstirling API of one process."""

    def __init__(self):
        self.names: list[str] = []
        # one entry per call: [name index, start ns, end ns, parent index, run id, outermost]
        self.spans: list[list] = []
        self.run_id = 0
        self.repeats: Counter = Counter()
        self.yielded: Counter = Counter()
        self.mc_samples = 0
        self.mc_nonfinite = 0
        self.caches: dict[str, object] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every public function of the probstirling modules."""
        package = importlib.import_module("probstirling")
        modules = [importlib.import_module(f"probstirling.{m}") for m in MODULES]
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, fn in _public_functions(module):
                qualname = f"{short}.{attr}"
                if hasattr(fn, "cache_info"):
                    self.caches[qualname] = fn
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(qualname, fn)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    setattr(module, attr, wrappers[id(value)])

    def _wrap(self, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qualname, fn)
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        depth = [0]
        seen = set() if qualname in REPEAT_TRACKED else None
        observe = self._observe_estimate if qualname == "montecarlo.estimate_sum_moment" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                key = (args, tuple(kwargs.items()))
                if key in seen:
                    tracer.repeats[qualname] += 1
                else:
                    seen.add(key)
            span = [name_id, 0, 0, stack[-1] if stack else -1, tracer.run_id, depth[0] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[0] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[0] -= 1
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _wrap_generator(self, qualname: str, fn):
        depth = [0]
        yielded = self.yielded

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            # this body first runs when the caller starts iterating, so a
            # recursive inner call sees the outer one's depth
            outermost = depth[0] == 0
            inner = fn(*args, **kwargs)
            while True:
                depth[0] += 1
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    depth[0] -= 1
                if outermost:
                    yielded[qualname] += 1
                yield item

        return counted

    def _observe_estimate(self, estimate) -> None:
        self.mc_samples += estimate.samples
        if not (math.isfinite(estimate.mean) and math.isfinite(estimate.stderr)):
            self.mc_nonfinite += 1

    def summary(self) -> dict:
        """Per-module and per-function aggregates of the recorded spans."""
        spans = self.spans
        covered = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for index, (name_id, start, end, _, _, outermost) in enumerate(spans):
            name = self.names[name_id]
            self_s[name] += (end - start - covered[index]) / 1e9
            calls[name] += 1
            if outermost:
                total_s[name] += (end - start) / 1e9
        module_self: Counter = Counter()
        for name, seconds in self_s.items():
            module_self[name.partition(".")[0]] += seconds

        out = {"spans": len(spans)}
        out.update({f"{module}.self_s": module_self[module] for module in MODULES})
        out.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
        out.update({f"{name}.total_s": total_s[name] for name in TOTALS})
        for name in ("distributions.shifted_sum_moment", "series.series_mul"):
            out[f"{name}.self_s"] = self_s[name]
        for name in REPEAT_TRACKED:
            out[f"{name}.repeat_ratio"] = self.repeats[name] / calls[name] if calls[name] else 0.0
        for name in CACHES:
            info = self.caches[name].cache_info()
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
        out["exact_core.weak_compositions.yielded"] = self.yielded["exact_core.weak_compositions"]
        out["sums.reports"] = calls["sums.make_report"]
        mc_time = total_s["montecarlo.estimate_sum_moment"]
        out["montecarlo.samples_per_s"] = self.mc_samples / mc_time if mc_time else 0.0
        out["montecarlo.nonfinite"] = self.mc_nonfinite
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line: name, start_ns, end_ns, parent, run_id."""
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\trun_id\n")
            for name_id, start, end, parent, run_id, _ in self.spans:
                out.write(f"{names[name_id]}\t{start}\t{end}\t{parent}\t{run_id}\n")
