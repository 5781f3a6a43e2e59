"""Span tracing for the benchmark's traced runs.

`Tracer.install` wraps every public function of the tourney modules, plus
`Tournament.__init__` and the methods of `EmpiricalDistribution`, and binds
the wrapper wherever a module holds the function, so internal calls
(`brouwer_order` -> `find_obstruction`) and imported names
(`analysis.quad_counts`) are seen too.  Each call records a span: layer
name, start, end, parent span, an optional work count and, while
`tracemalloc` is tracing, the peak of `tracemalloc`'s traced memory above its value at
entry (numpy buffers included).  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

MODULES = ("core", "generators", "counting", "loctrans", "analysis", "io", "cli")

# layers that gather several functions under one name
ALIASES = {
    "analysis.quasi_carousel_report": "analysis.report",
    "analysis.quasi_random_report": "analysis.report",
}

# units of work a call does, for the rates: (args, kwargs) -> count
WORK = {
    "counting.quad_counts": lambda a, kw: math.comb(a[0].n, 4),
    "counting.arc_flag_count_arrays": lambda a, kw: math.comb(a[0].n, 2),
    "counting.sampled_quad_densities": lambda a, kw: kw.get("samples", a[1] if len(a) > 1 else 0),
    "io.loads_trn": lambda a, kw: len(a[0]),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the same span list, -1 for a root
    base: int            # traced bytes at entry
    peak: int            # highest traced bytes while open
    work: int = 0


class Tracer:
    """Records spans, with peak memory while `tracemalloc` is tracing."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []        # indices of the spans now open, innermost last
        self._patches: list = []     # (owner, attribute, original)

    # ----- recording -----

    def _fold_peak(self) -> int:
        """Credit the traced peak since the last reading to every open span;
        return the bytes traced now."""
        if not tracemalloc.is_tracing():
            return 0
        cur, peak = tracemalloc.get_traced_memory()
        for i in self._open:
            if peak > self.spans[i].peak:
                self.spans[i].peak = peak
        tracemalloc.reset_peak()
        return cur

    @contextmanager
    def span(self, name: str, work: int = 0):
        cur = self._fold_peak()
        s = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, cur, cur, work)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._fold_peak()
            self._open.pop()

    def _wrap(self, layer: str, fn):
        work = WORK.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, work(args, kwargs) if work else 0):
                return fn(*args, **kwargs)

        return traced

    # ----- installing -----

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the package's public functions wherever its modules bind them."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    layer = f"{short}.{name}"
                    wrapped[obj] = self._wrap(ALIASES.get(layer, layer), obj)
        for mod in (package, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        cls = mods["core"].Tournament
        self._patch(cls, "__init__", self._wrap("core.Tournament", cls.__init__))
        cls = mods["counting"].EmpiricalDistribution
        for name, obj in list(vars(cls).items()):
            if isinstance(obj, property):
                self._patch(cls, name, property(self._wrap("counting.EmpiricalDistribution",
                                                           obj.fget)))
            elif inspect.isfunction(obj) and (name == "__post_init__" or not name.startswith("_")):
                self._patch(cls, name, self._wrap("counting.EmpiricalDistribution", obj))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


@dataclass
class Layer:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    peak_bytes: int = 0
    work: int = 0


def layers(*span_lists) -> dict:
    """Per-layer self time, inclusive time, calls, peak memory and work.

    Each list holds one tree of spans (parents index into the same list).
    A span's self time is its duration minus the durations of its children;
    calls run one at a time, so children never overlap.  Inclusive time
    counts only spans with no same-named ancestor, so a method that calls
    another of its layer is not counted twice.
    """
    out = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        for i, s in enumerate(spans):
            lay = out.setdefault(s.name, Layer())
            lay.self_s += (s.end - s.start) - child[i]
            lay.calls += 1
            lay.peak_bytes = max(lay.peak_bytes, s.peak - s.base)
            p = s.parent
            while p >= 0 and spans[p].name != s.name:
                p = spans[p].parent
            if p < 0:
                lay.total_s += s.end - s.start
                lay.work += s.work
    return out
