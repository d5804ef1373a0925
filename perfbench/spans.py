"""In-memory span recorder that wraps hellycert's public functions.

A traced run replaces, in every ``hellycert`` module, each attribute that *is*
one of the functions listed in ``TRACED``, so a function is traced however it
was imported (``lp.solve_lp``, ``geometry.solve_lp``, ``pipeline.solve_lp``
all become the same wrapper). Spans stay in memory; ``write_jsonl`` saves them
when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Defining module -> public functions whose calls become spans. The span name
# is "<module>.<function>" whichever import site the call went through.
TRACED = {
    "lp": ("solve_lp", "support_h_polytope"),
    "geometry": ("containment_factor", "chebyshev_center",
                 "normalize_family"),
    "john": ("mvee_general", "mvee_centered", "john_decomposition"),
    "sparsify": ("bss_select", "shifted_select", "certify_operator_T"),
    "linalg": ("sym_eigen",),
    "pipeline": ("select_symmetric", "select_general", "reduce_to_2n",
                 "caratheodory_express"),
    "oracle": ("circumradius_exact", "enumerate_vertices"),
    "io": ("verify_certificate", "certificate_to_json"),
}

# A containment support LP can set alpha only when its value exceeds this.
USEFUL_SUPPORT = 1.0 + 1e-9


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    instance: str | None
    value: float | None = None


def hellycert_modules():
    """The package and every submodule, imported."""
    pkg = importlib.import_module("hellycert")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"hellycert.{info.name}"))
    return mods


@dataclass
class Tracer:
    """Records one span per call of a wrapped function or a ``span`` block."""

    spans: list = field(default_factory=list)
    instance: str | None = None
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0, 0, parent, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if isinstance(result, float):
                span.value = result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> int:
        """Wrap every import site of the TRACED functions; return the count."""
        mods = hellycert_modules()
        by_name = {m.__name__: m for m in mods}
        wrappers = {}
        for short, names in TRACED.items():
            home = by_name[f"hellycert.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrappers[id(original)] = (original,
                                          self._wrap(f"{short}.{fname}",
                                                     original))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent,
                    "instance": s.instance, "value": s.value}) + "\n")


def unwrapped_sites() -> list:
    """(module, attribute) pairs still holding an original TRACED function."""
    mods = hellycert_modules()
    by_name = {m.__name__: m for m in mods}
    originals = set()
    for short, names in TRACED.items():
        for fname in names:
            fn = getattr(by_name[f"hellycert.{short}"], fname)
            originals.add(id(getattr(fn, "__wrapped__", fn)))
    return [(m.__name__, attr) for m in mods
            for attr, value in vars(m).items()
            if id(value) in originals]


def self_times(spans) -> list:
    """Per span: duration minus what its child spans cover, in ns.

    Wrapped calls run one at a time, so children of one span never overlap
    and their durations can be summed.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_totals(spans):
    """Totals per span name: calls, busy ns, self ns.

    Busy time counts a span only when no ancestor has the same name, so a
    function that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(int)
    own = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        own[s.name] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            busy[s.name] += s.end - s.start
    return calls, busy, own


def useful_support_ratio(spans) -> float:
    """Share of support LPs under containment_factor that can set alpha."""
    useful = total = 0
    for s in spans:
        if (s.name == "lp.support_h_polytope" and s.parent >= 0
                and spans[s.parent].name == "geometry.containment_factor"):
            total += 1
            if s.value is not None and (math.isinf(s.value)
                                        or s.value > USEFUL_SUPPORT):
                useful += 1
    return useful / total if total else 0.0


def child_count(spans, parent_name: str, child_name: str) -> int:
    return sum(1 for s in spans if s.name == child_name and s.parent >= 0
               and spans[s.parent].name == parent_name)
