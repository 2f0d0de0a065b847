"""Spans around the package's public functions, recorded from outside it.

Every public function of the traced modules is wrapped in each module
namespace that binds it, since modules import one another's functions by
name. A span records (instance, parent span, name, start, end); spans stay
in memory until the run ends. Counters are read off return values.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

TRACED_MODULES = ("cli", "quivers", "ranks", "peg", "si", "matching", "oracle")

# counters read off return values, by span name
COUNTERS: dict[str, dict[str, Callable]] = {
    "matching.presentation": {"relations": lambda r: len(r.relations)},
    "matching.build_graph": {"solid_edges": lambda r: len(r.solid_edges)},
    "matching.enumerate_strings": {"walks": len},
    "matching.enumerate_bands": {"walks": len},
    "matching.enumerate_irreducible_walks": {"walks": len},
    "oracle.enumerate_points": {"points": len},
    "oracle.toric_relations_bruteforce": {"relations": len},
    "ranks.maximal_rank_sequences": {"sequences": len},
    "si.si_presentation": {"generators": lambda r: len(r.generators)},
    "peg.build_peg": {"roots": lambda r: len(r.roots)},
    "peg.extract_matching_system": {"equations": lambda r: r.system.m},
}

ROOT = "instance"


class Tracer:
    def __init__(self, mods):
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.instance = 0
        self.scale: dict[int, float] = {}  # instance -> factor for its span times
        self._stack: list[int] = []
        self._swaps = self._plan(mods)

    def _plan(self, mods) -> list[tuple]:
        """(module, attribute, original, wrapper) for every binding to wrap."""
        modules = {name: getattr(mods, name) for name in TRACED_MODULES}
        swaps = []
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for other in modules.values():
                    for name, val in vars(other).items():
                        if val is fn:
                            swaps.append((other, name, fn, wrapper))
        return swaps

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters = COUNTERS.get(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            for counter, read in counters.items():
                self.counts[name][counter] += read(result)
            return result

        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self.instance, parent, name, start, end)
            self.counts[name]["calls"] += 1

    def run_instance(self, fn: Callable):
        """Run fn as one traced instance: wrappers installed, a root span."""
        self.instance += 1
        for mod, attr, _, wrapper in self._swaps:
            setattr(mod, attr, wrapper)
        try:
            return self.call(ROOT, fn)
        finally:
            for mod, attr, original, _ in self._swaps:
                setattr(mod, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name in seconds, each instance's spans scaled."""
        child = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for sid, (inst, _, name, start, end) in enumerate(self.spans):
            own[name] += (end - start - child[sid]) * self.scale.get(inst, 1.0) / 1e9
        return own

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: span, instance, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,instance,parent,name,start_ns,end_ns\n")
            for sid, (inst, parent, name, start, end) in enumerate(self.spans):
                p = "" if parent is None else parent
                fh.write(f"{sid},{inst},{p},{name},{start},{end}\n")
