"""Span recording from outside the program.

A `Tracer` temporarily rebinds public functions of the `cloudsched`
modules to wrappers that record one span per call: its name, start, end
and the span that was open when it started.  Every module namespace that
holds the function object is rebound, whatever name it is bound under
(`scheduler` calls `datacenter.snapshot` as `dc_snapshot`), and every
binding is put back when the tracer is uninstalled.  Spans stay in memory
until `write` saves them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterable

# (args, kwargs, result, counters) -> None; counts work where it happens.
Observer = Callable[[tuple, dict, object, dict], None]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code (a root span)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, observe: Observer | None):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, kwargs, result, self.counters)
            return result

        return traced

    def install(self, targets: Iterable[tuple[str, str, str, Observer | None]]) -> None:
        """Rebind each (span name, module, attribute, observer) target."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cloudsched" or n.startswith("cloudsched."))
        ]
        for name, module_name, attr, observe in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bindings.append((module, key, original))

    def uninstall(self) -> None:
        while self._bindings:
            module, key, original = self._bindings.pop()
            setattr(module, key, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its child spans cover (ns).

        The program is single-threaded, so a span's children run one after
        another inside it and never overlap: the covered part is the sum
        of the children's durations.
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write(self, path) -> None:
        """Save the spans as gzipped JSON columns (names are indexed)."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        doc = {
            "names": table,
            "name": [index[n] for n in self.names],
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
