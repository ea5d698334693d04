"""Span tracing of the msinoise layers, applied from outside the package.

A `Tracer` keeps one span stack per thread and aggregates, per span name,
the number of calls, the inclusive time and the self time (inclusive time
minus the time covered by child spans on the same thread).  `instrumented`
wraps named package functions under every name that binds them inside the
package, including module-level dict registries such as
``verify.CHECK_NAMES``, and restores every binding on exit.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-name call counts, inclusive and self time of nested spans.

    Each thread records into its own stack and tallies, so the hot path
    takes no lock; the properties merge the tallies of every thread.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            # (span stack, calls, inclusive seconds, self seconds)
            state = ([], defaultdict(int), defaultdict(float), defaultdict(float))
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def enter(self) -> None:
        # frame: [start, time covered by finished child spans]
        self._state()[0].append([self._clock(), 0.0])

    def exit(self, name: str) -> None:
        stack, calls, total_s, self_s = self._state()
        start, children = stack.pop()
        duration = self._clock() - start
        if stack:
            stack[-1][1] += duration
        calls[name] += 1
        total_s[name] += duration
        self_s[name] += duration - children

    def _merged(self, index: int) -> dict:
        merged = defaultdict(int)
        with self._lock:
            for state in self._threads:
                for name, value in state[index].items():
                    merged[name] += value
        return dict(merged)

    @property
    def calls(self) -> dict:
        return self._merged(1)

    @property
    def total_s(self) -> dict:
        return self._merged(2)

    @property
    def self_s(self) -> dict:
        return self._merged(3)

    @contextmanager
    def span(self, name: str):
        self.enter()
        try:
            yield
        finally:
            self.exit(name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name)

        return traced


def _package_namespaces(package: str) -> list[dict]:
    """Module dicts of the imported package, plus their module-level dicts."""
    spaces = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (
            mod_name == package or mod_name.startswith(package + ".")
        ):
            continue
        namespace = vars(module)
        spaces.append(namespace)
        spaces.extend(v for v in list(namespace.values()) if type(v) is dict)
    return spaces


@contextmanager
def instrumented(tracer: Tracer, targets, package: str = "msinoise"):
    """Trace each ``"<module>.<function>"`` of ``package`` while active.

    Yields the list of targets that no longer exist; they are reported,
    not fatal.  Every replaced binding is put back on exit, also when the
    body raises.
    """
    absent = []
    patches = []
    try:
        originals = {}
        for target in targets:
            mod_name, fn_name = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                absent.append(target)
                continue
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                absent.append(target)
                continue
            originals[id(fn)] = (fn, tracer.wrap(target, fn))
        for namespace in _package_namespaces(package):
            for key, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((namespace, key, value))
                    namespace[key] = hit[1]
        yield absent
    finally:
        for namespace, key, original in reversed(patches):
            namespace[key] = original
