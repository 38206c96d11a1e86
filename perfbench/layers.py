"""Timing wrappers the traced run installs around each layer's public
functions.

A :class:`LayerTimers` replaces a function (or method, classmethod, or
coroutine method) by a wrapper that counts calls and accumulates wall
seconds under a layer name, then restores the original on
:meth:`LayerTimers.restore`.  Nested wrapped calls are charged to the
innermost layer only in ``self_s`` (``total_s`` keeps the inclusive
time), so layers never double-count one another.  A function returning a
generator is timed through consumption — each resumption is a timed
step — not through the call that merely creates it.

The wrappers see calls made in this process only: work that forked
workers do is measured by the program's own tracer instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


class LayerTimers:
    """Counts and times calls per layer; see the module docstring."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        #: ``(layer, start, end, self seconds)`` per call or step.
        self.intervals: list = []
        self._stack: list = []
        self._patched: list = []

    # ------------------------------------------------------------ timing

    def _enter(self) -> list:
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        elapsed = end - frame[0]
        own = elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        self.total_s[layer] += elapsed
        self.self_s[layer] += own
        self.intervals.append((layer, frame[0], end, own))

    def timed(self, layer: str, fn):
        """``fn`` wrapped so each call (or generator step) is timed."""
        timers = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def coroutine_wrapper(*args, **kwargs):
                timers.calls[layer] += 1
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    timers.total_s[layer] += end - start
                    timers.intervals.append((layer, start, end, end - start))
            return coroutine_wrapper

        def step(gen):
            while True:
                frame = timers._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    timers._exit(layer, frame)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timers.calls[layer] += 1
            frame = timers._enter()
            try:
                value = fn(*args, **kwargs)
            finally:
                timers._exit(layer, frame)
            if inspect.isgenerator(value):
                return step(value)
            return value
        return wrapper

    # ---------------------------------------------------------- patching

    def patch(self, owner, name: str, layer: str) -> None:
        """Replace ``owner.name`` (a module or class attribute) by its
        timed wrapper; classmethods stay classmethods."""
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.timed(layer, raw.__func__))
        else:
            replacement = self.timed(layer, raw)
        self._patched.append((owner, name, raw))
        setattr(owner, name, replacement)

    def patch_everywhere(self, fn, layer: str, package: str = "repro") -> int:
        """Wrap ``fn`` at every module of ``package`` that imported it
        by name, so call sites that bound it at import time are timed
        too.  Returns how many sites were patched."""
        wrapped = self.timed(layer, fn)
        sites = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                    sites += 1
        return sites

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)

    # ----------------------------------------------------------- queries

    def self_within(self, layer: str, windows) -> float:
        """Self seconds of ``layer`` calls that started inside any of the
        ``(begin, end)`` windows."""
        ordered = sorted(windows)
        total = 0.0
        for name, start, _end, own in self.intervals:
            if name != layer:
                continue
            for begin, end in ordered:
                if begin <= start <= end:
                    total += own
                    break
        return total
