"""Span tracer that times library layers from outside the library.

The benchmark's traced run replaces public methods and functions of the
library with thin wrappers (and puts the originals back afterwards), so
no code under ``src/`` knows it is being measured.  Each wrapped call is
a span.  A span's *self* time is its duration minus the time of spans
that ran inside it on the same thread, so the self times of nested
layers add up to the time of the outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    """Per-name call counts, inclusive and self seconds, plus additive
    ``counts`` and running-maximum ``peaks`` that hooks fill in."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.spans = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, t0: float, t1: float) -> None:
        stack = self._stack()
        children = stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1] += duration
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - children
            self.spans += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        self._stack().append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0, time.perf_counter())

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``hook(args, kwargs, result, t0, t1)`` runs after each call that
        returns, for layer counts that need the arguments or result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._stack().append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._close(name, t0, t1)
            if hook is not None:
                hook(args, kwargs, result, t0, t1)
            return result

        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patches:
            owner, attr, before = self._patches.pop()
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Copy of the counters, for differences around a timed part."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "peaks": dict(self.peaks),
                "spans": self.spans,
            }

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """Counters accrued between two snapshots (peaks as of ``after``)."""
        out = {
            key: {k: v - before[key].get(k, 0) for k, v in after[key].items()}
            for key in ("calls", "total_s", "self_s", "counts")
        }
        out["peaks"] = dict(after["peaks"])
        out["spans"] = after["spans"] - before["spans"]
        return out


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one traced span adds to a call, measured in this process
    by timing a wrapped no-op against the bare one."""

    class _Probe:
        def noop(self):
            return None

    probe = _Probe()
    bare = min(_time_calls(probe.noop, samples) for _ in range(3))
    tracer = Tracer()
    tracer.wrap(_Probe, "noop", "probe")
    try:
        traced = min(_time_calls(probe.noop, samples) for _ in range(3))
    finally:
        tracer.uninstall()
    return max(0.0, (traced - bare) / samples)


def _time_calls(fn, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - t0
