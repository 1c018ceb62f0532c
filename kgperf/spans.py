"""In-memory span recorder for the traced run.

Spans are recorded only around calls the benchmark makes or around public
module attributes it wraps for the duration of a replay; nothing inside the
engine is changed.  Spans nest on one thread, so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child_total]
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            dur = time.perf_counter() - frame[1]
            self._stack.pop()
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += dur

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until ``restore``.
        ``after(args, result)`` runs outside the span, for counting."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = orig(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
