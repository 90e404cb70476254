"""Outside-in span tracer for the cpcshuffle benchmark.

The tracer replaces public functions of the package with wrappers that
record one span per call: name, start, end and the index of the span
that was open when the call began.  Spans stay in memory until the run
ends.  Because modules import each other's functions by name (`channel`
holds its own reference to `encode_partition`, `cli` to
`brute_force_min`), every namespace that holds the original function
object is patched, and `restore` puts every original back.

Nothing in the package is edited: the wrappers see only arguments and
return values, so counts that are not call counts are derived from
those (for example XOR bytes from message payload lengths).
"""

from __future__ import annotations

import time
from typing import Callable

# A span is [name, start, end, parent index or -1]; a list, so the
# wrapper can fill in the end time after the call returns.
Span = list


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """A wrapper of `fn` that records a span named `name` per call.

        `after(tracer, args, kwargs, result)` runs once the span has ended,
        to derive counts from the call; its cost lands in the parent span.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, namespaces: list, targets: dict[str, tuple]) -> None:
        """Patch each target in every namespace that holds it.

        `targets` maps a span name to (owner namespace, attribute name,
        `after` hook or None).
        """
        for name, (owner, attr, after) in targets.items():
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, after)
            for ns in namespaces:
                holders = [k for k, v in vars(ns).items() if v is original]
                for key in holders:
                    self._patched.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def restore(self) -> None:
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name.

        A span's self time is its duration minus the durations of the
        spans whose parent it is.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _parent), inner in zip(self.spans, child):
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        return self_time, calls

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, parent, name, start, end."""
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
