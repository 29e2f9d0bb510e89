"""In-memory layer tracer for the benchmark's traced run.

The tracer patches public callables of the ``repro`` package for the
duration of one traced repetition and restores them afterwards; nothing
inside ``src/`` knows it exists.  Two kinds of wrapper exist:

* **spans** for coarse calls (a trace build, an engine run, a runner
  batch, a claim evaluator): each call becomes one record with an id, its
  parent's id, start/end, and self time;
* **aggregates** for per-access calls (a DRAM request, a policy hook, an
  MDT update): each call only bumps a count, busy time and self time, so
  a million calls cost a million counter updates, not a million records.
  A generator method (the address stream) is timed per chunk of items.

Self time is a call's duration minus the part covered by wrapped calls
made inside it.  Every frame (span or aggregate) adds its duration to its
parent's covered time, so the self times of all layers plus the root's
self time add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice
from time import perf_counter


class Tracer:
    """Span records, per-layer aggregates and the patches that feed them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        # Open frames; each is [covered_s, span_id].  The root frame is
        # always present so every wrapper has a parent to charge.
        self._stack: list[list] = [[0.0, None]]
        # layer -> [calls, busy_s, self_s]
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._root_start = 0.0
        self.wall_s = 0.0

    # -- frames ----------------------------------------------------------------

    def _close(self, layer: str, frame: list, start: float) -> float:
        elapsed = perf_counter() - start
        self._stack.pop()
        cell = self.layers[layer]
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += elapsed - frame[0]
        self._stack[-1][0] += elapsed
        return elapsed

    @contextmanager
    def span(self, layer: str, **attrs):
        """Record one coarse call as a span under the innermost open span."""
        parent = next(
            (f[1] for f in reversed(self._stack) if f[1] is not None), None
        )
        span_id = len(self.spans)
        record = {"id": span_id, "parent": parent, "name": layer, **attrs}
        self.spans.append(record)
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield record
        finally:
            elapsed = self._close(layer, frame, start)
            record["start_s"] = start - self._root_start
            record["dur_s"] = elapsed
            record["self_s"] = elapsed - frame[0]

    @contextmanager
    def root(self):
        """The timed region; its self time is what no layer covers."""
        self._root_start = perf_counter()
        try:
            yield
        finally:
            self.wall_s = perf_counter() - self._root_start

    @property
    def root_self_s(self) -> float:
        return self.wall_s - self._stack[0][0]

    # -- wrappers --------------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def wrap_span(self, owner, name: str, layer: str, on_result=None) -> None:
        """Turn every call of ``owner.name`` into a span of ``layer``."""
        fn = owner.__dict__[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, name, wrapper)

    def wrap_aggregate(self, owner, name: str, layer: str, leaf: bool = False) -> None:
        """Count every call of ``owner.name`` into ``layer`` (no records).

        ``leaf`` skips the frame push for callables that make no wrapped
        call themselves, which halves the wrapper's cost per call.
        """
        fn = owner.__dict__[name]
        stack = self._stack
        cell = self.layers[layer]

        if leaf:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed
                    stack[-1][0] += elapsed

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[0]
                    stack[-1][0] += elapsed

        self._patch(owner, name, wrapper)

    def wrap_generator(self, owner, name: str, layer: str, chunk: int = 4096) -> None:
        """Charge a generator method's production time to ``layer``.

        Items are pulled ``chunk`` at a time and timed per chunk, so the
        timer costs two clock reads per chunk rather than per item.  The
        count is the number of items yielded; busy time excludes the
        consumer's loop body.  The generators wrapped here are pure, so
        running ahead of the consumer does not change what they yield.
        """
        fn = owner.__dict__[name]
        stack = self._stack
        cell = self.layers[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                items = list(islice(inner, chunk))
                elapsed = perf_counter() - start
                cell[0] += len(items)
                cell[1] += elapsed
                cell[2] += elapsed
                stack[-1][0] += elapsed
                if not items:
                    return
                yield from items

        self._patch(owner, name, wrapper)

    def wrap_dict_entries(self, mapping: dict, layer: str) -> None:
        """Wrap every callable value of ``mapping`` as a span of ``layer``."""
        for key, fn in list(mapping.items()):

            def wrapper(*args, _fn=fn, _key=key, **kwargs):
                with self.span(layer, key=_key):
                    return _fn(*args, **kwargs)

            self._patches.append((mapping, key, fn))
            mapping[key] = wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.layers[layer][0] if layer in self.layers else 0

    def busy_s(self, layer: str) -> float:
        return self.layers[layer][1] if layer in self.layers else 0.0

    def self_s(self, layer: str) -> float:
        return self.layers[layer][2] if layer in self.layers else 0.0


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager call."""

    @contextmanager
    def span(self, layer: str, **attrs):
        yield {}
