"""Span tracing from outside the program.

A :class:`Tracer` replaces a function at the name its caller looks it up
under (``causalloop.reflect.rollout`` and ``causalloop.agent.rollout`` are
separate sites), so each call records a span attributed to its caller.
Spans live in flat in-memory columns -- id, parent, name, start, end,
episode -- stamped with ``time.perf_counter_ns``; nothing is written until
:meth:`Tracer.dump`.  :meth:`Tracer.uninstall` restores every original, so
an untraced run carries no wrappers.

The program is single-threaded, so no span ever waits on another: time is
either a span's own (self) time or covered by its children.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable

# on_return(counters, args, kwargs, result) runs after a successful call.
OnReturn = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.episodes: list[str] = []
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.episode_ids = array("q")
        self.counters: dict[str, Counter] = defaultdict(Counter)  # stage -> counts
        self.stage = ""
        self._episode = 0
        self._stack = [0]  # 0 is the root: a span with parent 0 has no parent
        self._next_id = 1
        self._patched: list[tuple[Any, str, Any]] = []

    # -- context ---------------------------------------------------------

    def begin(self, episode: str, stage: str) -> None:
        """Tag the spans and counts that follow with an episode id and a stage."""
        self.episodes.append(episode)
        self._episode = len(self.episodes) - 1
        self.stage = stage

    # -- installation ----------------------------------------------------

    def wrap(self, module: Any, attr: str, name: str, on_return: OnReturn | None = None) -> None:
        original = getattr(module, attr)
        self.names.append(name)
        name_id = len(self.names) - 1
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.ids.append(span_id)
                tracer.parents.append(parent)
                tracer.name_ids.append(name_id)
                tracer.starts.append(start)
                tracer.ends.append(end)
                tracer.episode_ids.append(tracer._episode)
            if on_return is not None:
                on_return(tracer.counters[tracer.stage], args, kwargs, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------

    def spans(self) -> list[tuple[int, int, str, int, int]]:
        """(id, parent, name, start_ns, end_ns) for every recorded span."""
        return [
            (i, p, self.names[n], s, e)
            for i, p, n, s, e in zip(self.ids, self.parents, self.name_ids, self.starts, self.ends)
        ]

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns."""
        return span_totals(self.spans())

    def counts(self) -> Counter:
        """Counters summed over every stage."""
        out: Counter = Counter()
        for c in self.counters.values():
            out.update(c)
        return out

    def dump(self, path: str) -> None:
        payload = {
            "names": self.names,
            "episodes": self.episodes,
            "columns": ["id", "parent", "name", "start_ns", "end_ns", "episode"],
            "spans": [
                list(col)
                for col in (
                    self.ids,
                    self.parents,
                    self.name_ids,
                    self.starts,
                    self.ends,
                    self.episode_ids,
                )
            ],
            "counters": {stage: dict(c) for stage, c in self.counters.items()},
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def span_totals(spans: list[tuple[int, int, str, int, int]]) -> dict[str, dict[str, int]]:
    """Calls, inclusive ns and self ns per span name.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (overlapping children are merged, and children are
    clipped to the parent's interval).
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for span_id, _, name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = out[name]
        row["calls"] += 1
        row["ns"] += end - start
        row["self_ns"] += end - start - covered
    return dict(out)
