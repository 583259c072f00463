"""A speed reference for timing on a host whose CPU speed drifts.

On the 2-core machine this benchmark was defined on, the same pure-Python
work runs up to 1.9x slower for stretches of a fraction of a second to a
minute (the probe below reads about 0.9 ms or about 1.7 ms, rarely in
between), while process CPU time tracks wall time exactly -- the core
itself slows (a busy sibling or host contention), and no steal time is
reported.  Run lengths
within the benchmark's budget cannot average that out.

So every timed stage is bracketed by probes of a fixed reference kernel,
re-measured at most every ``STALE_NS``, and its wall time is scaled by
``REF_PROBE_NS / probe``: a stage that took 10 ms while the probe ran at
twice its reference time is reported as 5 ms.  The kernel is built from
the operations the program spends its time on (frozen-dataclass values,
float math, small dicts, canonical JSON, sha256) but calls no causalloop
code, so a change to the program cannot move it.  Raw wall times are kept
beside the scaled ones in the results file.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

REF_PROBE_NS = 1_450_000  # probe time that defines reported speed (typical on the defining machine)
STALE_NS = 50_000_000  # re-probe when the last probe is older than this
PROBE_REPEATS = 3  # a probe is the fastest of this many kernel runs


@dataclass(frozen=True)
class _Vec:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


def kernel() -> float:
    table: dict[int, _Vec] = {}
    acc = 0.0
    for i in range(400):
        x = i * 1e-3
        v = _Vec((x, math.tanh(x), x * x))
        table[i & 63] = v
        other = table.get((i * 7) & 63)
        if other is not None:
            acc += sum(a * b for a, b in zip(v.values, other.values))
    blob = json.dumps({"acc": acc, "row": [1.5, 2.25]}, sort_keys=True).encode()
    return acc + len(hashlib.sha256(blob).hexdigest())


class Speed:
    """Probes the reference kernel and scales wall times by its speed."""

    def __init__(self) -> None:
        self.probes: list[int] = []
        self._probe_ns = 0
        self._at_ns = 0

    def probe_ns(self) -> int:
        """The current probe time, measured again if the last one is stale."""
        now = time.perf_counter_ns()
        if not self.probes or now - self._at_ns > STALE_NS:
            best = None
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter_ns()
                kernel()
                took = time.perf_counter_ns() - start
                best = took if best is None else min(best, took)
            self._probe_ns, self._at_ns = best, time.perf_counter_ns()
            self.probes.append(best)
        return self._probe_ns

    def scale(self, wall_ns: int, probe_before: int, probe_after: int) -> float:
        """Wall time in ns at the reference speed."""
        return wall_ns * REF_PROBE_NS / ((probe_before + probe_after) / 2)

    def scale_span(self, wall_ns: int, mark: int, probe_before: int) -> float:
        """Like :meth:`scale`, for a span that timed operations of its own.

        ``mark`` is ``len(self.probes)`` when the span began.  The speed can
        switch several times in a span of seconds, so the span is scaled by
        the mean of every probe taken in it, not by its two ends.
        """
        probes = [probe_before, *self.probes[mark:], self.probe_ns()]
        return wall_ns * REF_PROBE_NS / (sum(probes) / len(probes))
