"""The agent's predictive model: a hypothesized graph plus a delta estimate.

The model mirrors the world's additive per-edge semantics.  Applied to one
(state, action, time, delta) point it yields per-horizon predictions; to
predict what the *next observation* will be inside an episode it resolves
each edge's source value at the lagged cause tick from recorded history,
exactly as the world's delayed-effect queue would.  With the true graph,
delta_hat = 0 and no noise, those one-step predictions reproduce the world
up to rounding (the world adds each landing effect to the state in queue
order, the model sums a target's effects first) -- the oracle-equivalence
tests lean on that, at 1e-9.

Every lag-resolved prediction follows one rule: each target's change
accumulates from 0.0 in graph edge order, each term computed as
``coefficient * feature * scale``, left to right, and the change is then
added to the recorded state once.  ``predict_next`` applies it to the live
tick and is the one lenient prediction: a lag that is unrecorded drops its
term.  Teacher-forced prediction over recorded rows applies it through one
strict lagged-feature kernel, ``_LagFeatures``, built for a fixed
(history, rows) pair: it caches each (source, delay, form) feature column
over the rows and predicts any (graph, delta_hat) -- or any per-target
edge lists, as the repair loop's candidate edits are -- from those
columns, leaving out a row with an unrecorded lag.  ``rollout``, ``fit``,
the scheduled fit's holdout gate and the repair loop's residuals, scoring
and testing all read it; reflect acts on the mismatch the live loop
measured with ``predict_next``.

A history is one run of consecutive ticks (:func:`append_history`
refuses anything else; capacity trims and structural breaks keep
suffixes), held as a :class:`History`: a ``(start, end)`` view into an
append-only :class:`_Buffer` of transitions that later histories share.
Appends are list appends; the buffer turns the rows appended since its
last conversion into numpy arrays in bulk when a kernel reads them, so a
kernel over rows of the same buffer reads each feature column as one
slice, with no per-row loop and no per-row tick check.  A sequence of
transitions given as a history is converted once (and refused unless it is
one run), so there is one column path.  ``predict_next`` walks the graph's
``plan`` (:attr:`causalloop.world.CausalGraph.plan`, one plain tuple per
edge) and reads each of its few lags by position in the view: tick q sits
at buffer place ``q - tick0``.  The scheduled fit builds one kernel over
its window, and its holdout gate reads both models' errors from that
kernel's last rows.

Traces record predictions and scores and replays compare them exactly, so
the arithmetic is fixed, in Python loops and numpy arrays alike:

* the rule above, in that order: on arrays, slot w of each target is its
  w-th edge's ``coefficient * column``, then ``* scale`` (skipped at scale
  1.0, since ``x * 1.0`` is ``x``), and slots add one whole array at a
  time;
* a squared error is Python ``(o - p) ** 2`` or, on arrays,
  ``np.float_power(o - p, 2.0)``: both call the C library's ``pow``.  That
  ``pow`` is not always correctly rounded, while numpy's ``x * x``,
  ``x ** 2`` and ``np.power`` are (or are vectorised apart from it); they
  differ on about one double in a thousand;
* a tanh feature is ``math.tanh``, element by element, once per buffer
  row; ``np.tanh`` differs on about one double in four.  A quadratic one
  is ``x * x``, which numpy rounds as Python does;
* every sum -- a target's edge effects, a row's squared errors over
  dimensions, a score or a mean over rows -- adds left to right from 0.0:
  a Python loop or ``map(operator.add, ...)``, or ``np.add.accumulate``
  along an axis from a leading 0.0.  Never the builtin ``sum``, which
  compensates rounding since Python 3.12, nor ``np.sum``, which adds
  pairwise;
* a masked entry -- a column's unrecorded lag, a row left out of a mean --
  holds or adds 0.0, which equals skipping it: a sum that starts at +0.0
  never holds -0.0, and ``coefficient * 0.0 * scale`` is a zero.  The
  row's mask, not its value, says that it was left out.

A row's squared errors summed and divided by d_state is
:func:`causalloop.core.loss`'s epsilon to the bit: ``p - o`` is exactly
``-(o - p)`` and ``pow`` of a negated base to an even integer power is the
same double.

Coefficient fitting is plain per-dimension ordinary least squares on
lagged features (numpy.linalg.lstsq), one path for the scheduled fit and a
structural break's refit.  The scheduled fit deliberately treats delta_hat
as zero, so coefficients own persistent scale and delta_hat only ever
carries transient residual scaling.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CausalTuple,
    DegenerateDataError,
    DimensionError,
    DomainError,
    InputError,
    NotEnoughDataError,
    NotIdentifiableError,
    Perturbation,
    StateVec,
    Transition,
    DELTA_MAX,
    check_finite,
)
from .scenario import canonical_json, graph_from_dict, graph_to_dict, json_number, json_typed
from .world import CausalEdge, CausalGraph, Form, SourceKind, VarRef


_NO_ROWS = np.zeros(0)


class _Buffer:
    """The transitions of one run of ticks from ``tick0``, appended in place.

    ``rows`` only grows, so every history over it stays as it was.  Their
    values become numpy arrays in bulk, when a kernel asks for them: each
    call converts only the rows appended since the last one.
    """

    __slots__ = ("rows", "tick0", "_done", "_values", "_tanh")

    def __init__(self, rows: list[Transition]) -> None:
        self.rows = rows
        self.tick0 = rows[0].tuple.time.tick if rows else 0
        self._done = 0  # rows converted so far
        self._values: list[np.ndarray] = []
        self._tanh: dict[tuple[bool, int], np.ndarray] = {}

    def values(self, part: int) -> np.ndarray:
        """The rows' states (``part`` 0), actions (1) or observations (2)
        as a (variables x capacity) array whose column i is row i."""
        n = len(self.rows)
        if self._done < n:
            new = self.rows[self._done :]
            parts = [
                np.array([tr.tuple.state.values for tr in new], dtype=float),
                np.array([tr.tuple.action.values for tr in new], dtype=float),
                np.array([tr.observed.values for tr in new], dtype=float),
            ]
            if not self._values or self._values[0].shape[1] < n:
                grown = [np.empty((p.shape[1], max(64, 2 * n))) for p in parts]
                for g, old in zip(grown, self._values):
                    g[:, : self._done] = old[:, : self._done]
                self._values = grown
            for v, p in zip(self._values, parts):
                v[:, self._done : n] = p.T
            self._done = n
        return self._values[part]

    def tanh(self, action: bool, index: int) -> np.ndarray:
        """``math.tanh`` of one source variable over the converted rows,
        each element computed once."""
        raw = self.values(1 if action else 0)[index]
        have = self._tanh.get((action, index), _NO_ROWS)
        if len(have) < self._done:
            more = map(math.tanh, raw[len(have) : self._done].tolist())
            have = self._tanh[(action, index)] = np.concatenate((have, np.fromiter(more, float)))
        return have


class History:
    """A run of consecutive ticks' transitions, read as the tuple of them.

    It is the rows ``[start, end)`` of an append-only :class:`_Buffer` that
    other histories may share.  :meth:`appended` adds a row to the buffer in
    place when this history ends at the buffer's end, and copies its rows
    to a new buffer otherwise, so no history ever changes; it trims to the
    capacity in the same step.  A slice (of step 1) is a history of the
    same buffer: a capacity trim or a structural break moves only
    ``start``.  A history whose start passed its length copies on its next
    append, so a buffer holds at most about twice its longest history.
    Length, indexing, slicing, iteration, ``+`` and ``==`` answer as the
    tuple would; :func:`as_history` converts any other sequence of
    transitions once.
    """

    __slots__ = ("_buf", "_start", "_end")

    def __init__(self, buf: _Buffer, start: int, end: int) -> None:
        self._buf = buf
        self._start = start
        self._end = end

    def __len__(self) -> int:
        return self._end - self._start

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self._end - self._start)
            if step != 1:
                return tuple(self)[i]
            return History(self._buf, self._start + start, self._start + max(start, stop))
        n = self._end - self._start
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("history index out of range")
        return self._buf.rows[self._start + i]

    def __iter__(self):
        return iter(self._buf.rows[self._start : self._end])

    def __reversed__(self):
        return reversed(self._buf.rows[self._start : self._end])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, History):
            if other._buf is self._buf and other._start == self._start and other._end == self._end:
                return True
            return len(self) == len(other) and tuple(self) == tuple(other)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: object) -> tuple:
        if isinstance(other, (tuple, History)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __radd__(self, other: object) -> tuple:
        if isinstance(other, tuple):
            return other + tuple(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"History({tuple(self)!r})"

    def appended(self, tr: Transition, capacity: int) -> History:
        """This history with ``tr`` last, keeping its newest ``capacity``
        entries; :class:`DomainError` unless ``tr`` comes one tick after the
        last entry (an empty history takes any)."""
        buf, start, end = self._buf, self._start, self._end
        if start == end:
            return History(_Buffer([tr]), max(0, 1 - capacity), 1)
        last = buf.tick0 + end - 1
        if tr.tuple.time.tick != last + 1:
            raise DomainError(f"tick {tr.tuple.time.tick} cannot follow tick {last} in a history")
        if end == len(buf.rows) and start <= end - start:
            buf.rows.append(tr)
            return History(buf, max(start, end + 1 - capacity), end + 1)
        rows = buf.rows[max(start, end + 1 - capacity) : end]
        rows.append(tr)
        return History(_Buffer(rows), max(0, len(rows) - capacity), len(rows))


def as_history(rows: Sequence[Transition]) -> History:
    """``rows`` as a :class:`History`: itself if it is one, else its
    transitions copied once.  :class:`DomainError` unless they are one run of
    consecutive ticks."""
    if isinstance(rows, History):
        return rows
    rows = list(rows)
    for prev, tr in zip(rows, rows[1:]):
        if tr.tuple.time.tick != prev.tuple.time.tick + 1:
            raise DomainError(
                f"history is not one run: tick {tr.tuple.time.tick} follows {prev.tuple.time.tick}"
            )
    return History(_Buffer(rows), 0, len(rows))


@dataclass(frozen=True)
class CausalModel:
    """A hypothesized graph, its delta estimate, the recorded history and
    the hyperparameters.  ``history`` is always a :class:`History`; any other
    sequence of transitions given for it is converted once."""

    graph: CausalGraph
    delta_hat: float = 0.0
    history: History = History(_Buffer([]), 0, 0)
    fit_window: int = 64
    sigma_lik: float = 1.0
    capacity: int = 256
    delta_max: float = DELTA_MAX

    def __post_init__(self) -> None:
        if type(self.history) is not History:
            object.__setattr__(self, "history", as_history(self.history))


@dataclass(frozen=True)
class Contribution:
    """One edge's predicted additive effect, landing ``horizon`` ticks out."""

    edge_index: int
    horizon: int
    target: int
    value: float


@dataclass(frozen=True)
class Prediction:
    """Single application of the model to one evaluation point."""

    tuple: CausalTuple
    horizon_states: dict[int, StateVec]
    contributions: tuple[Contribution, ...]


def append_history(m: CausalModel, tr: Transition) -> CausalModel:
    """``m`` with ``tr`` recorded last, keeping the newest ``capacity`` entries.

    ``tr`` must come one tick after the last entry, or :class:`DomainError`
    is raised; an empty history may start at any tick.
    """
    # The constructor, not ``dataclasses.replace``: this runs every tick.
    return CausalModel(
        graph=m.graph,
        delta_hat=m.delta_hat,
        history=m.history.appended(tr, m.capacity),
        fit_window=m.fit_window,
        sigma_lik=m.sigma_lik,
        capacity=m.capacity,
        delta_max=m.delta_max,
    )


# ---------------------------------------------------------------------------
# Single-application prediction
# ---------------------------------------------------------------------------


def counterfactual(m: CausalModel, t: CausalTuple, delta_prime: float | Perturbation) -> Prediction:
    """Model output at ``t`` under an alternative perturbation estimate.

    Horizons covered: 1 plus every distinct edge delay; the state at
    horizon k accumulates every contribution landing at or before k.
    """
    d = delta_prime.delta if isinstance(delta_prime, Perturbation) else float(delta_prime)
    if len(t.state) != m.graph.d_state or len(t.action) != m.graph.d_action:
        raise DimensionError("tuple dimensions do not match the model graph")
    scale = math.exp(-d)
    contribs: list[Contribution] = []
    for i, e in enumerate(m.graph.edges):
        v = t.action[e.source.index] if e.source.kind is SourceKind.ACTION else t.state[e.source.index]
        contribs.append(Contribution(i, e.delay, e.target, e.coefficient * e.form.apply(v) * scale))
    contribs.sort(key=lambda c: (c.horizon, c.target, c.edge_index))
    horizons = sorted({1} | {c.horizon for c in contribs})
    horizon_states: dict[int, StateVec] = {}
    for k in horizons:
        values = list(t.state.values)
        for c in contribs:
            if c.horizon <= k:
                values[c.target] += c.value
        horizon_states[k] = StateVec(tuple(values))
    return Prediction(tuple=t, horizon_states=horizon_states, contributions=tuple(contribs))


def predict(m: CausalModel, t: CausalTuple) -> Prediction:
    """Model output at ``t`` under the model's own delta_hat."""
    return counterfactual(m, t, m.delta_hat)


# ---------------------------------------------------------------------------
# In-episode (lag-resolved) prediction
# ---------------------------------------------------------------------------


def predict_next(m: CausalModel, current: CausalTuple) -> StateVec:
    """One-step-ahead prediction for the live loop, by the kernel's rule:
    each target's change accumulates from 0.0 in graph edge order as
    ``coefficient * feature * scale`` and is added to ``current``'s state
    once.

    Lags are read by position: the history is one run of ticks from its
    buffer's ``tick0`` (:class:`History`), so tick q sits at buffer place
    ``q - tick0`` and is recorded when that place is inside the view;
    ``current`` wins its own tick.  This is the one lenient rule: a missing
    lag (possible right after a history flush) contributes zero, where the
    strict kernel leaves the row out; the inaccuracy heals once fresh
    transitions accumulate.
    """
    h = m.history
    rows, tick0, start, end = h._buf.rows, h._buf.tick0, h._start, h._end
    now = current.time.tick
    scale = math.exp(-m.delta_hat)
    linear, tanh = Form.LINEAR, Form.TANH
    change = [0.0] * m.graph.d_state
    for reads_action, index, delay, target, coefficient, form in m.graph.plan:
        tick = now + 1 - delay
        if tick < 0:
            v = 0.0  # the world's queue starts empty: no effect from before tick 0
        else:
            if tick == now:
                tup = current
            else:
                at = tick - tick0  # its place in the buffer, which holds one run
                if not start <= at < end:
                    continue
                tup = rows[at].tuple
            v = (tup.action if reads_action else tup.state).values[index]
            if form is not linear:
                v = math.tanh(v) if form is tanh else v * v
        change[target] += coefficient * v * scale
    values = tuple(map(operator.add, current.state.values, change))
    return StateVec.checked(check_finite(values, "state"))


class _Target:
    """One state dimension's predictions over every row of a kernel.

    ``dead`` masks the rows a strict prediction leaves out for an unrecorded
    lag (None when there are none); ``sq`` is that dimension's squared
    errors, filled on first use.
    """

    __slots__ = ("pred", "dead", "finite", "sq")

    def __init__(self, pred: np.ndarray, dead: np.ndarray | None, finite: bool) -> None:
        self.pred = pred
        self.dead = dead
        self.finite = finite
        self.sq: np.ndarray | None = None


class _LagFeatures:
    """Strict lagged-feature kernel for one fixed ``(history, rows)`` pair.

    ``column(source, delay, form)`` holds ``form.apply(v)`` for each row,
    where ``v`` is the source's value at the row's tick + 1 - delay: 0.0
    before tick 0, masked where that tick is outside the history's run, and
    otherwise read from the history's buffer (:class:`History`).  Rows that
    are a history of the same buffer sit at consecutive buffer positions,
    so a column is one slice of the buffer's values, padded where it leaves
    the history; other rows are split into runs of consecutive ticks, a
    slice each, and their values converted once.  Columns are computed on
    first use and cached, so any number of graphs -- a working model and
    every candidate edit of it -- are predicted from one set of slices.  A
    prediction leaves out each row where a lag it needs is unrecorded; only
    :func:`predict_next` drops the term instead.

    Columns, predictions and squared errors are float64 arrays with the
    bits of the per-row Python arithmetic (see the module docstring).  A
    masked column entry holds 0.0 and its gap mask says so: its term,
    ``coefficient * 0.0 * scale``, is a zero, and adding a zero to a sum
    that starts at +0.0 is exact, so every other row's sum is the one that
    skipped it.

    Predictions are memoised per target dimension, keyed by the scale and
    the (column, coefficient) of each incoming edge in order.  A candidate
    that edits one target's edges therefore reuses every other target's
    predictions and squared errors from the model it edits.
    """

    def __init__(self, history: Sequence[Transition], rows: Sequence[Transition]) -> None:
        self.rows = rows
        h = self._history = as_history(history)
        buf = h._buf
        n = self._n = len(rows)
        # (first row, end row, buffer position of the first row's own tick)
        self._runs: list[list[int]] = []
        if isinstance(rows, History) and rows._buf is buf and n:
            self._runs.append([0, n, rows._start])
            at = slice(rows._start, rows._end)
            self._states, self._observed = buf.values(0)[:, at], buf.values(2)[:, at]
        else:
            for i, tr in enumerate(rows):
                p = tr.tuple.time.tick - buf.tick0
                run = self._runs[-1] if self._runs else None
                if run is not None and p == run[2] + i - run[0]:
                    run[1] = i + 1
                else:
                    self._runs.append([i, i + 1, p])
            self._states = np.array([tr.tuple.state.values for tr in rows], dtype=float).T
            self._observed = np.array([tr.observed.values for tr in rows], dtype=float).T
        self._columns: dict[tuple, tuple[np.ndarray, np.ndarray | None]] = {}
        self._edge_columns: dict[int, tuple[CausalEdge, tuple]] = {}
        self._targets: dict[tuple, _Target] = {}

    def _row_values(self, of: np.ndarray, k: int) -> np.ndarray:
        """Dimension ``k`` of the rows' states or observations."""
        return of[k] if self._n else _NO_ROWS

    def column(self, source: VarRef, delay: int, form: Form) -> tuple[np.ndarray, np.ndarray | None]:
        """The feature column and its gap mask (None when it has no gap)."""
        return self._column(source.kind is SourceKind.ACTION, source.index, delay, form)

    def _column(
        self, reads_action: bool, index: int, delay: int, form: Form
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`column` for the source a graph's plan entry names
        (:attr:`causalloop.world.CausalGraph.plan`)."""
        # Plain values hash in C; a VarRef or a Form hashes (and a Form's
        # ``value`` reads) in Python.  Forms are singletons, so their ids key.
        key = (reads_action, index, delay, id(form))
        hit = self._columns.get(key)
        if hit is not None:
            return hit
        h = self._history
        buf = h._buf
        n = self._n
        col: np.ndarray | None = None
        gap: np.ndarray | None = None
        for i0, i1, p0 in self._runs:
            a = p0 + 1 - delay - i0  # row i of this run reads buffer position a + i
            lo = min(max(h._start - a, i0), i1)
            hi = max(min(h._end - a, i1), lo)
            if lo < hi:
                if form is Form.TANH:
                    src = buf.tanh(reads_action, index)
                else:
                    src = buf.values(1 if reads_action else 0)[index]
                seg = src[a + lo : a + hi]
                if hi - lo == n:  # the whole column is one slice
                    col = seg
                    break
                if col is None:
                    col = np.zeros(n)
                col[lo:hi] = seg
            # Rows before ``z`` read a tick before 0: 0.0, and no gap.
            z = min(max(-buf.tick0 - a, i0), lo)
            if z < lo or hi < i1:
                if gap is None:
                    gap = np.zeros(n, dtype=bool)
                gap[z:lo] = True
                gap[hi:i1] = True
        if col is None:
            col = np.zeros(n)
        if form is Form.QUADRATIC:
            col = col * col
        hit = self._columns[key] = (col, gap)
        return hit

    def design(
        self, edges: Sequence[CausalEdge], scale: float = 1.0
    ) -> tuple[np.ndarray, list[np.ndarray | None], np.ndarray]:
        """Least-squares inputs for ``edges``: their feature columns times
        ``scale`` (edges x rows), each column's gap mask (None where it has
        no gap), and every dimension's observed change (dimensions x
        rows)."""
        cols = [self.column(e.source, e.delay, e.form) for e in edges]
        x = np.array([col for col, _ in cols]).reshape(len(edges), self._n)
        if scale != 1.0:
            x = x * scale
        return x, [gap for _, gap in cols], self._observed - self._states

    def residuals(
        self, edges: list[CausalEdge], target: int, scale: float, lo: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per row from ``lo``, ``target``'s observed value minus its strict
        prediction from ``edges`` alone, memoised as any target's is, and
        the mask of rows where a lag of one of those edges is unrecorded
        (None when there are none)."""
        (t,) = self.predict([(target, edges)], scale)
        values = self._row_values(self._observed, target)[lo:] - t.pred[lo:]
        return values, None if t.dead is None else t.dead[lo:]

    def _edge_column(self, e: CausalEdge) -> tuple[np.ndarray, np.ndarray | None, tuple[int, float]]:
        """The edge's column, its gap mask and its part of a target's memo key."""
        # Keyed by identity: candidate graphs share the edges they leave
        # alone, and the entry keeps its edge alive so the id stays unique.
        hit = self._edge_columns.get(id(e))
        if hit is None:
            col, gap = self.column(e.source, e.delay, e.form)
            hit = self._edge_columns[id(e)] = (e, (col, gap, (id(col), e.coefficient)))
        return hit[1]

    def predict(self, groups: Sequence[tuple[int, list[CausalEdge]]], scale: float) -> list[_Target]:
        """The :class:`_Target` of each (dimension, its incoming edges in
        graph order) at ``scale``.  Those not memoised yet are predicted
        together: slot w of each is its w-th edge's ``coefficient * feature
        * scale``, or 0.0 past its last edge, and the slots are added in
        order to 0.0 and then to the recorded state."""
        out: list[_Target | None] = []
        todo = []
        for k, edges in groups:
            cols = [self._edge_column(e) for e in edges]
            key = (k, scale, *[c[2] for c in cols])
            hit = self._targets.get(key)
            if hit is None:
                todo.append((len(out), k, key, edges, cols))
            out.append(hit)
        if not todo:
            return out
        slots = [[(e.coefficient, c[0]) for e, c in zip(edges, cols)] for _, _, _, edges, cols in todo]
        acc = _edge_sums(*_slots(slots, self._n), scale)
        pred = np.array([self._row_values(self._states, k) for _, k, _, _, _ in todo]) + acc
        finite = np.isfinite(pred).all(axis=1).tolist()
        for (i, _, key, _, cols), row, ok in zip(todo, pred, finite):
            gaps = [gap for _, gap, _ in cols if gap is not None]
            dead = functools.reduce(operator.or_, gaps) if gaps else None
            out[i] = self._targets[key] = _Target(row, dead, ok)
        return out

    def targets(self, graph: CausalGraph, delta_hat: float) -> list[_Target]:
        """Every target dimension of ``graph`` at ``delta_hat``, in order."""
        return self.predict(list(enumerate(_by_target(graph))), math.exp(-delta_hat))

    def mses(
        self, models: Sequence[tuple[CausalGraph, float]], lo: int = 0, hi: int | None = None
    ) -> list[float] | None:
        """The mean loss epsilon of each (graph, delta_hat) over the rows of
        ``[lo, hi)`` that every one of them predicts, all in one batch; None
        when there are none.  Each row's squared errors add over dimensions,
        are divided by d_state and add over rows, each sum left to right
        from 0.0, as :func:`causalloop.core.loss` and a mean of its epsilons
        would.  Raises :class:`DomainError` where :meth:`sq_errors` would."""
        hi = self._n if hi is None else hi
        if lo >= hi:
            return None
        d = models[0][0].d_state
        slots, gaps = [], []
        for graph, _ in models:
            groups: list[list[tuple[float, np.ndarray]]] = [[] for _ in range(d)]
            for reads_action, index, delay, target, coefficient, form in graph.plan:
                col, gap = self._column(reads_action, index, delay, form)
                groups[target].append((coefficient, col[lo:hi]))
                if gap is not None:
                    gaps.append(gap[lo:hi])
            slots += groups
        scales = [math.exp(-delta_hat) for _, delta_hat in models]
        scale = 1.0 if scales.count(1.0) == len(scales) else np.array([[s] for s in scales for _ in range(d)])
        acc = _edge_sums(*_slots(slots, hi - lo), scale).reshape(len(models), d, hi - lo)
        pred = self._states[:, lo:hi] + acc
        live = ~functools.reduce(operator.or_, gaps) if gaps else np.ones(hi - lo, dtype=bool)
        with np.errstate(all="ignore"):
            diff = self._observed[:, lo:hi] - pred
            sq = np.float_power(diff, 2.0)
            if not np.isfinite(sq).all():  # a prediction that is not finite, or an overflow
                bad = pred[:, :, live][~np.isfinite(pred[:, :, live])]
                if len(bad):
                    raise DomainError(f"state contains non-finite value {float(bad[0])!r}")
                if (np.isinf(sq) & np.isfinite(diff)).any():
                    raise DomainError("a squared prediction error exceeds the float range")
            stacked = np.zeros((len(models), d + 1, hi - lo))
            stacked[:, 1:] = sq
            per_row = np.add.accumulate(stacked, axis=1)[:, -1] / d
            n = np.count_nonzero(live)
            return None if n == 0 else [total / n for total in _fold(per_row, live).tolist()]

    def _dead(self, targets: list[_Target], lo: int, hi: int) -> np.ndarray:
        """The mask of rows of ``[lo, hi)`` one of ``targets`` leaves out.
        A non-finite prediction on a live row raises :class:`DomainError`
        as building a :class:`StateVec` from it would."""
        masks = [t.dead[lo:hi] for t in targets if t.dead is not None]
        dead = functools.reduce(operator.or_, masks) if masks else np.zeros(hi - lo, dtype=bool)
        for t in targets:
            if not t.finite:
                bad = t.pred[lo:hi][~dead & ~np.isfinite(t.pred[lo:hi])]
                if len(bad):
                    raise DomainError(f"state contains non-finite value {float(bad[0])!r}")
        return dead

    def sq_errors(
        self, targets: list[_Target], lo: int = 0, hi: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``[lo, hi)``, ``(o - p) ** 2`` added from 0.0 over
        ``targets`` (from :meth:`targets`, or a candidate edit's) in
        dimension order, and the mask of rows left out.  Divided by
        d_state it is the row's :func:`causalloop.core.loss` epsilon, and a
        finite error that squares beyond the float range raises
        :class:`DomainError`, as there."""
        hi = self._n if hi is None else hi
        dead = self._dead(targets, lo, hi)
        todo = [k for k, t in enumerate(targets) if t.sq is None]
        with np.errstate(all="ignore"):
            if todo:
                observed = np.array([self._row_values(self._observed, k) for k in todo])
                diff = observed - np.array([targets[k].pred for k in todo])
                sq = np.float_power(diff, 2.0)
                if not np.isfinite(sq).all() and (np.isinf(sq) & np.isfinite(diff)).any():
                    raise DomainError("a squared prediction error exceeds the float range")
                for k, row in zip(todo, sq):
                    targets[k].sq = row
            rows = np.array([np.zeros(hi - lo)] + [t.sq[lo:hi] for t in targets])
            return np.add.accumulate(rows)[-1], dead


def _add_up(slabs: np.ndarray) -> np.ndarray:
    """``slabs[:, 0] + slabs[:, 1] + ...`` left to right from 0.0, as a
    cumsum along axis 1 from a leading 0.0 adds them, one whole slab at a
    time: numpy accumulates along a short middle axis several times slower."""
    if not slabs.shape[1]:
        return np.zeros(slabs.shape[:1] + slabs.shape[2:])
    total = slabs[:, 0] + 0.0  # the fold's first addition, 0.0 + slab 0
    for j in range(1, slabs.shape[1]):
        total = total + slabs[:, j]
    return total


def _slots(groups: list[list[tuple[float, np.ndarray]]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each group's (coefficient, column) slots, padded to the widest with
    coefficient 0.0 over a zero column: (groups x width) coefficients and
    (groups x width x n) columns, for :func:`_edge_sums`."""
    width = max(map(len, groups))
    blank = (0.0, np.zeros(n))
    padded = [g + [blank] * (width - len(g)) for g in groups]
    coef = np.array([[c for c, _ in g] for g in padded]).reshape(len(groups), width)
    return coef, np.array([[col for _, col in g] for g in padded]).reshape(len(groups), width, n)


def _edge_sums(coef: np.ndarray, cols: np.ndarray, scale) -> np.ndarray:
    """Row i's edge terms ``coef[i, w] * cols[i, w] * scale`` added over the
    slots w in order from 0.0 (:func:`_add_up`); ``scale`` is a float or a
    column of one per row.  A slot past a target's last edge holds
    coefficient 0.0 over a zero column."""
    terms = coef[:, :, None] * cols
    if isinstance(scale, np.ndarray):
        terms = terms * scale[:, :, None]
    elif scale != 1.0:  # x * 1.0 is x, to the bit
        terms = terms * scale
    return _add_up(terms)


def _fold(values: np.ndarray, keep: np.ndarray | bool) -> np.ndarray:
    """Each row of ``values`` added left to right from 0.0, skipping the
    entries ``keep`` masks out (each adds +0.0 instead)."""
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    np.copyto(out[:, 1:], values, where=keep)
    return np.add.accumulate(out, axis=1)[:, -1]


def _by_target(graph: CausalGraph) -> list[list[CausalEdge]]:
    """Each state dimension's incoming edges, in graph order."""
    groups: list[list[CausalEdge]] = [[] for _ in range(graph.d_state)]
    for e in graph.edges:
        groups[e.target].append(e)
    return groups


def rollout(
    graph: CausalGraph,
    delta_hat: float,
    history: Sequence[Transition],
    rows: Sequence[Transition],
) -> list[StateVec | None]:
    """Teacher-forced one-step predictions for each row, by the kernel.

    Each prediction starts from the row's own recorded state and adds the
    modeled effects landing that tick, with lagged sources resolved against
    ``history``, which must be one run of consecutive ticks (see
    :class:`History`).  Rows whose lags are unrecorded yield None.
    """
    lags = _LagFeatures(history, rows)
    targets = lags.targets(graph, delta_hat)
    dead = lags._dead(targets, 0, len(rows)).tolist()
    preds = zip(*(t.pred.tolist() for t in targets))
    # ``_dead`` has checked every live prediction finite.
    return [None if x else StateVec.checked(p) for x, p in zip(dead, preds)]


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def fit(m: CausalModel, lags: _LagFeatures | None = None) -> CausalModel:
    """Re-estimate every edge coefficient by OLS over the recent window.

    Structure (edges, delays, forms) and delta_hat are untouched; the
    estimation itself treats delta_hat as zero.  ``lags`` is the kernel
    over the window, ``m.history[-m.fit_window:]``; a caller that reads the
    same rows again (the scheduled fit's gate) builds it once and passes
    it.  Raises :class:`NotEnoughDataError` on thin history and
    :class:`DegenerateDataError` when a design matrix is unusable
    (a constant feature column or rank deficiency).
    """
    need = max(m.fit_window // 4, 2 * len(m.graph.edges))
    if m.graph.edges and len(m.history) < need:
        raise NotEnoughDataError(f"fit needs >= {need} transitions, history has {len(m.history)}")
    if lags is None:
        lags = _LagFeatures(m.history, m.history[-m.fit_window :])
    return _least_squares(m, lags, strict=True)


def _least_squares(m: CausalModel, lags: _LagFeatures, strict: bool) -> CausalModel:
    """Every edge coefficient re-estimated by per-target OLS over the rows
    of ``lags``, a kernel over ``m``'s history.

    Strict (:func:`fit`): features at scale 1.0, and a target with too few
    usable rows, a constant feature column or a rank-deficient design
    raises.  Best-effort (a structural break's refit): features at the
    model's scale ``exp(-delta_hat)``, and a target with too few rows or a
    rank-deficient design keeps its coefficients.
    """
    edges = m.graph.edges
    if not edges or not lags._n:
        return m
    scale = 1.0 if strict else math.exp(-m.delta_hat)
    x_all, gaps, y_all = lags.design(edges, scale)
    # Each column's span over every row, for the targets none of whose
    # columns has a gap.
    spans_all = (x_all.max(axis=1) - x_all.min(axis=1)).tolist() if strict else []
    new_coefs = [e.coefficient for e in edges]
    incoming: list[list[int]] = [[] for _ in range(m.graph.d_state)]
    for i, e in enumerate(edges):
        incoming[e.target].append(i)
    for j, places in enumerate(incoming):
        if not places:
            continue
        x, y = np.array([x_all[i] for i in places]).T, y_all[j]
        masks = [gaps[i] for i in places if gaps[i] is not None]
        if masks:
            keep = ~functools.reduce(operator.or_, masks)
            x, y = x[keep], y[keep]
        if len(x) < max(2, len(places)):
            if not strict:
                continue
            raise NotEnoughDataError(
                f"fit for dim {j}: only {len(x)} usable rows for {len(places)} edges"
            )
        if strict:
            spans = [spans_all[i] for i in places] if not masks else (x.max(axis=0) - x.min(axis=0)).tolist()
            if 0.0 in spans:
                flat = spans.index(0.0)
                raise DegenerateDataError(f"fit for dim {j}: feature column {flat} is constant over the window")
        coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        if rank < x.shape[1]:
            if not strict:
                continue
            raise DegenerateDataError(f"fit for dim {j}: design matrix rank {rank} < {x.shape[1]}")
        for i, c in zip(places, coef.tolist()):
            new_coefs[i] = c

    # Constructors, not ``dataclasses.replace``: this runs every fit.
    new_edges = tuple(
        CausalEdge(e.source, e.target, e.delay, c, e.form) for e, c in zip(edges, new_coefs)
    )
    return CausalModel(
        graph=CausalGraph(m.graph.d_state, m.graph.d_action, new_edges),
        delta_hat=m.delta_hat,
        history=m.history,
        fit_window=m.fit_window,
        sigma_lik=m.sigma_lik,
        capacity=m.capacity,
        delta_max=m.delta_max,
    )


# ---------------------------------------------------------------------------
# Delta estimation
# ---------------------------------------------------------------------------


def estimate_delta(m: CausalModel, predicted_effect: float, observed_effect: float) -> Perturbation:
    """Invert the scale factor from one predicted/observed effect pair.

    Only the ratio is informative, so both effects must be nonzero and
    share a sign; otherwise the perturbation is not identifiable from this
    pair.  The result is clamped to the model's delta range.
    """
    if predicted_effect == 0.0:
        raise NotIdentifiableError("predicted effect is zero; delta is not identifiable")
    if observed_effect == 0.0 or (predicted_effect > 0.0) != (observed_effect > 0.0):
        raise NotIdentifiableError(
            "predicted and observed effects must be nonzero with matching signs"
        )
    d = math.log(predicted_effect / observed_effect)
    d = max(-m.delta_max, min(m.delta_max, d))
    return Perturbation(d)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def model_snapshot(m: CausalModel) -> dict:
    """Serializable model identity: graph, delta_hat, hyperparameters.

    History is an episode artifact, not part of the model's identity, and
    is deliberately excluded.
    """
    return {
        "graph": graph_to_dict(m.graph),
        "delta_hat": m.delta_hat,
        "fit_window": m.fit_window,
        "sigma_lik": m.sigma_lik,
        "capacity": m.capacity,
        "delta_max": m.delta_max,
    }


def model_from_snapshot(snap: dict) -> CausalModel:
    try:
        return CausalModel(
            graph=graph_from_dict(snap["graph"]),
            delta_hat=json_number(snap["delta_hat"], name="delta_hat"),
            fit_window=json_typed(snap["fit_window"], int, name="fit_window"),
            sigma_lik=json_number(snap["sigma_lik"], name="sigma_lik"),
            capacity=json_typed(snap["capacity"], int, name="capacity"),
            delta_max=json_number(snap["delta_max"], name="delta_max"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model snapshot: {exc!r}") from exc


def model_digest(m: CausalModel) -> str:
    return hashlib.sha256(canonical_json(model_snapshot(m)).encode()).hexdigest()[:16]
