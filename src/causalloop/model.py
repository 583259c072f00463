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
(history, rows) pair.  It holds one store of feature columns over the
rows, one per (source, delay, form) at a place of its own, and names each
edge by its plan tuple's column place and coefficient, never by an edge
object.  Every prediction of a batch of targets -- a (graph, delta_hat),
or the targets a repair candidate edits -- is its one edge sum,
``sums``, leaving out a row with an unrecorded lag.  ``rollout``, ``fit``,
the scheduled fit's holdout gate and the repair loop's baseline,
residuals, scoring and testing all read it; reflect acts on the mismatch
the live loop measured with ``predict_next``.  Their errors take one
path: ``_squares`` squares them, and ``_refuse`` raises the kernel's two
refusals.

A history is one run of consecutive ticks (:func:`append_history`
refuses anything else; capacity trims and structural breaks keep
suffixes), held as a :class:`History`: a ``(start, end)`` view into an
append-only :class:`_Buffer` of transitions that later histories share.
Appends are list appends; the buffer turns the rows appended since its
last conversion into numpy arrays in bulk when a kernel reads them.  A
kernel's rows, like a history, are one run: any other sequence of
transitions given for either is converted once, and refused unless it is
one run.  So a kernel reads each feature column, and its rows' states and
observations, as one slice of a buffer, with no per-row loop and no
per-row tick check.  ``predict_next`` walks the graph's
``plan`` (:attr:`causalloop.world.CausalGraph.plan`, one plain tuple per
edge) and reads each of its few lags by position in the view: tick q sits
at buffer place ``q - tick0``.

The scheduled fit and its holdout gate are one pass over one design.  The
fit builds one kernel over its window and resolves each edge's column
place once (the kernel's ``layout`` of the graph); every target's design
is one gather of the fitted columns, and the targets whose designs share
a shape are solved in one stacked ``lstsq`` call (:func:`_solve`).  A fit
changes neither structure nor delta_hat, so the gate predicts the current
and the fitted model at those same places, each with its own
coefficients, at one scale, in one ``sums`` over the kernel's last rows,
and places nothing.

Traces record predictions and scores and replays compare them exactly, so
the arithmetic is fixed, in Python loops and numpy arrays alike:

* the rule above, in that order: on arrays, slot w of each target is its
  w-th edge's ``coefficient * column``, then ``* scale`` (skipped at scale
  1.0, since ``x * 1.0`` is ``x``), slots past a target's last edge read
  coefficient 0.0 over the store's all-zero column 0, and slots add one
  whole array at a time;
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
lagged features, one path and one rule (a target the window cannot fit
keeps its coefficients) for the scheduled fit and a structural break's
refit.  Each target gets the bits ``numpy.linalg.lstsq`` gives it alone:
the stacked gufunc that function wraps solves each design of a stack with
the same LAPACK call and ``rcond``.  The scheduled fit deliberately
treats delta_hat as zero, so coefficients own persistent scale and
delta_hat only ever carries transient residual scaling.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import lstsq as _lstsq

from .core import (
    CausalLoopError,
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
    scale_factor,
)
from .scenario import canonical_json, graph_plan_from_dict, graph_to_dict, json_number, json_typed
from .world import CausalGraph, EdgePlan, Form, SourceKind, VarRef


_NO_ROWS = np.zeros(0)
_coefficient = operator.itemgetter(4)  # an edge plan's coefficient
_EPS = float(np.finfo(float).eps)


def _svd_failed(err: str, flag: int) -> None:
    """The refusal ``np.linalg.lstsq`` raises when its SVD does not converge."""
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _solve(stacks: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each stack of designs of one shape and their observations
    ((designs x rows x edges), (designs x rows)), each design's
    least-squares solution and rank ((designs x edges), (designs,)), as
    ``np.linalg.lstsq`` gives them one design at a time: one call of the
    gufunc it wraps per stack, LAPACK's ``gelsd`` with the same ``rcond``,
    ``eps * max(rows, edges)``, under the same error state, so a design
    that is not finite raises the same :class:`LinAlgError`."""
    if not stacks:
        return []
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        solved = [_lstsq(x, y[:, :, None], _EPS * max(x.shape[1:]), signature="ddd->ddid") for x, y in stacks]
    return [(coef[:, :, 0], ranks) for coef, _, ranks, _ in solved]


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
    """One edge's predicted additive effect on ``target``, landing
    ``horizon`` ticks out, from the value of its ``source`` at the tick."""

    edge_index: int
    horizon: int
    source: VarRef
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
    # The constructor with positional arguments in the fields' order, not
    # ``dataclasses.replace`` nor keywords: it runs every tick, keywords cost ~1.3x.
    return CausalModel(
        m.graph, m.delta_hat, m.history.appended(tr, m.capacity), m.fit_window, m.sigma_lik, m.capacity,
        m.delta_max,
    )


# ---------------------------------------------------------------------------
# Single-application prediction
# ---------------------------------------------------------------------------


@functools.cache
def _source(reads_action: bool, index: int) -> VarRef:
    """The variable an edge reads, one shared object per variable: building
    a frozen VarRef costs about as much as the rest of a contribution."""
    return VarRef(SourceKind.ACTION if reads_action else SourceKind.STATE, index)


# An edge's effect at a point: (horizon, target, edge index, reads_action,
# source index, value), as :func:`_effects` lists them.
_Effect = tuple[int, int, int, bool, int, float]


def _effects(m: CausalModel, t: CausalTuple, delta: float | Perturbation) -> list[_Effect]:
    """Each edge's effect at ``t`` under ``delta``, in the order of
    :func:`counterfactual`'s contributions: by horizon, target and edge
    index.  Refuses as it does (:class:`DimensionError`, and
    :func:`scale_factor`'s :class:`DomainError`)."""
    if len(t.state) != m.graph.d_state or len(t.action) != m.graph.d_action:
        raise DimensionError("tuple dimensions do not match the model graph")
    scale = scale_factor(delta)
    effects = []
    for i, (reads_action, index, delay, target, coefficient, form) in enumerate(m.graph.plan):
        v = (t.action if reads_action else t.state)[index]
        effects.append((delay, target, i, reads_action, index, coefficient * form.apply(v) * scale))
    effects.sort()  # the edge index, unique, settles every tie
    return effects


def _landed(t: CausalTuple, effects: list[_Effect], horizon: int) -> StateVec:
    """``t``'s state plus every effect landing at or before ``horizon``,
    added in order; :class:`DomainError` names the first value that is not
    finite."""
    values = list(t.state.values)
    for delay, target, _, _, _, value in effects:
        if delay > horizon:
            break
        values[target] += value
    return StateVec.checked(check_finite(tuple(values), "state"))


def counterfactual(m: CausalModel, t: CausalTuple, delta_prime: float | Perturbation) -> Prediction:
    """Model output at ``t`` under an alternative perturbation estimate.

    Horizons covered: 1 plus every distinct edge delay; the state at
    horizon k accumulates every contribution landing at or before k.  A
    delta that is not finite or lies beyond ``DELTA_MAX`` raises
    :class:`DomainError` (:func:`scale_factor`).
    """
    effects = _effects(m, t, delta_prime)
    horizon_states = {k: _landed(t, effects, k) for k in sorted({1} | {e[0] for e in effects})}
    contributions = tuple(Contribution(i, k, _source(a, index), target, v) for k, target, i, a, index, v in effects)
    return Prediction(tuple=t, horizon_states=horizon_states, contributions=contributions)


def _farthest(m: CausalModel, t: CausalTuple, delta: float | Perturbation) -> tuple[list[_Effect], int, StateVec]:
    """:func:`counterfactual`'s effects, its farthest horizon and its state
    there, with no other horizon's state formed, and its refusals.

    A horizon's sum for a target adds a prefix of the farthest one's terms,
    in the same order, and a sum that is not finite stays so; so the
    farthest state is finite exactly when every horizon's is.  When it is
    not, :func:`counterfactual` raises the refusal of the first horizon.
    """
    effects = _effects(m, t, delta)
    horizon = max(1, effects[-1][0]) if effects else 1
    try:
        return effects, horizon, _landed(t, effects, horizon)
    except DomainError:
        counterfactual(m, t, delta)
        raise


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


# Groups as :meth:`_LagFeatures.sums` reads them: each group's target, and
# its column places and coefficients (groups x widest group), padded with
# place 0, the all-zero column, and coefficient 0.0.
_Packed = tuple[list[int], np.ndarray, np.ndarray]


def _pack(groups: Sequence[tuple[int, list[int], list[float]]]) -> _Packed:
    """``(target, places, coefficients)`` groups packed for
    :meth:`_LagFeatures.sums`."""
    targets, places, coefficients = zip(*groups)
    width = max(map(len, places))
    place = np.array([p + [0] * (width - len(p)) for p in places], dtype=int).reshape(len(groups), width)
    coef = np.array([c + [0.0] * (width - len(c)) for c in coefficients]).reshape(len(groups), width)
    return list(targets), place, coef


class _Layout:
    """A graph's structure as a kernel reads it (:meth:`_LagFeatures.layout`):
    ``places[i]`` is edge i's column place and ``members[k]`` target
    dimension k's edge indices, in graph order."""

    __slots__ = ("places", "members", "_padded")

    def __init__(self, places: list[int], members: list[list[int]]) -> None:
        self.places = places
        self.members = members
        self._padded: tuple[np.ndarray, np.ndarray] | None = None

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Each target dimension's column places and edge indices in graph
        order (dimensions x widest target), padded with place 0, the
        all-zero column, and edge index ``len(places)``; built on first
        use."""
        if self._padded is None:
            members, pad = self.members, len(self.places)
            width = max(map(len, members))
            index = np.array([idx + [pad] * (width - len(idx)) for idx in members], dtype=int)
            index = index.reshape(len(members), width)
            self._padded = np.array(self.places + [0], dtype=int)[index], index
        return self._padded

    def packed(self, plans: Sequence[tuple[EdgePlan, ...]]) -> _Packed:
        """Every target dimension of each plan of this structure, one plan
        after another, packed for :meth:`_LagFeatures.sums`: the
        :meth:`padded` places, and each plan's coefficients, 0.0 appended,
        taken at the padded edge indices."""
        place, index = self.padded()
        coefficients = np.array([(*map(_coefficient, plan), 0.0) for plan in plans])
        coef = coefficients[:, index].reshape(len(plans) * len(index), index.shape[1])
        return list(range(len(index))) * len(plans), np.concatenate([place] * len(plans)), coef


class _LagFeatures:
    """Strict lagged-feature kernel for one fixed ``(history, rows)`` pair.

    It holds the one store of feature columns: row p of ``columns`` is the
    column at place p, and :meth:`place` gives a source, delay and form, as
    a graph's plan names them (:attr:`causalloop.world.CausalGraph.plan`),
    its place, computing the column on first use.  A column holds
    ``form.apply(v)`` for each row, where ``v`` is the source's value at
    the row's tick + 1 - delay: 0.0 before tick 0, masked where that tick is
    outside the history's run, and otherwise read from the history's buffer
    (:class:`History`); ``gaps`` maps the place of each column with a masked
    entry to its mask.  Row 0 is all zeros: it pads a target with fewer
    edges than the widest in a sum.  The rows, like the history, are one
    run of consecutive ticks (:func:`as_history`), so a column is one slice
    of the history's buffer, padded where it leaves the history, and the
    rows' states and observations are slices of their own buffer.  Any
    number of graphs -- a working model and every candidate edit of it --
    are predicted from one set of columns.

    A graph's edges are read by place and coefficient, target by target
    (:meth:`layout`, :meth:`incoming`), and every prediction of many
    targets at once is one :meth:`sums`.  A prediction leaves out each row
    where a lag it needs is unrecorded; only :func:`predict_next` drops the
    term instead.

    Columns, predictions and squared errors are float64 arrays with the
    bits of the per-row Python arithmetic (see the module docstring).  A
    masked column entry holds 0.0 and its gap mask says so: its term,
    ``coefficient * 0.0 * scale``, is a zero, and adding a zero to a sum
    that starts at +0.0 is exact, so every other row's sum is the one that
    skipped it.

    The kernel holds columns, never predictions: each caller keeps the
    arrays its :meth:`sums` returns, squares their errors with
    :func:`_squares` and refuses with :func:`_refuse`.
    """

    def __init__(self, history: Sequence[Transition], rows: Sequence[Transition]) -> None:
        rows = self.rows = as_history(rows)
        h = self._history = as_history(history)
        n = self._n = len(rows)
        # The place of row 0's tick in the history's buffer: row i reads
        # the buffer position of its own tick, ``_at + i``.
        self._at = rows[0].tuple.time.tick - h._buf.tick0 if n else 0
        if n:
            at = slice(rows._start, rows._end)
            self._states, self._observed = rows._buf.values(0)[:, at], rows._buf.values(2)[:, at]
        else:  # an empty buffer has no width
            self._states = self._observed = _NO_ROWS
        self.columns = np.zeros((8, n))  # row 0 stays all zeros; place() doubles it when full
        self.gaps: dict[int, np.ndarray] = {}
        self._places: dict[tuple[bool, int, int, int], int] = {}
        self._layout_of: CausalGraph | None = None
        self._layout: _Layout

    def place(self, reads_action: bool, index: int, delay: int, form: Form) -> int:
        """The place in ``columns`` of the feature column of this source,
        delay and form, computed and added on first use."""
        # Plain values hash in C; a Form hashes (and its ``value`` reads) in
        # Python.  Forms are singletons, so their ids key.
        key = (reads_action, index, delay, id(form))
        p = self._places.get(key)
        if p is not None:
            return p
        n = self._n
        p = len(self._places) + 1
        if p == len(self.columns):  # full: double it, as _Buffer.values grows
            grown = np.zeros((2 * p, n))
            grown[:p] = self.columns
            self.columns = grown
        col = self.columns[p]
        h = self._history
        buf = h._buf
        a = self._at + 1 - delay  # row i reads buffer position a + i
        lo = min(max(h._start - a, 0), n)
        hi = max(min(h._end - a, n), lo)
        if lo < hi:
            if form is Form.TANH:
                src = buf.tanh(reads_action, index)
            else:
                src = buf.values(1 if reads_action else 0)[index]
            col[lo:hi] = src[a + lo : a + hi]
        # Rows before ``z`` read a tick before 0: 0.0, and no gap.
        z = min(max(-buf.tick0 - a, 0), lo)
        if z < lo or hi < n:
            gap = self.gaps[p] = np.zeros(n, dtype=bool)
            gap[z:lo] = True
            gap[hi:] = True
        if form is Form.QUADRATIC:
            col *= col
        self._places[key] = p
        return p

    def layout(self, graph: CausalGraph) -> _Layout:
        """The :class:`_Layout` of ``graph``'s structure in this kernel.
        Kept for the last graph asked for, so a fit and its holdout gate
        (the fitted graph shares the structure) resolve each place once."""
        if graph is not self._layout_of:
            place, plan = self.place, graph.plan
            places = [place(reads_action, index, delay, form) for reads_action, index, delay, _, _, form in plan]
            members: list[list[int]] = [[] for _ in range(graph.d_state)]
            for i, edge in enumerate(plan):
                members[edge[3]].append(i)
            self._layout_of, self._layout = graph, _Layout(places, members)
        return self._layout

    def incoming(self, graph: CausalGraph) -> list[tuple[int, list[int], list[float]]]:
        """Each target dimension of ``graph`` in order, with the place and
        the coefficient of each of its incoming edges in graph order, from
        its :meth:`layout`: groups as :func:`_pack` takes them."""
        plan, layout = graph.plan, self.layout(graph)
        places = layout.places
        return [(k, [places[i] for i in idx], [plan[i][4] for i in idx]) for k, idx in enumerate(layout.members)]

    def design(self, place: np.ndarray, scale: float) -> np.ndarray:
        """Least-squares inputs for each target dimension of ``place``, a
        graph's :meth:`_Layout.padded` places, as one (dimensions x (widest
        + 1) x rows) array: slot w of dimension k is the column of its w-th
        edge times ``scale`` (the all-zero column 0 past its last edge), and
        the last slot is its observed change."""
        width = place.shape[1]
        z = np.empty((len(place), width + 1, self._n))
        z[:, :width] = self.columns[place]
        if scale != 1.0:
            z[:, :width] *= scale
        np.subtract(self._observed, self._states, out=z[:, width])
        return z

    def dead(self, place: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray | None:
        """For each group of column places (a row of ``place``), the mask of
        the rows ``[lo, hi)`` where a column it reads has a gap (groups x
        rows); None when none has."""
        if not self.gaps or self.gaps.keys().isdisjoint(place.ravel().tolist()):
            return None
        hi = self._n if hi is None else hi
        masks = np.zeros((len(self.columns), hi - lo), dtype=bool)
        for p, gap in self.gaps.items():
            masks[p] = gap[lo:hi]
        return masks[place].any(axis=1)

    def sums(
        self, packed: _Packed, scale: float | np.ndarray, lo: int = 0, hi: int | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Each packed group's strict prediction over rows ``[lo, hi)``
        (groups x rows), and the mask of the rows where a column it reads
        has a gap (groups x rows; None when none has).  ``packed`` is
        :func:`_pack` of ``(target, places, coefficients)`` groups, or
        :meth:`_Layout.packed`.  The one edge sum: slot w of a group is its
        w-th edge's ``coefficient * column``, then ``* scale`` -- a float,
        skipped at 1.0 since ``x * 1.0`` is ``x``, or an array of one per
        group -- and past its last edge coefficient 0.0 over row 0.  The
        slots add in order to 0.0 (:func:`_add_up`), then to the target's
        recorded state."""
        hi = self._n if hi is None else hi
        targets, place, coef = packed
        with np.errstate(all="ignore"):
            terms = coef[:, :, None] * self.columns[place, lo:hi]
            if isinstance(scale, np.ndarray):
                terms = terms * scale[:, None, None]
            elif scale != 1.0:
                terms = terms * scale
            states = self._states[targets, lo:hi] if self._n else np.zeros((len(targets), 0))
            pred = states + _add_up(terms)
        return pred, self.dead(place, lo, hi)

    def mses(
        self, packed: _Packed, scale: float | np.ndarray, lo: int = 0, hi: int | None = None
    ) -> list[float] | None:
        """The mean loss epsilon of each model over the rows of ``[lo, hi)``
        that every one of them predicts, all in one :meth:`sums`; None when
        there are none.  ``packed`` holds each model's groups for every
        target dimension in order, one model after another, and ``scale``
        is as :meth:`sums` takes it.  Each row's squared errors add over
        dimensions, are divided by d_state and add over rows, each sum left
        to right from 0.0, as :func:`causalloop.core.loss` and a mean of
        its epsilons would.  Raises :class:`DomainError` as :func:`_refuse`
        does, reading the rows every model predicts."""
        hi = self._n if hi is None else hi
        if lo >= hi:
            return None
        d = len(self._observed)
        pred, dead = self.sums(packed, scale, lo, hi)
        pred = pred.reshape(len(pred) // d, d, hi - lo)
        live = True if dead is None else ~dead.any(axis=0)  # the rows every model predicts
        with np.errstate(all="ignore"):
            sq, overflow = _squares(self._observed[:, lo:hi], pred)
            if overflow is not None:
                _refuse(pred, live, overflow)
            stacked = np.zeros((len(pred), d + 1, hi - lo))
            stacked[:, 1:] = sq
            per_row = np.add.accumulate(stacked, axis=1)[:, -1] / d
            n = hi - lo if dead is None else np.count_nonzero(live)
            return None if n == 0 else [total / n for total in _fold(per_row, live).tolist()]


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


def _fold(values: np.ndarray, keep: np.ndarray | bool) -> np.ndarray:
    """Each row of ``values`` added left to right from 0.0, skipping the
    entries ``keep`` masks out (each adds +0.0 instead)."""
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    np.copyto(out[:, 1:], values, where=keep)
    return np.add.accumulate(out, axis=1)[:, -1]


def _squares(observed: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Each prediction's squared error, ``np.float_power(o - p, 2.0)``, and
    the mask of the finite errors whose square leaves the float range;
    None when every square is finite, so every prediction is too.  Called
    under ``np.errstate(all="ignore")``, as the caller's sums are."""
    diff = observed - pred
    sq = np.float_power(diff, 2.0)
    if np.isfinite(sq).all():
        return sq, None
    return sq, np.isinf(sq) & np.isfinite(diff)


def _refuse(pred: np.ndarray, read: np.ndarray | bool, overflow: np.ndarray | None = None) -> None:
    """The kernel's two refusals, each a :class:`DomainError`, in this
    order: a prediction that is not finite on a row ``read`` masks (the
    first in group, then row order), as building a :class:`StateVec` of
    it would refuse it; then any error ``overflow`` (from :func:`_squares`)
    masks, whose square Python's ``(o - p) ** 2`` would overflow."""
    bad = pred[read & ~np.isfinite(pred)]
    if len(bad):
        raise DomainError(f"state contains non-finite value {float(bad[0])!r}")
    if overflow is not None and overflow.any():
        raise DomainError("a squared prediction error exceeds the float range")


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
    pred, dead = lags.sums(lags.layout(graph).packed((graph.plan,)), math.exp(-delta_hat))
    dead = np.zeros(len(rows), dtype=bool) if dead is None else dead.any(axis=0)
    _refuse(pred, ~dead)  # every prediction of a live row is finite
    return [None if x else StateVec.checked(p) for x, p in zip(dead.tolist(), zip(*pred.tolist()))]


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def fit(m: CausalModel, lags: _LagFeatures | None = None) -> CausalModel:
    """Re-estimate every edge coefficient by OLS over the recent window.

    Structure (edges, delays, forms) and delta_hat are untouched; the
    estimation itself treats delta_hat as zero.  ``lags`` is the kernel
    over the window, :func:`_fit_kernel` of ``m``; a caller that reads the
    same rows again (the scheduled fit's gate) builds it once, passes it,
    and reads the places the fit resolved there
    (:meth:`_LagFeatures.layout`).  A target the window cannot fit keeps
    its coefficients (:func:`_least_squares`).  Raises :class:`NotEnoughDataError`
    on thin history, and the first target's refusal when none can be fitted.
    """
    fitted, refusals = _least_squares(m, _fit_kernel(m) if lags is None else lags, 1.0)
    if refusals and len(refusals) == len({edge[3] for edge in m.graph.plan}):
        raise refusals[0]
    return fitted


def _fit_kernel(m: CausalModel) -> _LagFeatures:
    """The kernel :func:`fit` reads, over the window
    ``m.history[-m.fit_window:]``, built only once the history holds the
    rows a fit needs, ``max(fit_window // 4, 2 * edges)`` (a graph without
    edges needs none); :class:`NotEnoughDataError` before."""
    edges = len(m.graph.plan)
    need = max(m.fit_window // 4, 2 * edges)
    if edges and len(m.history) < need:
        raise NotEnoughDataError(f"fit needs >= {need} transitions, history has {len(m.history)}")
    return _LagFeatures(m.history, m.history[-m.fit_window :])


def _least_squares(m: CausalModel, lags: _LagFeatures, scale: float) -> tuple[CausalModel, list[CausalLoopError]]:
    """Every edge coefficient re-estimated by per-target OLS over the rows
    of ``lags``, a kernel over ``m``'s history, with features times
    ``scale``; and the refusal of each target it could not fit, in order.

    Each edge's column is placed once (:meth:`_LagFeatures.layout`).  Every
    target is prepared first, in array operations over all of them: the
    gap masks give each its usable rows and, once any target has enough,
    one :meth:`_LagFeatures.design` gathers each target's columns and
    observed change, and one max and one min give every column's span over
    its usable rows.  Then the targets are grouped by design shape (usable
    rows x edges), and each group is one :func:`_solve`, which gives each
    target the bits of its own ``np.linalg.lstsq``.  One rule: a target
    with too few usable rows, a constant feature column or a rank-deficient
    design keeps its coefficients.  Refusals come in target order.
    :func:`fit` passes scale 1.0, a structural break's refit the model's
    ``exp(-delta_hat)``.
    """
    graph = m.graph
    plan = graph.plan
    n = lags._n
    if not plan or not n:
        return m, []
    layout = lags.layout(graph)
    place, _ = layout.padded()
    dead = lags.dead(place)
    if dead is None:
        live = [n] * len(place)
    else:
        keep = ~dead
        live = keep.sum(axis=1).tolist()
    refused: dict[int, CausalLoopError] = {}
    enough = []  # the targets with edges and enough usable rows for them
    for j, members in enumerate(layout.members):
        if not members:
            continue
        if live[j] < max(2, len(members)):
            refused[j] = NotEnoughDataError(f"fit for dim {j}: only {live[j]} usable rows for {len(members)} edges")
        else:
            enough.append(j)
    shapes: dict[tuple[int, int], list[int]] = {}  # (rows, edges) -> the targets of that design shape
    if enough:
        z = lags.design(place, scale)
        x = z[:, :-1]
        if dead is None:
            spans = (x.max(axis=2) - x.min(axis=2)).tolist()
        else:  # over the usable rows only
            k = keep[:, None]
            spans = (x.max(axis=2, where=k, initial=-math.inf) - x.min(axis=2, where=k, initial=math.inf)).tolist()
        for j in enough:
            width = len(layout.members[j])
            if 0.0 in spans[j][:width]:
                flat = spans[j].index(0.0)
                refused[j] = DegenerateDataError(f"fit for dim {j}: feature column {flat} is constant over the window")
            else:
                shapes.setdefault((live[j], width), []).append(j)
    stacks = []
    for (usable, width), targets in shapes.items():
        zs = (z if len(targets) == len(z) else z[targets]).transpose(0, 2, 1)  # (targets x rows x slots)
        if usable < n:
            zs = zs[keep[targets]].reshape(len(targets), usable, -1)
        stacks.append((zs[:, :, :width], zs[:, :, -1]))
    new_coefs = list(map(_coefficient, plan))
    for targets, (coef, ranks) in zip(shapes.values(), _solve(stacks)):
        width = coef.shape[1]
        for j, c, rank in zip(targets, coef.tolist(), ranks.tolist()):
            if rank < width:
                refused[j] = DegenerateDataError(f"fit for dim {j}: design matrix rank {rank} < {width}")
                continue
            for i, v in zip(layout.members[j], c):
                new_coefs[i] = v

    refusals = [refused[j] for j in sorted(refused)]
    return CausalModel(
        graph.with_coefficients(new_coefs), m.delta_hat, m.history, m.fit_window, m.sigma_lik, m.capacity,
        m.delta_max,
    ), refusals


# ---------------------------------------------------------------------------
# Delta estimation
# ---------------------------------------------------------------------------


def estimate_delta(m: CausalModel, predicted_effect: float, observed_effect: float) -> Perturbation:
    """Invert the scale factor from one predicted/observed effect pair.

    Only the ratio is informative, so both effects must be nonzero and
    share a sign; otherwise the perturbation is not identifiable from this
    pair.  The result is clamped to the model's delta range; a ratio that
    underflows to 0.0 reads as ``log = -inf``, clamped to ``-delta_max``.
    """
    if predicted_effect == 0.0:
        raise NotIdentifiableError("predicted effect is zero; delta is not identifiable")
    if observed_effect == 0.0 or (predicted_effect > 0.0) != (observed_effect > 0.0):
        raise NotIdentifiableError(
            "predicted and observed effects must be nonzero with matching signs"
        )
    ratio = predicted_effect / observed_effect
    d = math.log(ratio) if ratio else -math.inf
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


# A snapshot's scalar fields in the order they are checked, and the JSON
# type each has as :func:`model_snapshot` writes it.
_SNAPSHOT_SCALARS = ("delta_hat", "fit_window", "sigma_lik", "capacity", "delta_max")
_snapshot_scalars = operator.itemgetter(*_SNAPSHOT_SCALARS)
_WRITTEN_TYPES = (float, int, float, int, float)


def read_snapshot(snap: Any) -> tuple[tuple[int, int, tuple[EdgePlan, ...]], tuple[float, int, float, int, float]]:
    """The model snapshot :func:`model_snapshot` wrote, checked: its graph
    read by :func:`causalloop.scenario.graph_plan_from_dict` as
    ``(d_state, d_action, plan)``, then ``(delta_hat, fit_window,
    sigma_lik, capacity, delta_max)``, each of its JSON type: an int, or
    for a float field a JSON int or finite float, made a float.

    The scalars as written (three finite floats and two ints) pass one
    type test; anything else takes a pass over the fields in order, which
    names the first one refused.  A missing key or a scalar of the wrong
    type raises :class:`InputError` (``malformed model snapshot``); the
    graph raises what its reader raises.  :func:`model_from_snapshot` and
    :func:`causalloop.evaluate.evaluate_trace` both read snapshots so.
    """
    try:
        graph = graph_plan_from_dict(snap["graph"])
        try:
            scalars = _snapshot_scalars(snap)
        except KeyError:
            scalars = None  # the pass below names the first refused field
        if (
            scalars is not None
            and tuple(map(type, scalars)) == _WRITTEN_TYPES
            and all(map(math.isfinite, scalars[::2]))
        ):
            return graph, scalars
        return graph, (
            json_number(snap["delta_hat"], name="delta_hat"),
            json_typed(snap["fit_window"], int, name="fit_window"),
            json_number(snap["sigma_lik"], name="sigma_lik"),
            json_typed(snap["capacity"], int, name="capacity"),
            json_number(snap["delta_max"], name="delta_max"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model snapshot: {exc!r}") from exc


def model_from_snapshot(snap: Any) -> CausalModel:
    """The model a snapshot holds (:func:`read_snapshot`), with an empty history."""
    graph, (delta_hat, fit_window, sigma_lik, capacity, delta_max) = read_snapshot(snap)
    return CausalModel(
        graph=CausalGraph.from_plan(*graph),
        delta_hat=delta_hat,
        fit_window=fit_window,
        sigma_lik=sigma_lik,
        capacity=capacity,
        delta_max=delta_max,
    )


def model_digest(m: CausalModel, snapshot: dict | None = None) -> str:
    """The first 16 hex digits of the sha256 of the model's snapshot as
    canonical JSON.  ``snapshot``, when given, must be
    :func:`model_snapshot` of ``m``, which is then not built again."""
    if snapshot is None:
        snapshot = model_snapshot(m)
    return hashlib.sha256(canonical_json(snapshot).encode()).hexdigest()[:16]
