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
over the rows and predicts any (graph, delta_hat) from those columns,
leaving out a row with an unrecorded lag.  ``rollout``, ``fit``, the
scheduled fit's holdout gate and the repair loop's residuals, scoring and
testing all read it; reflect acts on the mismatch the live loop measured
with ``predict_next``.  The kernel and ``predict_next`` find each lagged
tick by its place from the end of the history, checked against the tick,
through one helper, ``_TickIndex``; only a history that is not one run of
consecutive ticks builds a full tick map.

Traces record predictions and scores and replays compare them exactly, so
the arithmetic is fixed:

* the rule above, in that order;
* squared errors stay Python ``(o - p) ** 2`` summed with ``sum`` in
  dimension order.  Python's ``**`` calls the C library's ``pow``, which
  is not always correctly rounded, while numpy's ``x * x``, ``x ** 2`` and
  ``np.power`` are; the two differ on about one double in a thousand, so
  moving these sums to numpy would move trace bits.  A row's sum divided
  by d_state is :func:`causalloop.core.loss`'s epsilon to the bit:
  ``p - o`` is exactly ``-(o - p)`` and ``pow`` of a negated base to an
  even integer power is the same double.

Coefficient fitting is plain per-dimension ordinary least squares on
lagged features (numpy.linalg.lstsq), one path for the scheduled fit and a
structural break's refit.  The scheduled fit deliberately treats delta_hat
as zero, so coefficients own persistent scale and delta_hat only ever
carries transient residual scaling.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CausalTuple,
    DegenerateDataError,
    DimensionError,
    InputError,
    NotEnoughDataError,
    NotIdentifiableError,
    Perturbation,
    StateVec,
    Transition,
    DELTA_MAX,
)
from .scenario import canonical_json, graph_from_dict, graph_to_dict, json_number, json_typed
from .world import CausalEdge, CausalGraph, Form, SourceKind, VarRef


@dataclass(frozen=True)
class CausalModel:
    graph: CausalGraph
    delta_hat: float = 0.0
    history: tuple[Transition, ...] = ()
    fit_window: int = 64
    sigma_lik: float = 1.0
    capacity: int = 256
    delta_max: float = DELTA_MAX


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
    hist = m.history + (tr,)
    if len(hist) > m.capacity:
        hist = hist[-m.capacity :]
    return replace(m, history=hist)


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


def _tick_map(history: Iterable[Transition]) -> dict[int, CausalTuple]:
    return {tr.tuple.time.tick: tr.tuple for tr in history}


class _TickIndex:
    """The tuples of ``history`` (and ``extra``, which wins its tick) by
    absolute tick, as a :func:`_tick_map` would give them, mostly without
    building one.

    An agent's history is one run of consecutive ticks, so tick q sits
    ``last - q`` places from its end.  A lookup answers from that place
    once every entry from there to the end is checked to hold consecutive
    ticks up to ``last``, so no later entry repeats q and the tick map,
    where the last entry for a tick wins, would give the same tuple.  The
    check goes only as deep as lookups do.  When the whole history passes
    it, a tick outside the run is simply unrecorded.  A lookup the check
    cannot settle (a gap, a repeated or an unordered tick) builds the tick
    map once and reads it from then on.
    """

    __slots__ = ("_history", "_extra", "_last", "_run", "_map")

    def __init__(self, history: Sequence[Transition], extra: CausalTuple | None = None) -> None:
        self._history = history
        self._extra = extra
        self._last = history[-1].tuple.time.tick if history else 0
        self._run = 0  # trailing entries checked to hold ticks last - run + 1 .. last
        self._map: dict[int, CausalTuple] | None = None if history else {}

    def get(self, tick: int) -> CausalTuple | None:
        if self._extra is not None and tick == self._extra.time.tick:
            return self._extra
        back = self._last - tick
        if 0 <= back < self._run:
            return self._history[-1 - back].tuple
        if self._map is None:
            hist, last, run = self._history, self._last, self._run
            while run <= back and run < len(hist) and hist[-1 - run].tuple.time.tick == last - run:
                run += 1
            self._run = run
            if 0 <= back < run:
                return hist[-1 - back].tuple
            if run == len(hist):
                return None  # the history is one run and ``tick`` lies outside it
            self._map = _tick_map(hist)
        return self._map.get(tick)


def _source_at(ticks: _TickIndex, ref: VarRef, tick: int) -> float | None:
    """Value of a source variable at an absolute tick; None if unrecorded.

    Ticks before episode start contribute nothing (the world's queue starts
    empty), signalled as 0.0 rather than None.
    """
    if tick < 0:
        return 0.0
    tup = ticks.get(tick)
    if tup is None:
        return None
    return (tup.action if ref.kind is SourceKind.ACTION else tup.state).values[ref.index]


def predict_next(m: CausalModel, current: CausalTuple) -> StateVec:
    """One-step-ahead prediction for the live loop, by the kernel's rule:
    each target's change accumulates from 0.0 in graph edge order as
    ``coefficient * feature * scale`` and is added to ``current``'s state
    once.

    This is the one lenient rule: a missing lag (possible right after a
    history flush) contributes zero, where the strict kernel leaves the
    row out; the inaccuracy heals once fresh transitions accumulate.  Lags
    are read by place from the end of the history (see :class:`_TickIndex`).
    """
    ticks = _TickIndex(m.history, current)
    scale = math.exp(-m.delta_hat)
    change = [0.0] * m.graph.d_state
    for e in m.graph.edges:
        v = _source_at(ticks, e.source, current.time.tick + 1 - e.delay)
        if v is not None:
            change[e.target] += e.coefficient * e.form.apply(v) * scale
    return StateVec(tuple(map(operator.add, current.state.values, change)))


class _Target:
    """One state dimension's predictions over every row of a kernel.

    ``dead`` holds the rows a strict prediction leaves out for a gap in a
    lag; ``sq`` is that dimension's squared errors, filled on first use.
    """

    __slots__ = ("pred", "dead", "finite", "sq")

    def __init__(self, pred: list[float], dead: set[int]) -> None:
        self.pred = pred
        self.dead = dead
        self.finite = math.isfinite(sum(pred))
        self.sq: list[float] | None = None


class _LagFeatures:
    """Strict lagged-feature kernel for one fixed ``(history, rows)`` pair.

    Lags are resolved through one :class:`_TickIndex` over ``history``.
    ``column(source, delay, form)`` holds ``form.apply(v)`` for each row,
    where ``v`` is the source's value at the row's tick + 1 - delay: 0.0
    before tick 0 and None where that tick is unrecorded.  Columns are computed on first use
    and cached, so any number of graphs -- a working model and every
    candidate edit of it -- are predicted from one set of lag lookups.
    A prediction leaves out each row where a lag it needs is unrecorded;
    only :func:`predict_next` drops the term instead.

    Predictions are memoised per target dimension, keyed by the scale and
    the (column, coefficient) of each incoming edge in order.  A candidate
    that edits one target's edges therefore reuses every other target's
    predictions and squared errors from the model it edits.
    """

    def __init__(self, history: Sequence[Transition], rows: Sequence[Transition]) -> None:
        self.rows = rows
        self._lags = _TickIndex(history)
        self._ticks = [tr.tuple.time.tick for tr in rows]
        self._states = [tr.tuple.state.values for tr in rows]
        self._observed = [tr.observed.values for tr in rows]
        self._columns: dict[tuple, tuple[list[float | None], bool]] = {}
        self._edge_columns: dict[int, tuple[CausalEdge, tuple]] = {}
        self._targets: dict[tuple, _Target] = {}

    def column(self, source: VarRef, delay: int, form: Form) -> tuple[list[float | None], bool]:
        """The feature column and whether it has a gap (a None entry)."""
        key = (source, delay, form)
        hit = self._columns.get(key)
        if hit is not None:
            return hit
        col: list[float | None] = []
        for tick in self._ticks:
            v = _source_at(self._lags, source, tick + 1 - delay)
            col.append(None if v is None else form.apply(v))
        hit = self._columns[key] = (col, None in col)
        return hit

    def design(
        self, edges: Sequence[CausalEdge], target: int, scale: float = 1.0
    ) -> tuple[list[tuple[float, ...]], list[float]]:
        """Least-squares rows for ``target``: the features of ``edges``
        times ``scale``, and the observed change, over every row whose lags
        are all recorded."""
        cols = [
            [None if fv is None else fv * scale for fv in self.column(e.source, e.delay, e.form)[0]]
            for e in edges
        ]
        x_rows: list[tuple[float, ...]] = []
        y_rows: list[float] = []
        for tr, feats in zip(self.rows, zip(*cols)):
            if None in feats:
                continue
            x_rows.append(feats)
            y_rows.append(tr.observed[target] - tr.tuple.state[target])
        return x_rows, y_rows

    def residuals(
        self, edges: list[CausalEdge], target: int, scale: float, lo: int
    ) -> list[float | None]:
        """Per row from ``lo``, ``target``'s observed value minus its strict
        prediction from ``edges`` alone, memoised as any target's is; None
        where a lag of one of those edges is unrecorded."""
        t = self._target(target, edges, scale)
        obs = self._observed
        return [None if i in t.dead else obs[i][target] - t.pred[i] for i in range(lo, len(self.rows))]

    def _edge_column(self, e: CausalEdge) -> tuple[list[float | None], bool, tuple[int, float]]:
        """The edge's column, its gap flag and its part of a target's memo key."""
        # Keyed by identity: candidate graphs share the edges they leave
        # alone, and the entry keeps its edge alive so the id stays unique.
        hit = self._edge_columns.get(id(e))
        if hit is None:
            col, gaps = self.column(e.source, e.delay, e.form)
            hit = self._edge_columns[id(e)] = (e, (col, gaps, (id(col), e.coefficient)))
        return hit[1]

    def _target(self, k: int, edges: list[CausalEdge], scale: float) -> _Target:
        cols = [self._edge_column(e) for e in edges]
        key = (k, scale, *[c[2] for c in cols])
        hit = self._targets.get(key)
        if hit is not None:
            return hit
        acc = [0.0] * len(self.rows)
        dead: set[int] = set()
        for (col, gaps, _), e in zip(cols, edges):
            c = e.coefficient
            if not gaps:
                acc = [x + c * fv * scale for x, fv in zip(acc, col)]
                continue
            for i, fv in enumerate(col):
                if fv is not None:
                    acc[i] += c * fv * scale
                else:
                    dead.add(i)
        pred = [s[k] + ch for s, ch in zip(self._states, acc)]
        hit = self._targets[key] = _Target(pred, dead)
        return hit

    def _predicted(
        self, graph: CausalGraph, delta_hat: float, lo: int, hi: int
    ) -> tuple[list[_Target], set[int]]:
        """Every target of ``graph`` and the dead rows of ``[lo, hi)``.  A
        non-finite prediction on a live row raises :class:`DomainError` as
        building a :class:`StateVec` from it would."""
        scale = math.exp(-delta_hat)
        groups: list[list[CausalEdge]] = [[] for _ in range(graph.d_state)]
        for e in graph.edges:
            groups[e.target].append(e)
        targets = [self._target(k, g, scale) for k, g in enumerate(groups)]
        dead = {i for t in targets for i in t.dead if lo <= i < hi}
        if not all(t.finite for t in targets):
            for i in range(lo, hi):
                if i not in dead:
                    StateVec(tuple(t.pred[i] for t in targets))  # raises if non-finite
        return targets, dead

    def sq_errors(
        self, graph: CausalGraph, delta_hat: float, lo: int = 0, hi: int | None = None
    ) -> list[float | None]:
        """Per row of ``[lo, hi)``, ``sum((o - p) ** 2)`` over dimensions in
        order; None where the row is left out.  Divided
        by ``graph.d_state`` it is the row's :func:`causalloop.core.loss`
        epsilon."""
        hi = len(self.rows) if hi is None else hi
        targets, dead = self._predicted(graph, delta_hat, lo, hi)
        for k, t in enumerate(targets):
            if t.sq is None:
                t.sq = [(o[k] - p) ** 2 for o, p in zip(self._observed, t.pred)]
        out: list[float | None] = list(map(sum, zip(*(t.sq[lo:hi] for t in targets))))
        for i in dead:
            out[i - lo] = None
        return out


def rollout(
    graph: CausalGraph,
    delta_hat: float,
    history: Sequence[Transition],
    rows: Sequence[Transition],
) -> list[StateVec | None]:
    """Teacher-forced one-step predictions for each row, by the kernel.

    Each prediction starts from the row's own recorded state and adds the
    modeled effects landing that tick, with lagged sources resolved against
    the full ``history``.  Rows whose lags are unrecorded yield None.
    """
    targets, dead = _LagFeatures(history, rows)._predicted(graph, delta_hat, 0, len(rows))
    preds = zip(*(t.pred for t in targets))
    return [None if i in dead else StateVec(p) for i, p in enumerate(preds)]


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def fit(m: CausalModel) -> CausalModel:
    """Re-estimate every edge coefficient by OLS over the recent window.

    Structure (edges, delays, forms) and delta_hat are untouched; the
    estimation itself treats delta_hat as zero.  Raises
    :class:`NotEnoughDataError` on thin history and
    :class:`DegenerateDataError` when a design matrix is unusable
    (a constant feature column or rank deficiency).
    """
    need = max(m.fit_window // 4, 2 * len(m.graph.edges))
    if m.graph.edges and len(m.history) < need:
        raise NotEnoughDataError(f"fit needs >= {need} transitions, history has {len(m.history)}")
    return _least_squares(m, m.history[-m.fit_window :], strict=True)


def _least_squares(m: CausalModel, rows: Sequence[Transition], strict: bool) -> CausalModel:
    """Every edge coefficient re-estimated by per-target OLS over ``rows``.

    Strict (:func:`fit`): features at scale 1.0, and a target with too few
    usable rows, a constant feature column or a rank-deficient design
    raises.  Best-effort (a structural break's refit): features at the
    model's scale ``exp(-delta_hat)``, and a target with too few rows or a
    rank-deficient design keeps its coefficients.
    """
    edges = m.graph.edges
    if not edges or not rows:
        return m
    lags = _LagFeatures(m.history, rows)
    scale = 1.0 if strict else math.exp(-m.delta_hat)
    new_coefs = [e.coefficient for e in edges]
    for j in range(m.graph.d_state):
        incoming = m.graph.incoming(j)
        if not incoming:
            continue
        x_rows, y_rows = lags.design([e for _, e in incoming], j, scale)
        if len(x_rows) < max(2, len(incoming)):
            if not strict:
                continue
            raise NotEnoughDataError(
                f"fit for dim {j}: only {len(x_rows)} usable rows for {len(incoming)} edges"
            )
        x = np.asarray(x_rows)
        if strict:
            spans = x.max(axis=0) - x.min(axis=0)
            if np.any(spans == 0.0):
                flat = int(np.argmax(spans == 0.0))
                raise DegenerateDataError(
                    f"fit for dim {j}: feature column {flat} is constant over the window"
                )
        coef, _, rank, _ = np.linalg.lstsq(x, np.asarray(y_rows), rcond=None)
        if rank < x.shape[1]:
            if not strict:
                continue
            raise DegenerateDataError(f"fit for dim {j}: design matrix rank {rank} < {x.shape[1]}")
        for (edge_index, _), c in zip(incoming, coef):
            new_coefs[edge_index] = float(c)

    new_edges = tuple(replace(e, coefficient=c) for e, c in zip(edges, new_coefs))
    return replace(m, graph=replace(m.graph, edges=new_edges))


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
