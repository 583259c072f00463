"""Mismatch-triggered self-repair of the agent's causal model.

The trigger is the agent's: when its live one-step prediction misses by
more than the threshold tau, it hands that mismatch to :func:`reflect`,
which proposes a bounded set of candidate edits to the model -- rescale
delta, change a coefficient or delay, add or remove an edge, or declare
a structural break and flush stale history.  Generation stops at the
budget: nothing past the first ``budget`` distinct candidates, in a
fixed order, is estimated.  Candidates are ranked by how much likelihood
they recover over a recent scoring window, then tested in rank order
against a reserved holdout of the most recent transitions; an edit is
kept only if it cuts holdout MSE by at least the fraction rho.  The
working model updates after each acceptance, so later candidates must
beat the already-repaired model.

Candidate parameters that need estimation (a refitted coefficient, a new
edge's coefficient, how much history a break should keep) are resolved at
generation time against the *anomalous suffix*: the maximal run of most
recent transitions whose per-row error stays above a floor.  During a
persistent regime change that suffix is exactly the post-change data, so
refits are not diluted by stale rows.

Each trigger builds one lagged-feature kernel (see :mod:`causalloop.model`)
over the model's ``fit_window`` window, and the working model's per-target
predictions and squared errors over it (``_Baseline``).  ``anomalous_suffix``
reads those errors, and a residual fit the observations minus the kernel's
prediction from the other edges.  Every candidate is then scored and tested
as one row of a numpy batch (``_EditBatch``), never by building its model:
the row names the targets the candidate predicts anew -- an edge edit its
one target, a DeltaShift every target at the new scale, a StructuralBreak
every target with its refit graph's coefficients -- and their squared
errors replace the working model's in that row.  A StructuralBreak's refit,
which needs the model, runs once when its row is built; only it and an
accepted edit go through ``apply_hypothesis``.  After an acceptance the
candidates still to test, remapped to the repaired model's edges, become
one more batch against it, so a trigger builds at most ``max_accepts``
batches.  The kernel is rebuilt only when an accepted StructuralBreak has
replaced the history.  A candidate the edited graph would refuse, or whose
predictions leave the float range, is refused by its row alone.  Every
score and holdout MSE is bit-identical to rolling each candidate's model
out afresh.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

import numpy as np

from .core import (
    CausalLoopError,
    ConfigError,
    DomainError,
    NotEnoughDataError,
    NotIdentifiableError,
    PredictionError,
    Transition,
)
# Not called here: perfbench/bench_layers.py wraps reflect.loss, so the
# name stays importable from this module.
from .core import loss  # noqa: F401
from .model import (
    CausalModel,
    append_history,
    estimate_delta,
    rollout,
    _LagFeatures,
    _add_up,
    _by_target,
    _edge_sums,
    _fold,
    _least_squares,
)
from .scenario import json_number, json_typed
from .world import CausalEdge, Form, SourceKind, VarRef

# Fraction of tau below which a row counts as "explained" when delimiting
# the anomalous suffix.
SUFFIX_FLOOR_FRACTION = 0.25


# ---------------------------------------------------------------------------
# Hypothesis variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaShift:
    new_delta: float


@dataclass(frozen=True)
class CoefChange:
    edge_index: int
    new_coefficient: float


@dataclass(frozen=True)
class DelayChange:
    edge_index: int
    new_delay: int


@dataclass(frozen=True)
class EdgeAdd:
    source: VarRef
    target: int
    delay: int
    form: Form
    coefficient: float  # resolved at generation time


@dataclass(frozen=True)
class EdgeRemove:
    edge_index: int


@dataclass(frozen=True)
class StructuralBreak:
    keep: int  # trailing transitions retained after the history flush


Hypothesis = DeltaShift | CoefChange | DelayChange | EdgeAdd | EdgeRemove | StructuralBreak

# Acceptance order on score ties: parameter edits before structural ones,
# and the decay-stable coefficient edit before the transient delta edit --
# accepting a decaying delta for a persistent discrepancy would only
# re-trigger once the pull-to-zero erodes it.
_KIND_RANK = {
    CoefChange: 0,
    DeltaShift: 1,
    DelayChange: 2,
    EdgeRemove: 3,
    EdgeAdd: 4,
    StructuralBreak: 5,
}


def _tie_key(h: Hypothesis) -> tuple:
    if isinstance(h, DeltaShift):
        return (_KIND_RANK[DeltaShift], h.new_delta)
    if isinstance(h, CoefChange):
        return (_KIND_RANK[CoefChange], h.edge_index, h.new_coefficient)
    if isinstance(h, DelayChange):
        return (_KIND_RANK[DelayChange], h.edge_index, h.new_delay)
    if isinstance(h, EdgeRemove):
        return (_KIND_RANK[EdgeRemove], h.edge_index)
    if isinstance(h, EdgeAdd):
        return (_KIND_RANK[EdgeAdd], h.target, *h.source.sort_key(), h.delay)
    return (_KIND_RANK[StructuralBreak], h.keep)


@dataclass(frozen=True)
class HypothesisScore:
    hypothesis: Hypothesis
    score: float


@dataclass(frozen=True)
class ReflectSettings:
    budget: int = 32
    max_accepts: int = 2
    holdout: int = 8
    rho: float = 0.1
    k_max: int = 8


@dataclass(frozen=True)
class ReflectReport:
    triggered: bool  # always True: perfbench/bench_layers.py reads it
    epsilon: float
    tau: float
    candidates: tuple[HypothesisScore, ...]
    accepted: tuple[Hypothesis, ...]
    updated_model: CausalModel


# ---------------------------------------------------------------------------
# Trigger
# ---------------------------------------------------------------------------


def detect_mismatch(err: PredictionError, tau: float) -> bool:
    """Strictly above tau counts as a mismatch; at or below does not."""
    return err.epsilon > tau


# ---------------------------------------------------------------------------
# Applying hypotheses
# ---------------------------------------------------------------------------


def _clamped(m: CausalModel, delta: float) -> float:
    return max(-m.delta_max, min(m.delta_max, delta))


def apply_hypothesis(m: CausalModel, h: Hypothesis) -> CausalModel:
    """A copy of ``m`` with the edit applied; the input is untouched."""
    if isinstance(h, DeltaShift):
        return replace(m, delta_hat=_clamped(m, h.new_delta))
    if isinstance(h, CoefChange):
        edges = list(m.graph.edges)
        edges[h.edge_index] = replace(edges[h.edge_index], coefficient=h.new_coefficient)
        return replace(m, graph=replace(m.graph, edges=tuple(edges)))
    if isinstance(h, DelayChange):
        edges = list(m.graph.edges)
        edges[h.edge_index] = replace(edges[h.edge_index], delay=h.new_delay)
        return replace(m, graph=replace(m.graph, edges=tuple(edges)))
    if isinstance(h, EdgeRemove):
        edges = tuple(e for i, e in enumerate(m.graph.edges) if i != h.edge_index)
        return replace(m, graph=replace(m.graph, edges=edges))
    if isinstance(h, EdgeAdd):
        new_edge = CausalEdge(
            source=h.source, target=h.target, delay=h.delay, coefficient=h.coefficient, form=h.form
        )
        return replace(m, graph=replace(m.graph, edges=m.graph.edges + (new_edge,)))
    # StructuralBreak: flush stale history, then refit whatever the kept
    # suffix supports; dims the suffix cannot support keep their coefficients.
    flushed = replace(m, history=m.history[-h.keep :] if h.keep > 0 else ())
    return _least_squares(flushed, _LagFeatures(flushed.history, flushed.history), strict=False)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


class _Baseline:
    """A model's per-row errors over rows ``[lo, hi)`` of a kernel.

    Computed once and shared by every score or test against that model:
    ``targets[k]`` is target dimension k's predictions from ``incoming[k]``,
    its edges in graph order (``position`` gives each edge's place there),
    ``sq`` is each row's ``(o - p) ** 2`` added over dimensions from 0.0,
    and ``dead`` masks the rows that are not predictable.  ``sq / d`` is
    the row's :func:`loss` epsilon to the bit.  :meth:`edit` states a
    candidate as the targets it predicts anew, which is how
    :class:`_EditBatch` scores it.
    """

    def __init__(
        self, m: CausalModel, lags: _LagFeatures, lo: int = 0, hi: int | None = None
    ) -> None:
        self.m = m
        self.lags = lags
        self.lo = lo
        self.hi = len(lags.rows) if hi is None else hi
        self.d = m.graph.d_state
        self.scale = math.exp(-m.delta_hat)
        self.incoming: list[list[CausalEdge]] = [[] for _ in range(self.d)]
        self.position: list[int] = []  # each edge's place in its target's list
        for e in m.graph.edges:
            self.position.append(len(self.incoming[e.target]))
            self.incoming[e.target].append(e)
        self.targets = lags.predict(list(enumerate(self.incoming)), self.scale)
        self.sq, self.dead = lags.sq_errors(self.targets, lo, self.hi)

    @staticmethod
    def over(m: CausalModel, rows: Sequence[Transition]) -> _Baseline:
        return _Baseline(m, _LagFeatures(m.history, rows))

    def edit(self, h: Hypothesis) -> tuple[float, dict[int, list[CausalEdge]]]:
        """The target dimensions ``apply_hypothesis(m, h)`` predicts anew:
        its scale, and each such target's incoming edges in graph order.  A
        coefficient, delay, removal or addition replaces one target's list;
        a DeltaShift keeps every list at the clamped delta; a
        StructuralBreak gives every target its refit graph's edges.  Every
        other target predicts as this model's, to the bit.

        Raises :class:`ConfigError` for an edge index outside the graph,
        and wherever building the edited graph would: a new edge's delay
        below 1 or coefficient not finite, its source or target out of
        range, or its (source, delay) already feeding the edited target.  A
        StructuralBreak raises what its refit raises.
        """
        m = self.m
        if isinstance(h, DeltaShift):
            return math.exp(-_clamped(m, h.new_delta)), dict(enumerate(self.incoming))
        if isinstance(h, StructuralBreak):
            refit = apply_hypothesis(m, h)
            return math.exp(-refit.delta_hat), dict(enumerate(_by_target(refit.graph)))
        edges = m.graph.edges
        if isinstance(h, EdgeAdd):
            new: CausalEdge | None = CausalEdge(h.source, h.target, h.delay, h.coefficient, h.form)
            m.graph.check_in_range(new)
            k = h.target
            at = len(self.incoming[k])
        elif not 0 <= h.edge_index < len(edges):
            raise ConfigError(f"edge index {h.edge_index} outside a graph of {len(edges)} edges")
        else:
            old = edges[h.edge_index]
            k = old.target
            at = self.position[h.edge_index]
            if isinstance(h, EdgeRemove):
                new = None
            elif isinstance(h, CoefChange):
                new = CausalEdge(old.source, k, old.delay, h.new_coefficient, old.form)
            else:
                new = CausalEdge(old.source, k, h.new_delay, old.coefficient, old.form)
        group = list(self.incoming[k])
        if new is None:
            del group[at]
        else:
            for i, e in enumerate(group):
                if i != at and e.delay == new.delay and e.source == new.source:
                    raise ConfigError(
                        f"duplicate edge (source={new.source}, target={k}, delay={new.delay})"
                    )
            group[at : at + 1] = [new]
        return self.scale, {k: group}


def anomalous_suffix(m: CausalModel, floor: float, base: _Baseline | None = None) -> int:
    """Length of the maximal trailing run of history rows with error > floor.

    ``base``, when given, must hold ``m``'s predictions over its
    ``fit_window`` window.
    """
    if base is None:
        base = _Baseline.over(m, m.history[-m.fit_window :])
    with np.errstate(invalid="ignore"):
        stops = np.flatnonzero(base.dead | (base.sq / base.d <= floor))
    return len(base.sq) - 1 - int(stops[-1]) if len(stops) else len(base.sq)


def _residuals(
    m: CausalModel, lags: _LagFeatures, lo: int, target: int, exclude_edge: int | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The target's observed value minus its strict prediction from every
    modeled edge but ``exclude_edge``, for each kernel row from ``lo``, and
    the mask of rows where one of those edges' lags is unrecorded (None when
    there are none)."""
    others = [e for i, e in enumerate(m.graph.edges) if i != exclude_edge and e.target == target]
    return lags.residuals(others, target, math.exp(-m.delta_hat), lo)


def _residual_fit(
    m: CausalModel,
    lags: _LagFeatures,
    lo: int,
    resid: tuple[np.ndarray, np.ndarray | None],
    source: VarRef,
    delay: int,
    form: Form,
) -> float | None:
    """Single-coefficient LS: how much of the residuals ``resid`` (from
    :func:`_residuals`) the given source/delay/form accounts for over the
    kernel's rows from ``lo`` on.  ``sum(x * x)`` and ``sum(x * r)`` over
    the rows where both are recorded add left to right from 0.0.

    Returns None when the feature carries no signal on these rows.
    """
    r, dead = resid
    col, gap = lags.column(source, delay, form)
    masks = [mask for mask in (dead, None if gap is None else gap[lo:]) if mask is not None]
    keep = ~functools.reduce(operator.or_, masks) if masks else True
    with np.errstate(all="ignore"):
        x = col[lo:] * math.exp(-m.delta_hat)
        sxx, sxy = _fold(x * np.array([x, r]), keep).tolist()
    if sxx <= 1e-12:
        return None
    return sxy / sxx


def generate_hypotheses(
    m: CausalModel,
    ctx: Transition,
    err: PredictionError,
    tau: float,
    settings: ReflectSettings = ReflectSettings(),
    base: _Baseline | None = None,
) -> tuple[Hypothesis, ...]:
    """The first ``settings.budget`` distinct candidates of
    :func:`_candidates`, in its order; none past them is estimated.

    ``base``, when given, must hold ``m``'s predictions over its
    ``fit_window`` window; estimates read their lagged features from its
    kernel.
    """
    if base is None:
        base = _Baseline.over(m, m.history[-m.fit_window :])
    unique: dict[Hypothesis, None] = {}
    if settings.budget > 0:
        for h in _candidates(m, ctx, err, tau, settings, base):
            unique[h] = None
            if len(unique) == settings.budget:
                break
    return tuple(unique)


def _candidates(
    m: CausalModel,
    ctx: Transition,
    err: PredictionError,
    tau: float,
    settings: ReflectSettings,
    base: _Baseline,
) -> Iterator[Hypothesis]:
    """Every candidate edit, repeats included, each estimated when reached.

    A lone DeltaShift (when identifiable) comes first.  Each state
    dimension whose share of the error exceeds tau / d_state then gets, in
    index order, coefficient changes (the grid, then a residual refit),
    delay changes, removals and linear edge additions.  A lone
    StructuralBreak comes last.
    """
    d_state = m.graph.d_state
    offending = [j for j in range(d_state) if err.per_dim[j] > tau / d_state]
    suffix = max(1, anomalous_suffix(m, tau * SUFFIX_FLOOR_FRACTION, base=base))
    est_lo = max(0, len(base.lags.rows) - suffix)

    # DeltaShift from the single worst dimension of the triggering context.
    j_star = max(range(d_state), key=lambda j: err.per_dim[j])
    rows, last = base.lags.rows, len(base.lags.rows) - 1
    if rows and rows[last] is ctx and base.lo <= last < base.hi:
        # The window ends with ctx, as in reflect: its prediction is in hand.
        pred = None if base.dead[last - base.lo] else [t.pred[last].item() for t in base.targets]
    else:
        pred = rollout(m.graph, m.delta_hat, m.history, [ctx])[0]
    if pred is not None:
        pred_eff = pred[j_star] - ctx.tuple.state[j_star]
        obs_eff = ctx.observed[j_star] - ctx.tuple.state[j_star]
        try:
            correction = estimate_delta(m, pred_eff, obs_eff).delta
        except NotIdentifiableError:
            correction = None
        if correction is not None:
            new_delta = _clamped(m, m.delta_hat + correction)
            if new_delta != m.delta_hat:
                yield DeltaShift(new_delta)

    existing_triples = {(e.source, e.target, e.delay) for e in m.graph.edges}
    existing_pairs = {(e.source, e.target) for e in m.graph.edges}

    for j in offending:
        incoming = m.graph.incoming(j)
        for edge_index, e in incoming:
            for c in (-e.coefficient, 0.5 * e.coefficient, 2.0 * e.coefficient, None):
                if c is None:  # the residual refit
                    resid = _residuals(m, base.lags, est_lo, j, edge_index)
                    c = _residual_fit(m, base.lags, est_lo, resid, e.source, e.delay, e.form)
                if c is not None and math.isfinite(c) and c != e.coefficient:
                    yield CoefChange(edge_index, c)
        for edge_index, e in incoming:
            for k in (e.delay + 1, e.delay - 1, e.delay + 2, e.delay - 2):
                if not 1 <= k <= settings.k_max or k == e.delay:
                    continue
                if (e.source, e.target, k) in existing_triples:
                    continue
                yield DelayChange(edge_index, k)
        for edge_index, _ in incoming:
            yield EdgeRemove(edge_index)
        sources = [VarRef.action(i) for i in range(m.graph.d_action)] + [
            VarRef.state(i) for i in range(d_state)
        ]
        resid = _residuals(m, base.lags, est_lo, j, None)
        for src in sources:
            if (src, j) in existing_pairs:
                continue
            for delay in (1, 2):
                coef = _residual_fit(m, base.lags, est_lo, resid, src, delay, Form.LINEAR)
                if coef is None or not math.isfinite(coef) or coef == 0.0:
                    continue
                yield EdgeAdd(src, j, delay, Form.LINEAR, coef)

    yield StructuralBreak(keep=suffix)


# ---------------------------------------------------------------------------
# Scoring and testing
# ---------------------------------------------------------------------------


def score_hypothesis(m: CausalModel, h: Hypothesis, window: Sequence[Transition]) -> float:
    """Likelihood gained by ``h`` over the current model on ``window``.

    Under an isotropic Gaussian observation model with stddev sigma_lik,
    the log-likelihood difference per row reduces to
    (|obs - pred_current|^2 - |obs - pred_h|^2) / (2 sigma_lik^2); rows
    either model cannot predict (unresolvable lags) are skipped for both.
    A batch of one (:class:`_EditBatch`), refusing as it does.
    """
    if not window:
        return 0.0
    return _EditBatch(_Baseline.over(m, window), [h], len(window)).score(0)


def test_hypothesis(
    m: CausalModel, h: Hypothesis, holdout: Sequence[Transition], rho: float
) -> tuple[bool, float, float]:
    """Accept iff the edit cuts holdout MSE by at least the fraction rho.

    Returns (accepted, holdout MSE of the current model, holdout MSE under
    the edit).  A batch of one (:class:`_EditBatch`), refusing as it does;
    an empty holdout raises :class:`NotEnoughDataError`.
    """
    if not holdout:
        raise NotEnoughDataError("empty holdout")
    return _EditBatch(_Baseline.over(m, holdout), [h], 0).test(0, rho)


class _EditBatch:
    """Every candidate of ``hs`` scored over rows ``[base.lo, split)`` and
    tested over rows ``[split, base.hi)`` of ``base``'s kernel, against
    ``base``, the baseline of the model the candidates edit.

    Each candidate is one row of a (candidates x dimensions x rows) array of
    squared errors, which holds the baseline's except in the targets
    :meth:`_Baseline.edit` says the candidate predicts anew.  Each of those
    is predicted over every kernel row as its edge sum in graph order --
    ``coefficient * feature * scale`` per edge, a lag's gap adding 0.0 --
    added to the recorded state, and squared with ``np.float_power``.  A
    row's squared errors are added over dimensions in order, its score and
    two holdout means over rows, each sum left to right from 0.0 (see
    :mod:`causalloop.model`).  A row counts where both models predict it.

    A candidate is refused by its row alone, with the class and reach of
    building its model and rolling it out:

    * :class:`ConfigError`, or what a refit raises, wherever
      :meth:`_Baseline.edit` raises;
    * :class:`DomainError` when an edited target's finite prediction error
      squares beyond the float range on any kernel row, a prediction of
      the edited model is not finite on a row it predicts in the range read,
      or its score is not finite (a tiny ``sigma_lik`` can take it there);
    * :class:`NotEnoughDataError` from :meth:`test` when no holdout row is
      predicted by both models.

    A score over an empty range is 0.0 and refuses nothing.
    """

    def __init__(self, base: _Baseline, hs: Sequence[Hypothesis], split: int) -> None:
        self.base = base
        self.hs = hs
        self.split = split
        self._scores: list[float | CausalLoopError] = [0.0] * len(hs)
        self._tests: list[tuple[float, float] | CausalLoopError] = [(0.0, 0.0)] * len(hs)
        lags = base.lags
        # Column 0 is all zeros: the padding (coefficient 0.0) of a target
        # with fewer edges than the widest.
        columns: list[np.ndarray] = [np.zeros(len(lags.rows))]
        gaps: dict[int, np.ndarray] = {}  # the place of each column with a gap -> its mask
        at_column: dict[int, int] = {}  # id of a kernel column -> its place in ``columns``

        def place_of(e: CausalEdge) -> int:
            col, gap, _ = lags._edge_column(e)
            p = at_column.get(id(col))
            if p is None:
                p = at_column[id(col)] = len(columns)
                columns.append(col)
                if gap is not None:
                    gaps[p] = gap
            return p

        # The model's edges stay alive in ``base.incoming``, so their ids
        # are theirs alone; an edit's new edge is looked up in the kernel.
        known = {id(e): place_of(e) for group in base.incoming for e in group}
        # (candidate, target, column place of each edge, coefficient of each,
        # scale) for each target a candidate predicts anew
        subs: list[tuple[int, int, list[int], list[float], float]] = []
        for i, h in enumerate(hs):
            try:
                scale, replaced = base.edit(h)
            except CausalLoopError as exc:
                self._scores[i] = exc if split > base.lo else 0.0
                self._tests[i] = exc
                continue
            for k, group in replaced.items():
                places = [known.get(id(e)) or place_of(e) for e in group]
                subs.append((i, k, places, [e.coefficient for e in group], scale))
        if subs:
            self._predict(subs, columns, gaps)

    def score(self, i: int) -> float:
        """:func:`score_hypothesis` of candidate ``i``."""
        score = self._scores[i]
        if isinstance(score, CausalLoopError):
            raise score
        return score

    def test(self, i: int, rho: float) -> tuple[bool, float, float]:
        """:func:`test_hypothesis` of candidate ``i``."""
        mses = self._tests[i]
        if isinstance(mses, CausalLoopError):
            raise mses
        return mses[1] <= (1.0 - rho) * mses[0], *mses

    def _predict(self, subs: list[tuple], columns: list[np.ndarray], gaps: dict[int, np.ndarray]) -> None:
        base, lags, count = self.base, self.base.lags, len(self.hs)
        lo, hi, d, s = base.lo, base.hi, base.d, self.split - base.lo
        n = len(lags.rows)
        cand, target, places, coefs, scale = map(list, zip(*subs))
        cand, target, scale = np.array(cand), np.array(target), np.array(scale)
        width = max(map(len, places))
        place = np.array([p + [0] * (width - len(p)) for p in places], dtype=int)
        coef = np.array([c + [0.0] * (width - len(c)) for c in coefs])
        with np.errstate(all="ignore"):
            pred = lags._states[target] + _edge_sums(coef, np.array(columns)[place], scale[:, None])
            diff = lags._observed[target] - pred
            sq_k = np.float_power(diff, 2.0)
        overflow = np.zeros(count, dtype=bool)  # a finite error squares past the float range
        if not np.isfinite(sq_k).all():
            overflow[cand[(np.isfinite(diff) & np.isinf(sq_k)).any(axis=1)]] = True

        # Each candidate's (dimension x row) values over the range: the
        # model's, or the candidate's in a dimension it predicts anew.
        def per_candidate(of_model: np.ndarray, of_subs: np.ndarray) -> np.ndarray:
            out = np.repeat(of_model[None, :, lo:hi], count, axis=0)
            out[cand, target] = of_subs[:, lo:hi]
            return out

        sq_h = _add_up(per_candidate(np.array([t.sq for t in base.targets]), sq_k))
        dead = np.zeros((count, hi - lo), dtype=bool)  # rows the edited model leaves out
        if gaps:  # the model's own edges are all placed, so it has no dead row without one
            gap = np.zeros((len(columns), n), dtype=bool)
            for p, mask in gaps.items():
                gap[p] = mask
            dead_k = np.zeros((d, n), dtype=bool)
            for k, t in enumerate(base.targets):
                if t.dead is not None:
                    dead_k[k] = t.dead
            dead = per_candidate(dead_k, gap[place].any(axis=1)).any(axis=1)
        bad = None  # rows it predicts with a prediction not finite, if any
        finite_k = np.isfinite(pred)
        if not (finite_k.all() and all(t.finite for t in base.targets)):
            finite = per_candidate(np.isfinite(np.array([t.pred for t in base.targets])), finite_k)
            bad = ~dead & ~finite.all(axis=1)

        sq_m = base.sq
        live = ~base.dead & ~dead
        held = live[:, s:]
        counts = held.sum(axis=1).tolist()
        two_var = 2.0 * base.m.sigma_lik**2
        with np.errstate(all="ignore"):
            if s > 0:
                scores = _fold((sq_m[:s] - sq_h[:, :s]) / two_var, live[:, :s]).tolist()
            # The model's holdout mean beside each candidate's, over that candidate's rows.
            means = _fold(
                np.concatenate([np.broadcast_to(sq_m[s:] / d, held.shape), sq_h[:, s:] / d]),
                np.concatenate([held, held]),
            ) / np.tile(counts, 2)
            mse_m, mse_h = means[:count].tolist(), means[count:].tolist()

        def refused(rows: slice, found: list[int]) -> list[CausalLoopError | None]:
            """Each candidate's refusal over ``rows``, where ``found`` of
            them are predicted by both models (a score needs none)."""
            nonfinite = [False] * count if bad is None else bad[:, rows].any(axis=1).tolist()
            return [
                DomainError("a prediction of the edited model is not finite") if bad_row
                else DomainError("a squared prediction error exceeds the float range") if over
                else None if rows_found else NotEnoughDataError("no predictable holdout rows")
                for bad_row, over, rows_found in zip(nonfinite, overflow.tolist(), found)
            ]

        score_refused, test_refused = refused(slice(0, s), [1] * count), refused(slice(s, None), counts)
        for i in dict.fromkeys(cand.tolist()):
            if s > 0:
                infinite = None if math.isfinite(scores[i]) else DomainError("a candidate's score is not finite")
                self._scores[i] = score_refused[i] or infinite or scores[i]
            self._tests[i] = test_refused[i] or (mse_m[i], mse_h[i])


# ---------------------------------------------------------------------------
# Index remapping for sequential acceptance
# ---------------------------------------------------------------------------


def _remap(h: Hypothesis, index_map: dict[int, int]) -> Hypothesis | None:
    """Translate original edge indices to the working graph; None if gone."""
    if isinstance(h, (CoefChange, DelayChange, EdgeRemove)):
        pos = index_map.get(h.edge_index)
        if pos is None:
            return None
        return h if pos == h.edge_index else replace(h, edge_index=pos)
    return h


def _update_map(h: Hypothesis, index_map: dict[int, int]) -> dict[int, int]:
    if isinstance(h, EdgeRemove):
        removed = h.edge_index
        out = {}
        for orig, pos in index_map.items():
            if pos == removed:
                continue
            out[orig] = pos - 1 if pos > removed else pos
        return out
    return index_map


# ---------------------------------------------------------------------------
# The full loop
# ---------------------------------------------------------------------------


def reflect(
    m: CausalModel,
    ctx: Transition,
    err: PredictionError,
    tau: float,
    settings: ReflectSettings = ReflectSettings(),
) -> ReflectReport:
    """Generate, rank, test, and greedily accept model edits.

    ``err`` is the mismatch the caller measured on ``ctx`` and found above
    tau (:func:`detect_mismatch`); reflect acts on it and does not predict
    ``ctx`` again.  ``ctx`` must be the last history entry or come one tick
    after it, and is then appended; :func:`append_history` raises
    :class:`DomainError` for any other ``ctx``.
    """
    if not m.history or m.history[-1] != ctx:
        m = append_history(m, ctx)

    # One kernel serves the whole trigger: ctx is the window's last row.
    window = m.history[-m.fit_window :]
    lags = _LagFeatures(m.history, window)
    h_lo = len(window) - len(window[-settings.holdout :])
    holdout = window[h_lo:]

    base = _Baseline(m, lags)
    candidates = generate_hypotheses(m, ctx, err, tau, settings, base=base)
    batch: _EditBatch | None = _EditBatch(base, candidates, h_lo)
    try:
        scored = [(i, HypothesisScore(h, batch.score(i))) for i, h in enumerate(candidates)]
    except CausalLoopError as exc:
        raise type(exc)(f"tick {ctx.tuple.time.tick}: {exc}") from exc
    ranked = sorted(scored, key=lambda item: (-item[1].score, _tie_key(item[1].hypothesis)))

    # Tests run in rank order.  An acceptance changes the working model, so
    # the candidates still to test, remapped to its edges, become one more
    # batch against it: at most ``max_accepts`` batches in all.
    working = m
    index_map = {i: i for i in range(len(m.graph.edges))}
    rows = {i: i for i in range(len(candidates))}  # candidate -> its row of ``batch``
    accepted: list[Hypothesis] = []
    for pos, (i, hs) in enumerate(ranked):
        if len(accepted) >= settings.max_accepts:
            break
        if batch is None:
            rest = [(j, _remap(later.hypothesis, index_map)) for j, later in ranked[pos:]]
            rest = [(j, h) for j, h in rest if h is not None]
            try:
                base = _Baseline(working, lags, h_lo, len(lags.rows))
            except CausalLoopError:
                break  # a non-finite holdout prediction: every later test would raise on it
            batch = _EditBatch(base, [h for _, h in rest], h_lo)
            rows = {j: r for r, (j, _) in enumerate(rest)}
        r = rows.get(i)
        if r is None:
            continue  # its edge was removed
        try:
            ok, _, _ = batch.test(r, settings.rho)
        except CausalLoopError:
            continue
        if not ok:
            continue
        h = batch.hs[r]
        working = apply_hypothesis(working, h)
        index_map = _update_map(h, index_map)
        accepted.append(hs.hypothesis)
        batch = None
        if isinstance(h, StructuralBreak):  # the history changed: a kernel over the holdout
            lags, h_lo = _LagFeatures(working.history, holdout), 0

    return ReflectReport(
        triggered=True,
        epsilon=err.epsilon,
        tau=tau,
        candidates=tuple(hs for _, hs in ranked),
        accepted=tuple(accepted),
        updated_model=working,
    )


# ---------------------------------------------------------------------------
# Serialization (used by trace records)
# ---------------------------------------------------------------------------


def hypothesis_to_dict(h: Hypothesis) -> dict[str, Any]:
    if isinstance(h, DeltaShift):
        return {"kind": "delta_shift", "new_delta": h.new_delta}
    if isinstance(h, CoefChange):
        return {"kind": "coef_change", "edge_index": h.edge_index, "new_coefficient": h.new_coefficient}
    if isinstance(h, DelayChange):
        return {"kind": "delay_change", "edge_index": h.edge_index, "new_delay": h.new_delay}
    if isinstance(h, EdgeRemove):
        return {"kind": "edge_remove", "edge_index": h.edge_index}
    if isinstance(h, EdgeAdd):
        return {
            "kind": "edge_add",
            "source": {"kind": h.source.kind.value, "index": h.source.index},
            "target": h.target,
            "delay": h.delay,
            "form": h.form.value,
            "coefficient": h.coefficient,
        }
    return {"kind": "structural_break", "keep": h.keep}


def hypothesis_from_dict(d: Any) -> Hypothesis:
    """The edit :func:`hypothesis_to_dict` wrote, each field read as its JSON
    type; TypeError, KeyError or ValueError for anything else."""
    kind = json_typed(d, dict, name="edit")["kind"]

    def integer(key: str) -> int:
        return json_typed(d[key], int, name=key)

    def number(key: str) -> float:
        return json_number(d[key], name=key)

    if kind == "delta_shift":
        return DeltaShift(number("new_delta"))
    if kind == "coef_change":
        return CoefChange(integer("edge_index"), number("new_coefficient"))
    if kind == "delay_change":
        return DelayChange(integer("edge_index"), integer("new_delay"))
    if kind == "edge_remove":
        return EdgeRemove(integer("edge_index"))
    if kind == "edge_add":
        source = json_typed(d["source"], dict, name="source")
        return EdgeAdd(
            VarRef(SourceKind(source["kind"]), json_typed(source["index"], int, name="index")),
            integer("target"),
            integer("delay"),
            Form(d["form"]),
            number("coefficient"),
        )
    if kind == "structural_break":
        return StructuralBreak(integer("keep"))
    raise ValueError(f"unknown edit kind {kind!r}")
