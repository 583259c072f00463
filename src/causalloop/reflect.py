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
over the model's ``fit_window`` window.  The working model's per-target
predictions and per-row squared errors are computed once and shared by
every score and test, and each candidate is scored and tested as an edit to
them, without building its model.  Before the first acceptance every
CoefChange, DelayChange, EdgeRemove and EdgeAdd is scored and tested in one
numpy batch (``_EditBatch``): one row of a (candidates x window rows) array
per edit, holding its edited target's edge sum in graph order, whose
squared errors are added to the working model's other targets in dimension
order, with every sum a cumsum from a leading 0.0.  The rest go one at a
time through ``score_hypothesis`` and ``test_hypothesis``: a DeltaShift,
which re-predicts the unchanged graph at the new scale; a StructuralBreak,
whose refit needs the model; an edit the batch cannot settle (it raises, or
some squared error is not finite), so that it is refused where it always
was; and every test after an acceptance, against the repaired model.  One
at a time, an edge edit becomes one target's new edge list, so only that
target is predicted again.  Either way the edit keeps the checks building
the edited graph would make, and only a StructuralBreak and an accepted
edit go through ``apply_hypothesis``.  ``anomalous_suffix`` reads the
working model's errors, and a residual fit the observations minus the
kernel's prediction from the other edges.  After an acceptance only the
baseline is recomputed, and the kernel is rebuilt only when an accepted
StructuralBreak has replaced the history.  Every score and holdout MSE is
bit-identical to rolling each candidate's model out afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

import numpy as np

from .core import (
    CausalLoopError,
    ConfigError,
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
    _Target,
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
    kept = m.history[-h.keep :] if h.keep > 0 else ()
    return _least_squares(replace(m, history=kept), kept, strict=False)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


class _Baseline:
    """A model's per-row errors over rows ``[lo, hi)`` of a kernel, and the
    predictions of any edit of that model.

    Computed once and shared by every score or test against that model:
    ``targets[k]`` is target dimension k's predictions from ``incoming[k]``,
    its edges in graph order (``position`` gives each edge's place there),
    and ``sq`` is each row's ``(o - p) ** 2`` added over dimensions from
    0.0, None where the row is not predictable.  ``sq / d`` is the row's
    :func:`loss` epsilon to the bit.

    :meth:`edited` scores an edit as a delta to these predictions: a
    coefficient, delay, removal or addition becomes (target, that target's
    new edge list in graph order, scale) through :meth:`edit`, so only that
    target is predicted again and every other target is this baseline's
    object; a DeltaShift re-predicts the unchanged graph at the clamped
    delta.  No graph is built, and the results equal those of
    ``apply_hypothesis(m, h)``'s graph to the bit.
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
        self.targets = [lags._target(k, g, self.scale) for k, g in enumerate(self.incoming)]
        self.sq = lags.sq_errors(self.targets, lo, self.hi)

    @staticmethod
    def over(m: CausalModel, rows: Sequence[Transition]) -> _Baseline:
        return _Baseline(m, _LagFeatures(m.history, rows))

    def edit(self, h: Hypothesis) -> tuple[int, int, CausalEdge | None] | None:
        """An edge edit as ``(k, at, new)``: target dimension k's incoming
        edges in graph order with the one at position ``at`` replaced by
        ``new``, or removed when ``new`` is None, or with ``new`` appended
        when ``at`` is their number.  None for a DeltaShift, a
        StructuralBreak and an edge index outside the graph.

        Raises :class:`ConfigError` wherever building the edited graph
        would: a new edge's delay below 1 or coefficient not finite, its
        source or target out of range, or its (source, delay) already
        feeding the edited target.
        """
        edges = self.m.graph.edges
        if isinstance(h, EdgeAdd):
            new: CausalEdge | None = CausalEdge(h.source, h.target, h.delay, h.coefficient, h.form)
            self.m.graph.check_in_range(new)
            k = h.target
            at = len(self.incoming[k])
        elif isinstance(h, (DeltaShift, StructuralBreak)) or not 0 <= h.edge_index < len(edges):
            return None
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
        if new is not None:
            for i, e in enumerate(self.incoming[k]):
                if i != at and e.delay == new.delay and e.source == new.source:
                    raise ConfigError(
                        f"duplicate edge (source={new.source}, target={k}, delay={new.delay})"
                    )
        return k, at, new

    def edited(self, h: Hypothesis) -> list[_Target]:
        """Every target dimension of ``apply_hypothesis(m, h)``, in order.

        An edge edit predicts only the target :meth:`edit` names again, and
        raises where it does; a DeltaShift re-predicts the unchanged graph,
        and a StructuralBreak (its refit needs the model) and an edge index
        outside the graph go through :func:`apply_hypothesis` itself.
        """
        m = self.m
        if isinstance(h, DeltaShift):
            return self.lags.targets(m.graph, _clamped(m, h.new_delta))
        edit = self.edit(h)
        if edit is None:
            applied = apply_hypothesis(m, h)
            return self.lags.targets(applied.graph, applied.delta_hat)
        k, at, new = edit
        group = list(self.incoming[k])
        group[at : at + 1] = [] if new is None else [new]
        targets = list(self.targets)
        targets[k] = self.lags._target(k, group, self.scale)
        return targets

    def mse(self, targets: list[_Target]) -> tuple[float, float] | None:
        """Mean loss epsilon of this model and of the one ``targets``
        predicts (an :meth:`edited` result, or the kernel's targets of
        another model) over the rows both predict; None when there are
        none."""
        sq_os = self.lags.sq_errors(targets, self.lo, self.hi)
        sq_m = sq_o = 0.0
        n = 0
        for row_m, row_o in zip(self.sq, sq_os):
            if row_m is None or row_o is None:
                continue
            sq_m += row_m / self.d
            sq_o += row_o / self.d
            n += 1
        return None if n == 0 else (sq_m / n, sq_o / n)


def anomalous_suffix(m: CausalModel, floor: float, base: _Baseline | None = None) -> int:
    """Length of the maximal trailing run of history rows with error > floor.

    ``base``, when given, must hold ``m``'s predictions over its
    ``fit_window`` window.
    """
    if base is None:
        base = _Baseline.over(m, m.history[-m.fit_window :])
    count = 0
    for sq in reversed(base.sq):
        if sq is None or sq / base.d <= floor:
            break
        count += 1
    return count


def _residuals(
    m: CausalModel, lags: _LagFeatures, lo: int, target: int, exclude_edge: int | None
) -> list[float | None]:
    """The target's observed value minus its strict prediction from every
    modeled edge but ``exclude_edge``, for each kernel row from ``lo``; None
    where one of those edges' lags is unrecorded."""
    others = [e for i, e in enumerate(m.graph.edges) if i != exclude_edge and e.target == target]
    return lags.residuals(others, target, math.exp(-m.delta_hat), lo)


def _residual_fit(
    m: CausalModel,
    lags: _LagFeatures,
    lo: int,
    resid: list[float | None],
    source: VarRef,
    delay: int,
    form: Form,
) -> float | None:
    """Single-coefficient LS: how much of the residuals ``resid`` (from
    :func:`_residuals`) the given source/delay/form accounts for over the
    kernel's rows from ``lo`` on.

    Returns None when the feature carries no signal on these rows.
    """
    scale = math.exp(-m.delta_hat)
    sxx = 0.0
    sxy = 0.0
    for fv, r in zip(lags.column(source, delay, form)[0][lo:], resid):
        if fv is None or r is None:
            continue
        x = fv * scale
        sxx += x * x
        sxy += x * r
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


def score_hypothesis(
    m: CausalModel, h: Hypothesis, window: Sequence[Transition], base: _Baseline | None = None
) -> float:
    """Likelihood gained by ``h`` over the current model on ``window``.

    Under an isotropic Gaussian observation model with stddev sigma_lik,
    the log-likelihood difference per row reduces to
    (|obs - pred_current|^2 - |obs - pred_h|^2) / (2 sigma_lik^2); rows
    either model cannot predict (unresolvable lags) are skipped for both.
    ``base``, when given, must hold ``m``'s predictions over ``window``.
    """
    if not window:
        return 0.0
    if base is None:
        base = _Baseline.over(m, window)
    sq_hs = base.lags.sq_errors(base.edited(h), base.lo, base.hi)
    two_var = 2.0 * m.sigma_lik**2
    total = 0.0
    for sq_m, sq_h in zip(base.sq, sq_hs):
        if sq_m is None or sq_h is None:
            continue
        total += (sq_m - sq_h) / two_var
    return total


def test_hypothesis(
    m: CausalModel,
    h: Hypothesis,
    holdout: Sequence[Transition],
    rho: float,
    base: _Baseline | None = None,
) -> tuple[bool, float, float]:
    """Accept iff the edit cuts holdout MSE by at least the fraction rho.

    Returns (accepted, holdout MSE of the current model, holdout MSE under
    the edit).  Raises :class:`NotEnoughDataError` when no holdout row is
    predictable under both models.  ``base``, when given, must hold
    ``m``'s predictions over ``holdout``.
    """
    if not holdout:
        raise NotEnoughDataError("empty holdout")
    if base is None:
        base = _Baseline.over(m, holdout)
    return _verdict(base.mse(base.edited(h)), rho)


def _verdict(mses: tuple[float, float] | None, rho: float) -> tuple[bool, float, float]:
    if mses is None:
        raise NotEnoughDataError("no predictable holdout rows")
    mse_m, mse_h = mses
    return mse_h <= (1.0 - rho) * mse_m, mse_m, mse_h


def _fold(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row of ``values`` added left to right from 0.0, skipping the
    entries ``keep`` masks out (each adds +0.0 instead)."""
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    out[:, 1:] = np.where(keep, values, 0.0)
    return np.cumsum(out, axis=1)[:, -1]


class _EditBatch:
    """Every candidate of ``hs`` scored over kernel rows ``[0, split)`` and
    tested over rows ``[split, n)`` against ``base``, a model's baseline
    over all ``n`` rows of its kernel, as :func:`score_hypothesis` and
    :func:`test_hypothesis` would score and test it, to the bit.

    Each CoefChange, DelayChange, EdgeRemove and EdgeAdd that
    :meth:`_Baseline.edit` turns into an edge list is one row of a
    (candidates x rows) array: the edited target's edge sum in graph order,
    its squared errors added to the baseline's other targets in dimension
    order, and the score and the two holdout means summed over rows, each
    sum a cumsum from a leading 0.0 (see :mod:`causalloop.model`).  Every
    other candidate goes through those two functions, which refuse it where
    they always have: a DeltaShift, a StructuralBreak, an edit that raises,
    an edit with a non-finite squared error on some row, and every candidate
    when the model has a non-finite prediction.  An edit with no holdout row
    both models predict raises :class:`NotEnoughDataError` from
    :meth:`test`, as the function does.
    """

    def __init__(self, base: _Baseline, hs: Sequence[Hypothesis], split: int) -> None:
        self.base = base
        self.hs = hs
        self.split = split
        self._row: list[int | None] = [None] * len(hs)  # candidate -> batch row
        self._score_base: _Baseline | None = None
        self._test_base: _Baseline | None = None
        # A model with a non-finite prediction is left to the functions.
        if all(t.finite for t in base.targets):
            self._predict()

    def score(self, i: int) -> float:
        """``score_hypothesis`` of candidate ``i`` over rows ``[0, split)``."""
        r = self._row[i]
        if r is not None:
            return self._scores[r]
        m, lags = self.base.m, self.base.lags
        if self._score_base is None:
            self._score_base = _Baseline(m, lags, 0, self.split)
        return score_hypothesis(m, self.hs[i], lags.rows[: self.split], base=self._score_base)

    def test(self, i: int, rho: float) -> tuple[bool, float, float]:
        """``test_hypothesis`` of candidate ``i`` over rows ``[split, n)``."""
        r = self._row[i]
        if r is not None:
            return _verdict(self._mses[r] if self._counts[r] else None, rho)
        m, lags = self.base.m, self.base.lags
        if self._test_base is None:
            self._test_base = _Baseline(m, lags, self.split, len(lags.rows))
        return test_hypothesis(m, self.hs[i], lags.rows[self.split :], rho, base=self._test_base)

    def _predict(self) -> None:
        base, lags, split = self.base, self.base.lags, self.split
        n, d = len(lags.rows), base.d
        edits, columns, gapped = self._edge_lists()
        if not edits or n == 0:
            return
        width = 1 + max(len(p) for _, _, p, _ in edits)
        place = np.array([[0, *p] + [0] * (width - 1 - len(p)) for _, _, p, _ in edits])
        coef = np.array([[0.0, *c] + [0.0] * (width - 1 - len(c)) for _, _, _, c in edits])
        target = np.array([k for _, k, _, _ in edits])
        # A row counts where the model and the edit both predict it.  The
        # edit's other targets are the model's, so it leaves out no row the
        # model keeps but one with a gap in its edited target's columns.
        live = np.broadcast_to([sq is not None for sq in base.sq], (len(edits), n))
        if gapped:
            gap = np.zeros((len(columns), n), dtype=bool)
            for g in gapped:
                gap[g] = [v is None for v in columns[g]]
                columns[g] = [0.0 if v is None else v for v in columns[g]]
            live = live & ~gap[place].any(axis=1)
        sq_m = np.array([0.0 if sq is None else sq for sq in base.sq])
        with np.errstate(all="ignore"):
            terms = coef[:, :, None] * np.array(columns)[place] * base.scale
            pred = np.array(lags._states).T[target] + np.cumsum(terms, axis=1)[:, -1]
            sq_k = np.float_power(np.array(lags._observed).T[target] - pred, 2.0)
            by_dim = np.zeros((len(edits), d + 1, n))
            by_dim[:, 1:] = [t.sq for t in base.targets]
            by_dim[np.arange(len(edits)), target + 1] = sq_k
            sq_h = np.cumsum(by_dim, axis=1)[:, -1]

            two_var = 2.0 * base.m.sigma_lik**2
            gain = (sq_m[:split] - sq_h[:, :split]) / two_var
            self._scores = _fold(gain, live[:, :split]).tolist()
            held = live[:, split:]
            counts = held.sum(axis=1)
            mse_m = _fold(np.broadcast_to(sq_m[split:] / d, held.shape), held) / counts
            mse_h = _fold(sq_h[:, split:] / d, held) / counts
        self._counts = counts.tolist()
        self._mses = list(zip(mse_m.tolist(), mse_h.tolist()))
        for r, ((i, _, _, _), finite) in enumerate(zip(edits, np.isfinite(sq_k).all(axis=1))):
            if finite:
                self._row[i] = r

    def _edge_lists(
        self,
    ) -> tuple[list[tuple[int, int, list[int], list[float]]], list[list[float | None]], list[int]]:
        """Each edge edit that :meth:`_Baseline.edit` accepts as (candidate,
        target, column of each edge in graph order, coefficient of each),
        the kernel columns they read, and which of those have a gap.
        Column 0 is all zeros: a leading 0.0 for every edge sum, and the
        padding (coefficient 0.0) of a target with fewer edges."""
        base, lags = self.base, self.base.lags
        columns: list[list[float | None]] = [[0.0] * len(lags.rows)]
        gapped: list[int] = []
        at_column: dict[int, int] = {}  # id of a kernel column -> its place in ``columns``

        def place_of(e: CausalEdge) -> int:
            col, gaps = lags.column(e.source, e.delay, e.form)
            p = at_column.get(id(col))
            if p is None:
                p = at_column[id(col)] = len(columns)
                columns.append(col)
                if gaps:
                    gapped.append(p)
            return p

        places = [[place_of(e) for e in g] for g in base.incoming]
        coefs = [[e.coefficient for e in g] for g in base.incoming]
        edits = []
        for i, h in enumerate(self.hs):
            try:
                edit = base.edit(h)
            except CausalLoopError:
                continue
            if edit is None:
                continue
            k, at, new = edit
            p, c = list(places[k]), list(coefs[k])
            if new is None:
                del p[at], c[at]
            else:  # a coefficient change keeps its edge's column
                p[at : at + 1] = [p[at] if isinstance(h, CoefChange) else place_of(new)]
                c[at : at + 1] = [new.coefficient]
            edits.append((i, k, p, c))
        return edits, columns, gapped


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
    n = len(window)
    lags = _LagFeatures(m.history, window)
    h_lo = n - len(window[-settings.holdout :])
    holdout = window[h_lo:]

    base = _Baseline(m, lags)
    candidates = generate_hypotheses(m, ctx, err, tau, settings, base=base)
    batch = _EditBatch(base, candidates, h_lo)
    ranked = sorted(
        ((i, HypothesisScore(h, batch.score(i))) for i, h in enumerate(candidates)),
        key=lambda item: (-item[1].score, _tie_key(item[1].hypothesis)),
    )

    working = m
    test_base: _Baseline | None = None  # the working model's, once it has changed
    index_map = {i: i for i in range(len(m.graph.edges))}
    accepted: list[Hypothesis] = []
    for i, hs in ranked:
        if len(accepted) >= settings.max_accepts:
            break
        h = _remap(hs.hypothesis, index_map)
        if h is None:
            continue
        try:
            if test_base is None:
                ok, _, _ = batch.test(i, settings.rho)
            else:
                ok, _, _ = test_hypothesis(working, h, holdout, settings.rho, base=test_base)
        except CausalLoopError:
            continue
        if not ok:
            continue
        working = apply_hypothesis(working, h)
        index_map = _update_map(h, index_map)
        accepted.append(hs.hypothesis)
        try:
            if isinstance(h, StructuralBreak):
                test_base = _Baseline.over(working, holdout)
            elif test_base is None:
                test_base = _Baseline(working, lags, h_lo, n)
            else:
                test_base = _Baseline(working, test_base.lags, test_base.lo, test_base.hi)
        except CausalLoopError:
            break  # a non-finite holdout prediction: every later test would raise on it

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
