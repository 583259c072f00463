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
over the model's ``fit_window`` window.  The working model's predictions
and per-row squared errors are computed once and shared by every
``score_hypothesis`` and ``test_hypothesis`` call; a candidate's own
predictions reuse each target dimension its edit leaves alone.
``anomalous_suffix`` reads the working model's errors, and a residual fit
the observations minus the kernel's prediction from the other edges.
After an acceptance only the baseline is recomputed, and the kernel is
rebuilt only when an accepted StructuralBreak has replaced the history.
Every score and holdout MSE is bit-identical to rolling each candidate out
afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

from .core import (
    CausalLoopError,
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
    _least_squares,
)
from .world import CausalEdge, Form, VarRef

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


def apply_hypothesis(m: CausalModel, h: Hypothesis) -> CausalModel:
    """A copy of ``m`` with the edit applied; the input is untouched."""
    if isinstance(h, DeltaShift):
        d = max(-m.delta_max, min(m.delta_max, h.new_delta))
        return replace(m, delta_hat=d)
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
    """A model's per-row errors over rows ``[lo, hi)`` of a kernel.

    Computed once and shared by every score or test against that model:
    ``sq`` is each row's ``sum((o - p) ** 2)``, None where the row is not
    predictable.  ``sq / d`` is the row's :func:`loss` epsilon to the bit.
    """

    def __init__(
        self, m: CausalModel, lags: _LagFeatures, lo: int = 0, hi: int | None = None
    ) -> None:
        self.lags = lags
        self.lo = lo
        self.hi = len(lags.rows) if hi is None else hi
        self.d = m.graph.d_state
        self.sq = lags.sq_errors(m.graph, m.delta_hat, lo, self.hi)

    @staticmethod
    def over(m: CausalModel, rows: Sequence[Transition]) -> _Baseline:
        return _Baseline(m, _LagFeatures(m.history, rows))

    def mse(self, other: CausalModel) -> tuple[float, float] | None:
        """Mean loss epsilon of this model and of ``other`` over the rows
        both predict; None when there are none."""
        sq_os = self.lags.sq_errors(other.graph, other.delta_hat, self.lo, self.hi)
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
            new_delta = max(-m.delta_max, min(m.delta_max, m.delta_hat + correction))
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
    applied = apply_hypothesis(m, h)
    sq_hs = base.lags.sq_errors(applied.graph, applied.delta_hat, base.lo, base.hi)
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
    mses = base.mse(apply_hypothesis(m, h))
    if mses is None:
        raise NotEnoughDataError("no predictable holdout rows")
    mse_m, mse_h = mses
    return mse_h <= (1.0 - rho) * mse_m, mse_m, mse_h


# ---------------------------------------------------------------------------
# Index remapping for sequential acceptance
# ---------------------------------------------------------------------------


def _remap(h: Hypothesis, index_map: dict[int, int]) -> Hypothesis | None:
    """Translate original edge indices to the working graph; None if gone."""
    if isinstance(h, (CoefChange, DelayChange, EdgeRemove)):
        pos = index_map.get(h.edge_index)
        if pos is None:
            return None
        return replace(h, edge_index=pos)
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
    ``ctx`` again.  ``ctx`` is expected to be the most recent transition;
    it is appended to history if the caller has not already done so.
    """
    if not m.history or m.history[-1] != ctx:
        m = append_history(m, ctx)

    # One kernel serves the whole trigger: ctx is the window's last row.
    window = m.history[-m.fit_window :]
    n = len(window)
    lags = _LagFeatures(m.history, window)
    h_lo = n - len(window[-settings.holdout :])
    holdout = window[h_lo:]
    scoring = window[:h_lo]

    candidates = generate_hypotheses(m, ctx, err, tau, settings, base=_Baseline(m, lags))
    score_base = _Baseline(m, lags, 0, h_lo)
    scored = sorted(
        (HypothesisScore(h, score_hypothesis(m, h, scoring, base=score_base)) for h in candidates),
        key=lambda hs: (-hs.score, _tie_key(hs.hypothesis)),
    )

    working = m
    test_base = _Baseline(m, lags, h_lo, n)
    index_map = {i: i for i in range(len(m.graph.edges))}
    accepted: list[Hypothesis] = []
    for hs in scored:
        if len(accepted) >= settings.max_accepts:
            break
        h = _remap(hs.hypothesis, index_map)
        if h is None:
            continue
        try:
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
            else:
                test_base = _Baseline(working, test_base.lags, test_base.lo, test_base.hi)
        except CausalLoopError:
            break  # a non-finite holdout prediction: every later test would raise on it

    return ReflectReport(
        triggered=True,
        epsilon=err.epsilon,
        tau=tau,
        candidates=tuple(scored),
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
