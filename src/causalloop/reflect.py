"""Mismatch-triggered self-repair of the agent's causal model.

The trigger is the agent's: when its live one-step prediction misses by
more than the threshold tau, it hands that mismatch to :func:`reflect`,
which proposes a bounded set of candidate edits to the model -- rescale
delta, change a coefficient or delay, add or remove an edge, or declare
a structural break and flush stale history.  Generation stops at the
budget: nothing past the first ``budget`` distinct candidates, in a
fixed order, is estimated.  Each edit is one class, which states its kind
once: ``kind``, the record kind a trace writes it under, and ``rank``, its
place on score ties; :func:`hypothesis_to_row` and
:func:`hypothesis_from_row`, the trace's one codec for edits, walk its
fields in declaration order, as :func:`hypothesis_to_dict`, the labelled
view, does.

The budget is shared.  A DeltaShift comes first and a StructuralBreak
second, one candidate each; then the offending dimensions take turns, round
robin, the one with the largest share of the mismatch first.  A dimension
with edges has dozens of edits (four coefficient values, up to four delays
and a removal per edge, two additions per missing source).  Given all of
them in index order, the first two or three dimensions of a 4- or
8-dimensional world fill the whole budget: the later dimensions and the
StructuralBreak, the one edit that answers a change in every dimension at
once, are never tried, and after a break the agent re-triggers on most
ticks without settling.  Round robin gives each offending dimension at
least an equal share of what is left, and an edit of the worst dimension
leads every round.  A world whose edits all fit the budget (one offending
dimension, as in the bundled scenarios) is offered the same candidates
under either order, which rank and test alike.  Slots in proportion to
each dimension's error share were the other rule considered; they need a
rounding rule and still starve a dimension whose share is small.

Candidates are ranked by how much likelihood they recover over a recent
scoring window, then tested in rank order against a reserved holdout of
the most recent transitions; an edit is kept only if it cuts holdout MSE
by at least the fraction rho.  The working model updates after each
acceptance, so later candidates must beat the already-repaired model.

Candidate parameters that need estimation (a refitted coefficient, a new
edge's coefficient, how much history a break should keep) are resolved at
generation time against the *anomalous suffix*: the maximal run of most
recent transitions whose per-row error stays above a floor.  During a
persistent regime change that suffix is exactly the post-change data, so
refits are not diluted by stale rows.

Each trigger builds one lagged-feature kernel (see :mod:`causalloop.model`)
over the model's ``fit_window`` window, and the working model's
predictions and squared errors over it in one edge sum (``_Baseline``).
Edges are named as the kernel names them, by the place of their column
in its one store and their coefficient.  ``anomalous_suffix`` reads
those errors, and a residual fit the observations minus the prediction
from the other edges, the baseline's own when none is left out.  Every
candidate is then scored and
tested as one row of a numpy batch (``_EditBatch``), never by building its
model: the row names the targets the candidate predicts anew -- an edge
edit its one target, a DeltaShift every target at the new scale, a
StructuralBreak every target with its refit graph's coefficients -- which
the kernel's one edge sum predicts, and their squared errors replace the
baseline's in that row.  A StructuralBreak's refit,
which needs the model, runs once when its row is built; only it and an
accepted edit go through ``apply_hypothesis``.  After an acceptance the
candidates still to test, shifted onto the repaired model's edges by one
rule (``_shifted``: past an accepted EdgeRemove, an edit of a higher edge
moves one index down and an edit of the removed edge drops out), become
one more batch against it, so a trigger builds at most ``max_accepts``
batches.  The kernel is rebuilt only when an accepted StructuralBreak has
replaced the history.  The report holds every edit as generated: each
``edge_index`` in it, an accepted edit's too, names an edge of the model
entering the trigger, so an edit accepted after an accepted EdgeRemove of
a lower index was applied one index below the one it names.  An edge
edit has one rule, ``_edited_edge``: the plan index it acts on, the edge
it puts there and its refusals.  The batch's rows and
``apply_hypothesis`` both take it from there, so each refuses what the
other does.  A candidate the edited graph would refuse,
or whose predictions leave the float range, is refused by its row alone.
Every score and holdout MSE is bit-identical to rolling each candidate's
model out afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Any, ClassVar, Iterator, Sequence, get_args, get_type_hints

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
    _fold,
    _least_squares,
    _pack,
    _refuse,
    _squares,
)
from .scenario import json_number, json_typed
from .world import CausalGraph, EdgePlan, Form, SourceKind, VarRef, _check_edge, _check_ends, _duplicate

# Fraction of tau below which a row counts as "explained" when delimiting
# the anomalous suffix.
SUFFIX_FLOOR_FRACTION = 0.25


# ---------------------------------------------------------------------------
# Hypothesis variants
# ---------------------------------------------------------------------------


# ``rank`` orders acceptance on score ties: parameter edits before
# structural ones, and the decay-stable coefficient edit before the
# transient delta edit -- accepting a decaying delta for a persistent
# discrepancy would only re-trigger once the pull-to-zero erodes it.


@dataclass(frozen=True)
class DeltaShift:
    kind: ClassVar[str] = "delta_shift"
    rank: ClassVar[int] = 1
    new_delta: float


@dataclass(frozen=True)
class CoefChange:
    kind: ClassVar[str] = "coef_change"
    rank: ClassVar[int] = 0
    edge_index: int
    new_coefficient: float


@dataclass(frozen=True)
class DelayChange:
    kind: ClassVar[str] = "delay_change"
    rank: ClassVar[int] = 2
    edge_index: int
    new_delay: int


@dataclass(frozen=True)
class EdgeAdd:
    kind: ClassVar[str] = "edge_add"
    rank: ClassVar[int] = 4
    source: VarRef
    target: int
    delay: int
    form: Form
    coefficient: float  # resolved at generation time


@dataclass(frozen=True)
class EdgeRemove:
    kind: ClassVar[str] = "edge_remove"
    rank: ClassVar[int] = 3
    edge_index: int


@dataclass(frozen=True)
class StructuralBreak:
    kind: ClassVar[str] = "structural_break"
    rank: ClassVar[int] = 5
    keep: int  # trailing transitions retained after the history flush


Hypothesis = DeltaShift | CoefChange | DelayChange | EdgeAdd | EdgeRemove | StructuralBreak


def _read_int(v: Any, name: str) -> int:
    return json_typed(v, int, name=name)


def _read_source(v: list[Any], name: str) -> VarRef:
    kind, index = v
    return VarRef(SourceKind(kind), _read_int(index, f"{name} index"))


# How a field of each annotated type is written in a row and read back from
# it: the labels of its entries in the labelled view (None: one entry, under
# the field's name), its writer of those entries (None: the value as it is)
# and its reader.
_CODECS = {
    float: (None, None, json_number),
    int: (None, None, _read_int),
    VarRef: (("kind", "index"), lambda v: (v.kind.value, v.index), _read_source),
    Form: (None, lambda v: (v.value,), lambda v, name: Form(v)),
}


def _row_fields(cls: type) -> tuple[tuple[str, int | slice, tuple[str, ...] | None, Any, Any], ...]:
    """Each field of ``cls`` in declaration order: its name, its place in
    the row (an index, or a slice for a field of several entries) and its
    codec.  Entry 0 is the kind."""
    out, at = [], 1
    for f in fields(cls):
        labels, write, read = _CODECS[get_type_hints(cls)[f.name]]
        width = 1 if labels is None else len(labels)
        out.append((f.name, at if labels is None else slice(at, at + width), labels, write, read))
        at += width
    return tuple(out)


# Each edit class's fields with their places and codecs.  A dataclass's
# ``__init__`` sets its fields in declaration order, so an edit's
# ``__dict__`` holds them in that order too, as :func:`hypothesis_to_row`
# reads them.
_FIELDS = {cls: _row_fields(cls) for cls in get_args(Hypothesis)}
# The length of each edit class's row.
_WIDTHS = {cls: 1 + sum(1 if f[2] is None else len(f[2]) for f in fs) for cls, fs in _FIELDS.items()}

# The edit class of each record kind, and the set of those kinds.
_BY_KIND = {cls.kind: cls for cls in _FIELDS}
EDIT_KINDS = frozenset(_BY_KIND)


# Each edit class's tie key: its rank, then its fields in declaration
# order; an EdgeAdd's target, source (ordered as ``VarRef.sort_key``) and delay.
_TIE_KEYS = {cls: attrgetter("rank", *(name for name, *_ in f)) for cls, f in _FIELDS.items()} | {
    EdgeAdd: attrgetter("rank", "target", "source.kind.value", "source.index", "delay")
}


def _tie_key(h: Hypothesis) -> tuple:
    return _TIE_KEYS[type(h)](h)


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
    return float(max(-m.delta_max, min(m.delta_max, delta)))


def _edge_keys(plan: tuple[EdgePlan, ...]) -> set[tuple[bool, int, int, int]]:
    """Each edge's ``(reads_action, source_index, target, delay)``, the
    key no two edges of a graph share."""
    return {(reads_action, index, target, delay) for reads_action, index, delay, target, _, _ in plan}


def _edited_edge(
    graph: CausalGraph, h: CoefChange | DelayChange | EdgeRemove | EdgeAdd, keys: set[tuple[bool, int, int, int]]
) -> tuple[int, EdgePlan | None]:
    """The edge edit rule: the plan index ``h`` acts on (``len(plan)`` for
    an EdgeAdd) and the edge it puts there, None for an EdgeRemove.
    ``keys`` is :func:`_edge_keys` of the graph's plan.

    Raises :class:`ConfigError` where building the edited graph would, in
    this order: an edge index outside the graph (a negative one too); a
    delay below 1 or a coefficient that is not finite; a source or target
    outside the graph's dimensions; a (source, delay) that another edge
    already feeds into the same target.
    """
    plan = graph.plan
    if isinstance(h, EdgeAdd):
        i = len(plan)
        edge = (h.source.kind is SourceKind.ACTION, h.source.index, h.delay, h.target, h.coefficient, h.form)
    else:
        i = h.edge_index
        if not 0 <= i < len(plan):
            raise ConfigError(f"edge index {i} outside a graph of {len(plan)} edges")
        if isinstance(h, EdgeRemove):
            return i, None
        reads_action, index, delay, target, coefficient, form = plan[i]
        if isinstance(h, CoefChange):
            coefficient = h.new_coefficient
        else:
            delay = h.new_delay
        edge = (reads_action, index, delay, target, coefficient, form)
    reads_action, index, delay, target, coefficient, _ = edge
    _check_edge(delay, coefficient)
    _check_ends(graph.d_state, graph.d_action, reads_action, index, target)
    key = (reads_action, index, target, delay)
    if key in keys and (i == len(plan) or delay != plan[i][2]):
        raise _duplicate(reads_action, index, target, delay)
    return i, edge


def apply_hypothesis(m: CausalModel, h: Hypothesis) -> CausalModel:
    """A copy of ``m`` with the edit applied; the input is untouched.  An
    edge edit follows :func:`_edited_edge`, refusals included."""
    if isinstance(h, DeltaShift):
        return replace(m, delta_hat=_clamped(m, h.new_delta))
    if isinstance(h, StructuralBreak):
        # Flush stale history, then refit what the kept suffix supports.
        flushed = replace(m, history=m.history[-h.keep :] if h.keep > 0 else ())
        return _least_squares(flushed, _LagFeatures(flushed.history, flushed.history), math.exp(-m.delta_hat))[0]
    graph = m.graph
    plan = graph.plan
    i, edge = _edited_edge(graph, h, _edge_keys(plan))
    plan = plan[:i] + (() if edge is None else (edge,)) + plan[i + 1 :]
    return replace(m, graph=CausalGraph.from_plan(graph.d_state, graph.d_action, plan))


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


class _Baseline:
    """A model's predictions and errors over a kernel, for the rows from ``lo``.

    Computed once, in one :meth:`_LagFeatures.sums` of every target, and
    shared by every score or test against that model.  As (d_state x
    rows) arrays over every kernel row: ``pred``, ``observed``, the
    squared errors ``sq`` and ``dead``, the mask of a target's rows with
    an unrecorded lag; ``finite`` says whether every prediction is.  From
    row ``lo``: ``row_sq``, each row's ``sq`` added over dimensions from
    0.0 (``row_sq / d`` is its :func:`loss` epsilon to the bit), and
    ``row_dead``, the rows some target leaves out.  It refuses as
    :func:`causalloop.model._refuse` does, reading the rows from ``lo`` it
    predicts; an error that overflows refuses on any row.
    :meth:`edit` states a candidate as the targets it predicts anew, which
    is how :class:`_EditBatch` scores it.

    Edges are read as plan tuples (:attr:`causalloop.world.CausalGraph.plan`).
    ``members[k]`` is the index of each edge into target k, in graph order
    (:meth:`_LagFeatures.layout`); ``incoming[k]`` is target k with the
    place of each of those edges' columns in the kernel's store and each
    edge's coefficient (:meth:`_LagFeatures.incoming`); ``keys`` holds
    every edge's key (:func:`_edge_keys`).
    """

    def __init__(self, m: CausalModel, lags: _LagFeatures, lo: int = 0) -> None:
        self.m = m
        self.lags = lags
        self.lo = lo
        self.d = m.graph.d_state
        self.scale = math.exp(-m.delta_hat)
        layout = lags.layout(m.graph)
        self.members = layout.members
        self.incoming = lags.incoming(m.graph)
        self.keys = _edge_keys(m.graph.plan)
        self.pred, dead = lags.sums(layout.packed((m.graph.plan,)), self.scale)
        self.dead = np.zeros(self.pred.shape, dtype=bool) if dead is None else dead
        self.observed = np.broadcast_to(lags._observed, self.pred.shape)  # (d_state x 0) with no rows
        with np.errstate(all="ignore"):
            self.sq, overflow = _squares(self.observed, self.pred)
        self.row_dead = self.dead[:, lo:].any(axis=0)
        self.finite = overflow is None
        if not self.finite:
            _refuse(self.pred[:, lo:], ~self.row_dead, overflow)
        self.row_sq = _add_up(self.sq[None, :, lo:])[0]

    @staticmethod
    def over(m: CausalModel, rows: Sequence[Transition]) -> _Baseline:
        return _Baseline(m, _LagFeatures(m.history, rows))

    def edit(self, h: Hypothesis) -> tuple[float, list[tuple[int, list[int], list[float]]]]:
        """The target dimensions ``apply_hypothesis(m, h)`` predicts anew:
        its scale, and each such target with the column place and the
        coefficient of each of its incoming edges in graph order.  An edge
        edit replaces its target's lists with the edge of the edit rule,
        :func:`_edited_edge`, and raises its :class:`ConfigError` refusals;
        a DeltaShift keeps every target's at the clamped delta; a
        StructuralBreak gives every target its refit graph's, and raises
        what its refit raises.  Every other target predicts as this
        model's, to the bit.
        """
        m = self.m
        if isinstance(h, DeltaShift):
            scale = math.exp(-_clamped(m, h.new_delta))
            return scale, self.incoming
        if isinstance(h, StructuralBreak):
            refit = apply_hypothesis(m, h)
            return math.exp(-refit.delta_hat), self.lags.incoming(refit.graph)
        i, edge = _edited_edge(m.graph, h, self.keys)
        k = m.graph.plan[i][3] if edge is None else edge[3]
        _, places, coefs = self.incoming[k]
        at = self.members[k].index(i) if i < len(m.graph.plan) else len(places)  # its place in k's lists
        if edge is None:
            return self.scale, [(k, places[:at] + places[at + 1 :], coefs[:at] + coefs[at + 1 :])]
        reads_action, index, delay, _, coefficient, form = edge
        p = self.lags.place(reads_action, index, delay, form)
        return self.scale, [(k, places[:at] + [p] + places[at + 1 :], coefs[:at] + [coefficient] + coefs[at + 1 :])]


def anomalous_suffix(m: CausalModel, floor: float, base: _Baseline | None = None) -> int:
    """Length of the maximal trailing run of history rows with error > floor.

    ``base``, when given, must hold ``m``'s predictions over its
    ``fit_window`` window.
    """
    if base is None:
        base = _Baseline.over(m, m.history[-m.fit_window :])
    with np.errstate(invalid="ignore"):
        stops = np.flatnonzero(base.row_dead | (base.row_sq / base.d <= floor))
    return len(base.row_sq) - 1 - int(stops[-1]) if len(stops) else len(base.row_sq)


def _residuals(
    base: _Baseline, lo: int, target: int, exclude_edge: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The target's observed value minus its strict prediction from every
    edge of ``base``'s model into it but ``exclude_edge``, for each kernel
    row from ``lo``, and the mask of rows where one of those edges' lags is
    unrecorded.  Excluding no edge reads the baseline's own row; excluding
    one predicts the rest in one :meth:`_LagFeatures.sums`."""
    if exclude_edge is None:
        pred, dead = base.pred[target, lo:], base.dead[target, lo:]
    else:
        _, places, coefs = base.incoming[target]
        at = base.members[target].index(exclude_edge)
        group = (target, places[:at] + places[at + 1 :], coefs[:at] + coefs[at + 1 :])
        (pred,), dead = base.lags.sums(_pack([group]), base.scale, lo)
        dead = np.zeros(len(pred), dtype=bool) if dead is None else dead[0]
    return base.observed[target, lo:] - pred, dead


def _residual_fit(
    base: _Baseline, lo: int, resid: tuple[np.ndarray, np.ndarray], place: int
) -> float | None:
    """Single-coefficient LS: how much of the residuals ``resid`` (from
    :func:`_residuals`) the kernel column at ``place``, at ``base``'s scale,
    accounts for over the kernel's rows from ``lo`` on.  ``sum(x * x)``
    and ``sum(x * r)`` over the rows where both are recorded add left to
    right from 0.0.

    Returns None when the feature carries no signal on these rows.
    """
    r, dead = resid
    gap = base.lags.gaps.get(place)
    keep = ~dead if gap is None else ~(dead | gap[lo:])
    with np.errstate(all="ignore"):
        x = base.lags.columns[place, lo:] * base.scale
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

    A lone DeltaShift (when identifiable) comes first, then a lone
    StructuralBreak.  Each state dimension whose share of the error exceeds
    tau / d_state has its own run of edits: coefficient changes (the grid,
    then a residual refit), delay changes, removals and linear edge
    additions.  The runs are interleaved round robin, one edit of each per
    round, the dimension with the largest ``err.per_dim`` first and ties in
    index order; a run that is spent drops out.  See the module docstring
    for why the budget is shared this way.
    """
    d_state = m.graph.d_state
    offending = [j for j in range(d_state) if err.per_dim[j] > tau / d_state]
    suffix = max(1, anomalous_suffix(m, tau * SUFFIX_FLOOR_FRACTION, base=base))
    est_lo = max(0, len(base.lags.rows) - suffix)

    # DeltaShift from the single worst dimension of the triggering context.
    j_star = max(range(d_state), key=lambda j: err.per_dim[j])
    if base.lags.rows and base.lags.rows[-1] is ctx:
        # The window ends with ctx, as in reflect: its prediction is in hand.
        pred = None if base.dead[:, -1].any() else base.pred[:, -1].tolist()
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

    yield StructuralBreak(keep=suffix)

    plan = m.graph.plan
    existing_pairs = {key[:3] for key in base.keys}
    sources = [(True, i) for i in range(m.graph.d_action)] + [(False, i) for i in range(d_state)]

    def edits(j: int) -> Iterator[Hypothesis]:
        members = base.members[j]
        places = base.incoming[j][1]
        for at, edge_index in enumerate(members):
            coefficient = plan[edge_index][4]
            for c in (-coefficient, 0.5 * coefficient, 2.0 * coefficient, None):
                if c is None:  # the residual refit
                    resid = _residuals(base, est_lo, j, edge_index)
                    c = _residual_fit(base, est_lo, resid, places[at])
                if c is not None and math.isfinite(c) and c != coefficient:
                    yield CoefChange(edge_index, c)
        for edge_index in members:
            reads_action, index, delay = plan[edge_index][:3]
            for k in (delay + 1, delay - 1, delay + 2, delay - 2):
                if not 1 <= k <= settings.k_max or k == delay:
                    continue
                if (reads_action, index, j, k) in base.keys:
                    continue
                yield DelayChange(edge_index, k)
        for edge_index in members:
            yield EdgeRemove(edge_index)
        resid = _residuals(base, est_lo, j, None)
        for reads_action, index in sources:
            if (reads_action, index, j) in existing_pairs:
                continue
            src = VarRef(SourceKind.ACTION if reads_action else SourceKind.STATE, index)
            for delay in (1, 2):
                place = base.lags.place(reads_action, index, delay, Form.LINEAR)
                coef = _residual_fit(base, est_lo, resid, place)
                if coef is None or not math.isfinite(coef) or coef == 0.0:
                    continue
                yield EdgeAdd(src, j, delay, Form.LINEAR, coef)

    runs = [edits(j) for j in sorted(offending, key=lambda j: (-err.per_dim[j], j))]
    while runs:
        for run in tuple(runs):
            h = next(run, None)
            if h is None:
                runs.remove(run)
            else:
                yield h


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
    tested over the rows from ``split`` of ``base``'s kernel, against
    ``base``, the baseline of the model the candidates edit.

    Each candidate is one row of a (candidates x dimensions x rows) array of
    squared errors, which holds the baseline's except in the targets
    :meth:`_Baseline.edit` says the candidate predicts anew.  Each of those
    is predicted over every kernel row by the kernel's one edge sum
    (:meth:`_LagFeatures.sums`), ``coefficient * feature * scale`` per edge
    in graph order, a lag's gap adding 0.0, added to the recorded state,
    and squared with ``np.float_power``.  A
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
        # Each target a candidate predicts anew: the candidate, the (target,
        # places, coefficients) group and the scale.
        cand: list[int] = []
        groups: list[tuple[int, list[int], list[float]]] = []
        scales: list[float] = []
        for i, h in enumerate(hs):
            try:
                scale, replaced = base.edit(h)
            except CausalLoopError as exc:
                self._scores[i] = exc if split > base.lo else 0.0
                self._tests[i] = exc
                continue
            cand += [i] * len(replaced)
            groups += replaced
            scales += [scale] * len(replaced)
        if groups:
            self._predict(cand, groups, scales)

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

    def _predict(self, cand: list[int], groups: list[tuple[int, list[int], list[float]]], scales: list[float]) -> None:
        base, lags, count = self.base, self.base.lags, len(self.hs)
        lo, d, s = base.lo, base.d, self.split - base.lo
        cand, target = np.array(cand), np.array([k for k, _, _ in groups])
        pred, gapped = lags.sums(_pack(groups), np.array(scales))
        with np.errstate(all="ignore"):
            sq_k, over_k = _squares(lags._observed[target], pred)
        overflow = np.zeros(count, dtype=bool)  # a finite error squares past the float range
        if over_k is not None:
            overflow[cand[over_k.any(axis=1)]] = True

        # Each candidate's (dimension x row) values over the range: the
        # model's, or the candidate's in a dimension it predicts anew.
        def per_candidate(of_model: np.ndarray, of_subs: np.ndarray) -> np.ndarray:
            out = np.repeat(of_model[None, :, lo:], count, axis=0)
            out[cand, target] = of_subs[:, lo:]
            return out

        sq_h = _add_up(per_candidate(base.sq, sq_k))
        dead = np.zeros((count, lags._n - lo), dtype=bool)  # rows the edited model leaves out
        if lags.gaps:  # every column read is in the kernel's store: no dead row without a gap
            dead = per_candidate(base.dead, np.zeros(pred.shape, dtype=bool) if gapped is None else gapped).any(axis=1)
        bad = None  # rows it predicts with a prediction not finite, if any
        if over_k is not None or not base.finite:
            finite = per_candidate(np.isfinite(base.pred), np.isfinite(pred))
            bad = ~dead & ~finite.all(axis=1)

        sq_m = base.row_sq
        live = ~base.row_dead & ~dead
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

        if bad is None and not overflow.any() and all(counts):
            score_refused = test_refused = [None] * count
        else:
            score_refused, test_refused = refused(slice(0, s), [1] * count), refused(slice(s, None), counts)
        for i in dict.fromkeys(cand.tolist()):
            if s > 0:
                infinite = None if math.isfinite(scores[i]) else DomainError("a candidate's score is not finite")
                self._scores[i] = score_refused[i] or infinite or scores[i]
            self._tests[i] = test_refused[i] or (mse_m[i], mse_h[i])


# ---------------------------------------------------------------------------
# Sequential acceptance
# ---------------------------------------------------------------------------


def _shifted(h: Hypothesis, accepted: Hypothesis) -> Hypothesis | None:
    """``h`` as an edit of the model ``accepted`` produced.

    After an accepted EdgeRemove, an edge edit of a higher edge index comes
    back one index lower and an edit of the removed edge as None; every
    other edit comes back unchanged.
    """
    if not isinstance(accepted, EdgeRemove) or not isinstance(h, (CoefChange, DelayChange, EdgeRemove)):
        return h
    if h.edge_index == accepted.edge_index:
        return None
    return replace(h, edge_index=h.edge_index - 1) if h.edge_index > accepted.edge_index else h


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
    batch = _EditBatch(base, candidates, h_lo)
    try:
        scored = [(i, HypothesisScore(h, batch.score(i))) for i, h in enumerate(candidates)]
    except CausalLoopError as exc:
        raise type(exc)(f"tick {ctx.tuple.time.tick}: {exc}") from exc
    ranked = sorted(scored, key=lambda item: (-item[1].score, _tie_key(item[1].hypothesis)))

    # Tests run in rank order, each against the working model.  An
    # acceptance changes that model, so the edits still to test, shifted to
    # its edges (:func:`_shifted`), become one more batch against it: at
    # most ``max_accepts`` batches in all.  An accepted edit is recorded as
    # generated, an edit of the model entering the trigger.
    working = m
    accepted: list[Hypothesis] = []
    todo = [(i, hs.hypothesis) for i, hs in ranked]  # (row of ``batch``, edit as generated)
    while todo and len(accepted) < settings.max_accepts:
        r, generated = todo.pop(0)
        try:
            ok, _, _ = batch.test(r, settings.rho)
        except CausalLoopError:
            continue
        if not ok:
            continue
        h = batch.hs[r]
        working = apply_hypothesis(working, h)
        accepted.append(generated)
        if isinstance(h, StructuralBreak):  # the history changed: a kernel over the holdout
            lags, h_lo = _LagFeatures(working.history, holdout), 0
        later = [(_shifted(batch.hs[j], h), g) for j, g in todo]
        later = [(s, g) for s, g in later if s is not None]
        if not later or len(accepted) == settings.max_accepts:
            break
        try:
            base = _Baseline(working, lags, h_lo)
        except CausalLoopError:
            break  # a non-finite holdout prediction: every later test would raise on it
        batch = _EditBatch(base, [s for s, _ in later], h_lo)
        todo = [(j, g) for j, (_, g) in enumerate(later)]

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


def hypothesis_to_row(h: Hypothesis) -> list[Any]:
    """``kind``, then each field's JSON entries in declaration order: an
    EdgeAdd's source as two, its kind and its index."""
    row = [h.kind]
    for (_, _, _, write, _), v in zip(_FIELDS[type(h)], h.__dict__.values()):
        row += (v,) if write is None else write(v)
    return row


def hypothesis_from_row(row: Any) -> Hypothesis:
    """The edit :func:`hypothesis_to_row` wrote: a non-empty array of a
    known kind's length, each entry read as its JSON type; TypeError or
    ValueError for anything else."""
    if type(row) is not list or not row:
        what = "an empty array" if type(row) is list else f"a JSON {type(row).__name__}"
        raise TypeError(f"edit row is {what}, expected an array that starts with its kind")
    kind = row[0]
    cls = _BY_KIND.get(kind) if type(kind) is str else None
    if cls is None:
        raise ValueError(f"unknown edit kind {kind!r}")
    if len(row) != _WIDTHS[cls]:
        raise ValueError(f"{kind} row has {len(row)} entries, expected {_WIDTHS[cls]}")
    return cls(*[read(row[at], name) for name, at, _, _, read in _FIELDS[cls]])


def hypothesis_to_dict(h: Hypothesis) -> dict[str, Any]:
    """The labelled view of :func:`hypothesis_to_row`: ``kind``, then each
    field under its name, an EdgeAdd's source as an object of its kind and
    index.  Explain's grounding and the LLM facts hold it; no trace does."""
    d = {"kind": h.kind, **h.__dict__}
    for name, _, labels, write, _ in _FIELDS[type(h)]:
        if write is not None:
            entries = write(d[name])
            d[name] = entries[0] if labels is None else dict(zip(labels, entries))
    return d
