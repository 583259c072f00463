"""Core value types and scale-factor algebra."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalloop.core import (
    DELTA_MAX,
    ActionVec,
    CausalTuple,
    DimensionError,
    DomainError,
    Perturbation,
    StateVec,
    TimeIndex,
    Transition,
    loss,
    scale_factor,
)

# ---- scale factor ----------------------------------------------------------


def test_scale_factor_identity_at_zero():
    assert scale_factor(0.0) == 1.0


def test_scale_factor_dampens_positive():
    assert scale_factor(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert scale_factor(1.0) < 1.0


def test_scale_factor_amplifies_negative():
    assert scale_factor(-1.0) == pytest.approx(math.e, abs=1e-15)
    assert scale_factor(-1.0) > 1.0


def test_scale_factor_out_of_range():
    with pytest.raises(DomainError):
        scale_factor(10.0001)
    with pytest.raises(DomainError):
        scale_factor(-10.0001)
    with pytest.raises(DomainError):
        scale_factor(float("nan"))


@given(st.floats(min_value=-10.0, max_value=10.0))
def test_scale_factor_positive_and_monotone(delta):
    s = scale_factor(delta)
    assert s > 0.0
    eps = 1e-6
    if delta + eps <= 10.0:
        assert scale_factor(delta + eps) < s


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_scale_factor_composes_multiplicatively(a, b):
    assert scale_factor(a) * scale_factor(b) == pytest.approx(
        scale_factor(a + b), rel=1e-12
    )


def test_scale_factor_inverse_pairs_cancel():
    for d in (0.25, 1.0, 3.5, 9.9):
        assert scale_factor(d) * scale_factor(-d) == pytest.approx(1.0, rel=1e-12)


# ---- vectors and tuples ----------------------------------------------------


def test_state_vec_basics():
    s = StateVec((1.0, 2.0, 3.0))
    assert len(s) == 3
    assert s[1] == 2.0
    assert tuple(s.values) == (1.0, 2.0, 3.0)


def test_state_vec_rejects_non_finite():
    with pytest.raises(DomainError):
        StateVec((1.0, float("inf")))
    with pytest.raises(DomainError):
        ActionVec((float("nan"),))


def test_time_index_rejects_negative():
    with pytest.raises(DomainError):
        TimeIndex(-1)
    assert TimeIndex(0).tick == 0


def test_perturbation_bounds():
    assert Perturbation(10.0).delta == 10.0
    assert Perturbation(-10.0).delta == -10.0
    with pytest.raises(DomainError):
        Perturbation(10.5)


def test_transition_dimension_check():
    tup = CausalTuple(
        state=StateVec((0.0, 0.0)),
        action=ActionVec((1.0,)),
        time=TimeIndex(0),
    )
    with pytest.raises(DimensionError):
        Transition(tuple=tup, observed=StateVec((0.0,)))
    Transition(tuple=tup, observed=StateVec((0.5, 0.5)))


finite = st.floats(-1e6, 1e6, allow_nan=False)
vectors = st.lists(finite, min_size=0, max_size=4).map(tuple)
deltas = st.one_of(
    st.floats(-DELTA_MAX, DELTA_MAX, allow_nan=False), st.integers(-int(DELTA_MAX), int(DELTA_MAX))
)


@given(vectors, vectors, st.integers(0, 2**70), deltas)
def test_checked_constructors_equal_the_validating_ones(state, action, tick, delta):
    """``CausalTuple.checked`` and ``Transition.checked`` build what the
    validating constructors build, an int delta made a float included."""
    s, a = StateVec(state), ActionVec(action)
    tup = CausalTuple(s, a, TimeIndex(tick), Perturbation(delta))
    fast = CausalTuple.checked(s, a, tick, delta)
    assert type(fast.delta.delta) is float
    assert (fast, hash(fast), repr(fast)) == (tup, hash(tup), repr(tup))
    observed = StateVec(tuple(v + 1.0 for v in state))
    tr, fast_tr = Transition(tup, observed), Transition.checked(fast, observed)
    assert (fast_tr, hash(fast_tr), repr(fast_tr)) == (tr, hash(tr), repr(tr))


# ---- loss ------------------------------------------------------------------


def test_loss_zero_on_exact_match():
    err = loss(StateVec((1.0, -2.0)), StateVec((1.0, -2.0)))
    assert err.epsilon == 0.0
    assert err.per_dim == (0.0, 0.0)


def test_loss_known_value():
    # per-dim squared errors (1, 4) -> mean 2.5
    err = loss(StateVec((0.0, 0.0)), StateVec((1.0, 2.0)))
    assert err.per_dim == (1.0, 4.0)
    assert err.epsilon == 2.5


def test_loss_adds_left_to_right():
    """The mean is a plain left fold on every Python version: compensated
    summation (the builtin ``sum`` since 3.12) would give (1e16 + 2) / 3."""
    err = loss(StateVec((1e8, 1.0, 1.0)), StateVec((0.0, 0.0, 0.0)))
    assert err.epsilon == 1e16 / 3
    assert err.epsilon != (1e16 + 2) / 3


def test_loss_overflow_is_a_domain_error():
    """A squared error beyond the float range is refused as a domain error,
    not passed on as Python's OverflowError."""
    with pytest.raises(DomainError):
        loss(StateVec((1e200, 0.0)), StateVec((-1e200, 0.0)))


def test_loss_dimension_mismatch():
    with pytest.raises(DimensionError):
        loss(StateVec((0.0,)), StateVec((0.0, 0.0)))


@pytest.mark.parametrize(
    "predicted, observed",
    [((1e308, 0.0), (-1e308, 0.0)), ((1.3e154, 1.3e154), (0.0, 0.0))],
    ids=["difference", "sum"],
)
def test_a_loss_is_finite_or_a_domain_error(predicted, observed):
    """A difference beyond the float range squares to inf without an
    OverflowError, and two finite squared errors can sum to inf: each is
    refused as a squared error beyond the float range, so a loss is always
    finite."""
    with pytest.raises(DomainError, match="^a squared prediction error exceeds the float range$"):
        loss(StateVec(predicted), StateVec(observed))


def test_a_loss_of_no_dimensions_is_a_dimension_error():
    with pytest.raises(DimensionError, match="^predicted has 0 dims, observed has 0$"):
        loss(StateVec(()), StateVec(()))


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=6),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=6),
)
def test_loss_symmetric_and_nonnegative(a, b):
    n = min(len(a), len(b))
    pa, pb = StateVec(tuple(a[:n])), StateVec(tuple(b[:n]))
    fwd, rev = loss(pa, pb), loss(pb, pa)
    assert fwd.epsilon >= 0.0
    assert fwd.epsilon == rev.epsilon
    assert fwd.per_dim == rev.per_dim
