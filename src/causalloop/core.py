"""Core value types shared by the simulator, the model, and the repair loop.

Everything in this module is an immutable value.  Vectors are tuples of
Python floats rather than numpy arrays: they hash, they compare exactly,
and they round-trip through JSON without precision loss, which the replay
machinery depends on.  numpy only appears where linear algebra actually
happens (see :mod:`causalloop.model`).

The one piece of arithmetic that lives here is the perturbation scale
factor ``exp(-delta)``: a multiplicative dampening (delta > 0) or
amplification (delta < 0) applied to every modeled effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, TypeVar

# Hard cap on |delta|; exp(10) ~ 22026 is already far beyond anything a
# desk-scale scenario should produce.
DELTA_MAX = 10.0


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class CausalLoopError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(CausalLoopError):
    """A numeric argument is outside its documented domain."""


class DimensionError(CausalLoopError):
    """Two vectors that must agree in length do not."""


class ConfigError(CausalLoopError):
    """A scenario or component configuration is invalid."""


class NotEnoughDataError(CausalLoopError):
    """An estimation routine was given fewer observations than it needs."""


class DegenerateDataError(CausalLoopError):
    """The data is numerically unusable (rank-deficient or constant)."""


class NotIdentifiableError(CausalLoopError):
    """The requested quantity cannot be recovered from the given effects."""


class ReplayError(CausalLoopError):
    """A recorded trace does not reproduce or cannot be interpreted."""


class InputError(CausalLoopError):
    """Malformed external input (trace files, CLI payloads)."""


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


def check_finite(values: tuple[float, ...], label: str) -> tuple[float, ...]:
    """``values`` itself; :class:`DomainError` names the first that is not finite."""
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise DomainError(f"{label} contains non-finite value {bad!r}")
    return values


def _as_float_tuple(values, label: str) -> tuple[float, ...]:
    return check_finite(tuple(map(float, values)), label)


_V = TypeVar("_V", bound="_Vec")


@dataclass(frozen=True)
class _Vec:
    """A finite float vector, refused under its class's ``_label``.

    The constructor converts each value with ``float()`` and checks it.
    :meth:`checked` wraps a tuple of Python floats that its caller has just
    checked finite (:func:`check_finite`), so no vector is validated twice.
    Equality is per class: a state never equals an action.
    """

    values: tuple[float, ...]
    _label: ClassVar[str]  # set by each subclass

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_float_tuple(self.values, self._label))

    @classmethod
    def checked(cls: type[_V], values: tuple[float, ...]) -> _V:
        """A vector of ``values``, Python floats already checked finite."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", values)
        return vec

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


class StateVec(_Vec):
    """State of the system at one tick: a finite float vector."""

    _label = "state"


class ActionVec(_Vec):
    """Action applied at one tick: a finite float vector."""

    _label = "action"


@dataclass(frozen=True)
class TimeIndex:
    """Discrete tick counter, starting at zero."""

    tick: int

    def __post_init__(self) -> None:
        if int(self.tick) != self.tick or self.tick < 0:
            raise DomainError(f"tick must be a non-negative integer, got {self.tick!r}")
        object.__setattr__(self, "tick", int(self.tick))


@dataclass(frozen=True)
class Perturbation:
    """Scalar perturbation delta; the effect multiplier is exp(-delta)."""

    delta: float

    def __post_init__(self) -> None:
        d = float(self.delta)
        if not math.isfinite(d):
            raise DomainError(f"delta must be finite, got {d!r}")
        if abs(d) > DELTA_MAX:
            raise DomainError(f"|delta| must be <= {DELTA_MAX}, got {d!r}")
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class CausalTuple:
    """One evaluation point of the causal function: (state, action, time, delta).

    ``delta`` is whatever the caller believes the perturbation to be -- for
    the agent that is its own running estimate, never the world's hidden
    truth.
    """

    state: StateVec
    action: ActionVec
    time: TimeIndex
    delta: Perturbation = field(default_factory=lambda: Perturbation(0.0))

    @classmethod
    def checked(cls, state: StateVec, action: ActionVec, tick: int, delta: float) -> CausalTuple:
        """The tuple at ``tick`` under ``delta``, with its :class:`TimeIndex`
        and :class:`Perturbation`, built without their checks.

        The caller guarantees that ``tick`` is a non-negative int and that
        ``delta`` is finite with ``|delta| <= DELTA_MAX``.  ``delta`` still
        passes through ``float()``, as in :class:`Perturbation`'s own
        constructor: a clamp to an int ``delta_max`` gives an int.
        """
        set_ = object.__setattr__
        time = object.__new__(TimeIndex)
        set_(time, "tick", tick)
        pert = object.__new__(Perturbation)
        set_(pert, "delta", float(delta))
        tup = object.__new__(cls)
        set_(tup, "state", state)
        set_(tup, "action", action)
        set_(tup, "time", time)
        set_(tup, "delta", pert)
        return tup


@dataclass(frozen=True)
class Transition:
    """An evaluation point plus the state observed one tick later."""

    tuple: CausalTuple
    observed: StateVec

    def __post_init__(self) -> None:
        if len(self.observed) != len(self.tuple.state):
            raise DimensionError(
                f"observed has {len(self.observed)} dims, state has {len(self.tuple.state)}"
            )

    @classmethod
    def checked(cls, tup: CausalTuple, observed: StateVec) -> Transition:
        """The transition from ``tup`` to ``observed``, built without the
        dimension check: the caller guarantees that ``observed`` has as many
        dims as ``tup.state``."""
        tr = object.__new__(cls)
        object.__setattr__(tr, "tuple", tup)
        object.__setattr__(tr, "observed", observed)
        return tr


@dataclass(frozen=True)
class PredictionError:
    """Mean squared error between a predicted and an observed state."""

    epsilon: float
    per_dim: tuple[float, ...]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def scale_factor(delta: Perturbation | float) -> float:
    """Multiplier exp(-delta) applied to every causal effect.

    delta = 0 leaves effects untouched; positive delta dampens; negative
    delta amplifies.  Raises :class:`DomainError` outside [-DELTA_MAX, DELTA_MAX].
    """
    d = delta.delta if isinstance(delta, Perturbation) else float(delta)
    if not math.isfinite(d) or abs(d) > DELTA_MAX:
        raise DomainError(f"delta out of range: {d!r}")
    return math.exp(-d)


def loss(predicted: StateVec, observed: StateVec) -> PredictionError:
    """Per-dimension squared error and its mean.

    The errors are added left to right from 0.0, not with ``sum``: since
    Python 3.12 ``sum`` compensates float rounding, and traces do not write
    epsilon but rebuild it with this function, so it must not depend on the
    Python version.  Vectors of different lengths or of no dimensions raise
    :class:`DimensionError`; a squared error or their sum beyond the float
    range raises :class:`DomainError`, so a loss is always finite.
    """
    p, o = predicted.values, observed.values
    if len(p) != len(o) or not p:
        raise DimensionError(f"predicted has {len(p)} dims, observed has {len(o)}")
    try:
        per_dim = tuple([(a - b) ** 2 for a, b in zip(p, o)])
    except OverflowError as exc:
        raise DomainError("a squared prediction error exceeds the float range") from exc
    total = 0.0
    for sq in per_dim:
        total += sq
    if not math.isfinite(total):  # a difference that overflowed to inf, or the sum
        raise DomainError("a squared prediction error exceeds the float range")
    return PredictionError(total / len(per_dim), per_dim)
