"""Per-individual health nets: fuzzy timed Petri nets over clinical states.

Places are health states, transitions are health events, and arc weights
are transition probabilities, so the marking is a probability distribution
over states plus mass held by events that are currently firing. Events are
either induced (realized by a transformation capability of the delivery
system) or stochastic (spontaneous, like disease onset or progression).

Every firing moves one unit of mass: a start takes each input state's
arc weight out of that state, so an event is enabled when each input
state holds its weight, and the completion delivers the unit along one
output column. :func:`fuzzy_step` keeps the general form over
fractional firing vectors as the oracle of these column forms.

An event with several output arcs is a branching clinical outcome. A
firing can either spread its mass over the branches according to the
declared weights, realize one named branch, or realize a branch drawn by
a seeded generator; all three keep probability mass conserved because
every resolved output column sums to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotEnabledError, ValidationError

ENABLE_TOL = 1e-12
MASS_TOL = 1e-9


class HealthEventKind(Enum):
    INDUCED = "induced"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class HealthEvent:
    """One health event. Its index is its position in
    :attr:`HealthNet.events`, the column it owns in ``m_minus`` and
    ``m_plus``."""

    name: str
    kind: HealthEventKind
    realized_by: tuple[str, ...] = ()
    duration: float = 0.0

    @property
    def is_stochastic(self) -> bool:
        return self.kind is HealthEventKind.STOCHASTIC


def _outside_unit(array: np.ndarray) -> bool:
    """Whether an entry is not finite or lies outside [0, 1]. ``min`` and
    ``max`` propagate NaN, which fails both comparisons, and ``initial``
    covers an empty array."""
    return not (array.min(initial=0.0) >= 0 and array.max(initial=1.0) <= 1)


@dataclass(frozen=True)
class HealthNet:
    state_names: tuple[str, ...]
    events: tuple[HealthEvent, ...]
    m_minus: np.ndarray
    m_plus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ns, ne = len(self.state_names), len(self.events)
        # name lookups pick the first match, so a repeated name would
        # shadow a state or event
        for what, names in (("state", self.state_names),
                            ("event", [ev.name for ev in self.events])):
            if len(set(names)) != len(names):
                name = next(n for i, n in enumerate(names) if n in names[:i])
                raise ValidationError(f"duplicate health {what} {name!r}",
                                      check="health-states")
        for name, mat in (("m_minus", self.m_minus), ("m_plus", self.m_plus)):
            if mat.shape != (ns, ne):
                raise ValidationError(f"{name} has shape {mat.shape}, "
                                      f"expected ({ns}, {ne})")
            if _outside_unit(mat):
                raise ValidationError(
                    f"{name} weights must lie in [0, 1]",
                    check="health-event-normalization")
            sums = mat.sum(axis=0)
            off = np.abs(sums - 1.0)
            if ne and off.max() > MASS_TOL:
                bad = int(off.argmax())
                raise ValidationError(
                    f"column {bad} ({self.events[bad].name!r}) of {name} "
                    f"sums to {float(sums[bad])}, expected 1",
                    check="health-event-normalization")
        if self.values.shape != (ns,):
            raise ValidationError("value vector must have one entry per "
                                  "state", check="health-values")
        if _outside_unit(self.values):
            raise ValidationError("state values must lie in [0, 1]",
                                  check="health-values")
        for ev in self.events:
            if not ev.duration >= 0:  # NaN too
                raise ValidationError(
                    f"event {ev.name!r} has negative duration",
                    check="durations")
            if ev.is_stochastic and ev.realized_by:
                raise ValidationError(
                    f"stochastic event {ev.name!r} must not name realizing "
                    f"processes", check="feasibility-tags")
            if not ev.is_stochastic and not ev.realized_by:
                raise ValidationError(
                    f"induced event {ev.name!r} names no realizing process",
                    check="feasibility-tags")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def state_index(self, name: str) -> int:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown health state {name!r}") from None


@dataclass(frozen=True)
class HealthMarking:
    """Probability mass over states plus mass inside firing events."""

    state_mass: np.ndarray
    event_mass: np.ndarray

    @classmethod
    def point(cls, net: HealthNet, state: int | str) -> "HealthMarking":
        idx = net.state_index(state) if isinstance(state, str) else int(state)
        mass = np.zeros(net.n_states)
        mass[idx] = 1.0
        return cls(mass, np.zeros(net.n_events))

    @classmethod
    def from_distribution(cls, net: HealthNet,
                          masses: dict[str, float]) -> "HealthMarking":
        mass = np.zeros(net.n_states)
        for name, m in masses.items():
            mass[net.state_index(name)] = float(m)
        return cls(mass, np.zeros(net.n_events))

    @property
    def total_mass(self) -> float:
        return float(self.state_mass.sum() + self.event_mass.sum())


def check_unit_mass(marking: HealthMarking) -> None:
    """One individual carries exactly one unit of probability mass."""
    if abs(marking.total_mass - 1.0) > MASS_TOL:
        raise ValidationError(
            f"health marking mass is {marking.total_mass!r}, expected 1",
            check="initial-mass")
    low = min(marking.state_mass.min(initial=0.0),
              marking.event_mass.min(initial=0.0))
    if low < -MASS_TOL:
        raise ValidationError("health marking has negative mass",
                              check="initial-mass")


def fuzzy_step(net: HealthNet, marking: HealthMarking,
               u_minus: np.ndarray, u_plus: np.ndarray) -> HealthMarking:
    """Advance the probabilistic marking by one firing step.

    Identical algebra to the delivery net but over fractional magnitudes:
    starting an event pulls weighted mass out of its input states, and
    completing it pushes weighted mass into its output states.
    """
    u_minus = np.asarray(u_minus, dtype=float)
    u_plus = np.asarray(u_plus, dtype=float)
    if u_minus.shape != (net.n_events,) or u_plus.shape != (net.n_events,):
        raise ValidationError("firing vectors must have one entry per event")

    after_starts = marking.state_mass - net.m_minus @ u_minus
    if after_starts.min(initial=0.0) < -ENABLE_TOL:
        state = int(after_starts.argmin())
        guilty = [net.events[e].name for e in range(net.n_events)
                  if u_minus[e] > 0 and net.m_minus[state, e] > 0]
        raise NotEnabledError(
            f"health event {', '.join(map(repr, guilty))} not enabled: "
            f"state {net.state_names[state]!r} lacks mass")

    after_completes = marking.event_mass - u_plus
    if after_completes.min(initial=0.0) < -ENABLE_TOL:
        event = int(after_completes.argmin())
        raise NotEnabledError(
            f"health event {net.events[event].name!r} completion exceeds "
            f"its in-flight mass")

    return HealthMarking(after_starts + net.m_plus @ u_plus,
                         after_completes + u_minus)


def health_outcome(values: np.ndarray, state_mass: np.ndarray) -> float:
    """Value-weighted state mass, reported as the fraction healthy.

    Mass held by in-flight events contributes nothing: the outcome is
    stated over the state distribution alone.
    """
    values = np.asarray(values, dtype=float)
    state_mass = np.asarray(state_mass, dtype=float)
    if values.shape != state_mass.shape:
        raise ValidationError(
            f"value vector shape {values.shape} does not match state mass "
            f"shape {state_mass.shape}")
    return float(values @ state_mass)


def is_enabled(net: HealthNet, marking: HealthMarking, event: int) -> bool:
    """Whether every input state holds the event's ``consumes`` weight,
    the mass one firing takes from it."""
    return bool(np.minimum.reduce(marking.state_mass - net.m_minus[:, event],
                                  initial=0.0) >= -ENABLE_TOL)


def sample_branch(net: HealthNet, event: int,
                  rng: np.random.Generator) -> int:
    """Draw one output state of an event, weighted by its output arcs."""
    weights = net.m_plus[:, event]
    cdf = np.cumsum(weights)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))


def resolve_output(net: HealthNet, event: int,
                   outcome: int | None = None,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Output column for a firing: sampled branch, named branch, or the
    declared weighted spread, in that order of precedence."""
    if rng is not None:
        outcome = sample_branch(net, event, rng)
    elif outcome is None:
        return net.m_plus[:, event].copy()
    elif net.m_plus[outcome, event] <= 0:
        raise ValidationError(
            f"state {net.state_names[outcome]!r} is not an outcome of "
            f"event {net.events[event].name!r}")
    column = np.zeros(net.n_states)
    column[outcome] = 1.0
    return column


def start_event(net: HealthNet, marking: HealthMarking,
                event: int) -> HealthMarking:
    """Start one event, pulling one unit of firing out of its input
    column: the column form of :func:`fuzzy_step` with a single unit
    start entry."""
    state_mass = marking.state_mass - net.m_minus[:, event]
    # np.minimum.reduce is ndarray.min without its Python wrapper
    if np.minimum.reduce(state_mass, initial=0.0) < -ENABLE_TOL:
        state = int(state_mass.argmin())
        raise NotEnabledError(
            f"health event {net.events[event].name!r} not enabled: "
            f"state {net.state_names[state]!r} lacks mass")
    event_mass = marking.event_mass.copy()
    event_mass[event] += 1.0
    return HealthMarking(state_mass, event_mass)


def apply_completion(net: HealthNet, marking: HealthMarking, event: int,
                     column: np.ndarray) -> HealthMarking:
    """Complete one unit of an in-flight event, delivering its mass
    along ``column``."""
    if marking.event_mass[event] - 1.0 < -ENABLE_TOL:
        raise NotEnabledError(
            f"health event {net.events[event].name!r} completion exceeds "
            f"its in-flight mass")
    event_mass = marking.event_mass.copy()
    event_mass[event] -= 1.0
    return HealthMarking(marking.state_mass + column, event_mass)
