"""Per-individual health nets: fuzzy timed Petri nets over clinical states.

Places are health states, transitions are health events, and arc weights
are transition probabilities, so the marking is a probability distribution
over states plus mass held by events that are currently firing. Events are
either induced (realized by a transformation capability of the delivery
system) or stochastic (spontaneous, like disease onset or progression).

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
    index: int
    name: str
    kind: HealthEventKind
    realized_by: tuple[str, ...] = ()
    duration: float = 0.0
    note: str | None = None

    @property
    def is_stochastic(self) -> bool:
        return self.kind is HealthEventKind.STOCHASTIC


@dataclass(frozen=True)
class HealthNet:
    state_names: tuple[str, ...]
    events: tuple[HealthEvent, ...]
    m_minus: np.ndarray
    m_plus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ns, ne = len(self.state_names), len(self.events)
        for name, mat in (("m_minus", self.m_minus), ("m_plus", self.m_plus)):
            if mat.shape != (ns, ne):
                raise ValidationError(f"{name} has shape {mat.shape}, "
                                      f"expected ({ns}, {ne})")
            if np.any(mat < 0) or np.any(mat > 1):
                raise ValidationError(
                    f"{name} weights must lie in [0, 1]",
                    check="health-event-normalization")
            sums = mat.sum(axis=0)
            off = np.abs(sums - 1.0)
            if ne and off.max() > MASS_TOL:
                bad = int(off.argmax())
                raise ValidationError(
                    f"column {bad} ({self.events[bad].name!r}) of {name} "
                    f"sums to {sums[bad]!r}, expected 1",
                    check="health-event-normalization")
        if self.values.shape != (ns,):
            raise ValidationError("value vector must have one entry per "
                                  "state")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ValidationError("state values must lie in [0, 1]",
                                  check="health-values")
        for ev in self.events:
            if ev.duration < 0:
                raise ValidationError(
                    f"event {ev.name!r} has negative duration")
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

    def event_index(self, name: str) -> int:
        for ev in self.events:
            if ev.name == name:
                return ev.index
        raise ValidationError(f"unknown health event {name!r}")


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


def check_unit_mass(marking: HealthMarking, tol: float = MASS_TOL) -> None:
    """One individual carries exactly one unit of probability mass."""
    if abs(marking.total_mass - 1.0) > tol:
        raise ValidationError(
            f"health marking mass is {marking.total_mass!r}, expected 1",
            check="initial-mass")
    low = min(marking.state_mass.min(initial=0.0),
              marking.event_mass.min(initial=0.0))
    if low < -tol:
        raise ValidationError("health marking has negative mass",
                              check="initial-mass")


def fuzzy_step(net: HealthNet, marking: HealthMarking,
               u_minus: np.ndarray, u_plus: np.ndarray,
               tol: float = ENABLE_TOL) -> HealthMarking:
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
    if after_starts.min(initial=0.0) < -tol:
        state = int(after_starts.argmin())
        guilty = [net.events[e].name for e in range(net.n_events)
                  if u_minus[e] > 0 and net.m_minus[state, e] > 0]
        raise NotEnabledError(
            f"health event {', '.join(map(repr, guilty))} not enabled: "
            f"state {net.state_names[state]!r} lacks mass")

    after_completes = marking.event_mass - u_plus
    if after_completes.min(initial=0.0) < -tol:
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


def enabled_magnitude(net: HealthNet, marking: HealthMarking,
                      event: int) -> float:
    """Largest firing magnitude the input states can currently support."""
    column = net.m_minus[:, event]
    support = np.nonzero(column)[0]
    return float((marking.state_mass[support] / column[support]).min())


def is_enabled(net: HealthNet, marking: HealthMarking, event: int,
               magnitude: float = 1.0, tol: float = ENABLE_TOL) -> bool:
    return bool(np.all(marking.state_mass - net.m_minus[:, event] * magnitude
                       >= -tol))


def sample_branch(net: HealthNet, event: int,
                  rng: np.random.Generator) -> int:
    """Draw one output state of an event, weighted by its output arcs."""
    weights = net.m_plus[:, event]
    cdf = np.cumsum(weights)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))


def resolve_output(net: HealthNet, event: int,
                   outcome: int | None = None,
                   rng: np.random.Generator | None = None,
                   ) -> tuple[np.ndarray, int | None]:
    """Output column for a firing: sampled branch, named branch, or the
    declared weighted spread, in that order of precedence."""
    if rng is not None:
        state = sample_branch(net, event, rng)
        column = np.zeros(net.n_states)
        column[state] = 1.0
        return column, state
    if outcome is not None:
        if net.m_plus[outcome, event] <= 0:
            raise ValidationError(
                f"state {net.state_names[outcome]!r} is not an outcome of "
                f"event {net.events[event].name!r}")
        column = np.zeros(net.n_states)
        column[outcome] = 1.0
        return column, outcome
    return net.m_plus[:, event].copy(), None


def apply_completion(net: HealthNet, marking: HealthMarking, event: int,
                     column: np.ndarray, magnitude: float,
                     tol: float = ENABLE_TOL) -> HealthMarking:
    """Complete an in-flight event, delivering mass along ``column``."""
    if marking.event_mass[event] - magnitude < -tol:
        raise NotEnabledError(
            f"health event {net.events[event].name!r} completion exceeds "
            f"its in-flight mass")
    state_mass = marking.state_mass + column * magnitude
    event_mass = marking.event_mass.copy()
    event_mass[event] -= magnitude
    return HealthMarking(state_mass, event_mass)
