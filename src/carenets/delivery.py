"""Timed Petri net of the care delivery system.

There is one place per buffer (or per aggregate place) and one transition
per structural degree of freedom. The incidence matrices are assembled by
superposing, for every buffer, a projected template matrix that marks the
degrees of freedom interacting with that buffer: a non-transport
capability both consumes from and produces into the buffer it lives at,
while a transport capability consumes from its origin and produces into
its destination, whichever resource executes it.

Tokens are individuals. A transition holds its token between the start
and the completion of a firing, so the total token count over places and
transitions is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NotEnabledError, ValidationError
from .structure import BoolMatrix, StructuralModel


class FiringKind(Enum):
    START = "start"
    COMPLETE = "complete"

    @property
    def order(self) -> int:
        # Completions apply before starts sharing the same instant, so a
        # token released by a completion can immediately enable a start.
        return 0 if self is FiringKind.COMPLETE else 1


def completion_key(start: float, duration: float) -> tuple[float, int]:
    """Time and tie-break order of the completion of a firing started at
    ``start``. A zero-duration completion takes the order of a start, so
    that among events sharing its instant it slots directly after its own
    start instead of jumping ahead of it with the other completions."""
    done = float(start) + float(duration)
    kind = FiringKind.START if done == start else FiringKind.COMPLETE
    return done, kind.order


def _incidence(model: StructuralModel, endpoint: str) -> np.ndarray:
    """Incidence matrix whose entry (y, psi) is 1 when transition psi
    touches buffer y at ``endpoint`` (``"origin"`` or ``"destination"``).
    Row y projects the template marking every capability that touches y
    there: all non-transport processes at y's own column, plus every
    transport process with that endpoint at y, at any executing resource.
    """
    inc = np.zeros((model.n_buffers, model.dof_count), dtype=int)
    for y in range(model.n_buffers):
        coords = []
        for p in model.processes:
            if not p.is_transport:
                coords.append((p.id, y))
            elif getattr(p, endpoint) == y:
                coords.extend((p.id, v) for v in range(model.n_resources))
        template = BoolMatrix.from_pairs(
            (model.n_processes, model.n_resources), coords)
        inc[y, :] = model.projection.apply(template.vec_dense())
    return inc


def build_incidence_out(model: StructuralModel) -> np.ndarray:
    """Consumption matrix: entry (y, psi) is 1 when transition psi takes
    its token from buffer y."""
    return _incidence(model, "origin")


def build_incidence_in(model: StructuralModel) -> np.ndarray:
    """Production matrix: entry (y, psi) is 1 when transition psi delivers
    its token to buffer y."""
    return _incidence(model, "destination")


@dataclass(frozen=True)
class Transition:
    """One transition: a process allocated to a resource."""

    psi: int
    label: str


@dataclass(frozen=True)
class DeliveryNet:
    place_names: tuple[str, ...]
    transitions: tuple[Transition, ...]
    m_minus: np.ndarray
    m_plus: np.ndarray
    durations: np.ndarray
    costs: np.ndarray
    capacities: np.ndarray

    def __post_init__(self):
        n_places, n_trans = len(self.place_names), len(self.transitions)
        for name, mat in (("m_minus", self.m_minus), ("m_plus", self.m_plus)):
            if mat.shape != (n_places, n_trans):
                raise ValidationError(f"{name} has shape {mat.shape}, "
                                      f"expected ({n_places}, {n_trans})")
            sums = mat.sum(axis=0)
            if n_trans and not np.array_equal(sums, np.ones(n_trans, int)):
                bad = int(np.nonzero(sums != 1)[0][0])
                raise ValidationError(
                    f"column {bad} of {name} sums to {int(sums[bad])}, "
                    f"expected exactly 1", check="incidence-column-sums")
        for name, vec in (("durations", self.durations),
                          ("costs", self.costs)):
            if vec.shape != (n_trans,):
                raise ValidationError(f"{name} must have one entry per "
                                      f"transition")
            if np.any(vec < 0):
                raise ValidationError(f"{name} must be nonnegative",
                                      check=name)

    @classmethod
    def from_model(cls, model: StructuralModel,
                   durations: Sequence[float],
                   costs: Sequence[float],
                   capacities: Sequence[int] | None = None) -> "DeliveryNet":
        m_minus = build_incidence_out(model)
        m_plus = build_incidence_in(model)
        if model.aggregation is None:
            place_names = tuple(r.name for r in model.buffers)
        else:
            # places over aggregates: A·M⁻ and A·M⁺ for the aggregation
            # matrix A, whose width StructuralModel.build has checked
            a = model.aggregation.matrix.to_dense()
            m_minus, m_plus = a @ m_minus, a @ m_plus
            place_names = model.aggregation.names
        transitions = tuple(
            Transition(i, f"{model.processes[w].name} @ "
                          f"{model.resources[v].name}")
            for i, (w, v) in enumerate(model.dof_list))
        caps = (np.ones(model.dof_count, dtype=int) if capacities is None
                else np.asarray(capacities, dtype=int))
        return cls(place_names, transitions, m_minus, m_plus,
                   np.asarray(durations, dtype=float),
                   np.asarray(costs, dtype=float), caps)

    @property
    def n_places(self) -> int:
        return len(self.place_names)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class Marking:
    """Token counts at places plus tokens held by in-progress transitions."""

    place_tokens: np.ndarray
    busy_tokens: np.ndarray

    @classmethod
    def initial(cls, net: DeliveryNet,
                tokens: Iterable[int] | None = None) -> "Marking":
        place = (np.zeros(net.n_places, dtype=int) if tokens is None
                 else np.asarray(list(tokens), dtype=int))
        if place.shape != (net.n_places,):
            raise ValidationError("initial tokens must cover every place")
        if np.any(place < 0):
            raise ValidationError("initial token counts must be nonnegative",
                                  check="initial-tokens")
        return cls(place, np.zeros(net.n_transitions, dtype=int))

    @property
    def total(self) -> int:
        return int(self.place_tokens.sum() + self.busy_tokens.sum())


class FiringRecord(NamedTuple):
    psi: int
    kind: FiringKind
    time: float


def step(net: DeliveryNet, marking: Marking,
         u_minus: np.ndarray, u_plus: np.ndarray) -> Marking:
    """Advance the marking by one firing step.

    Starts consume tokens from the origin places of the started
    transitions; completions move tokens from transitions to their
    destination places. A start that would drive any place negative, or a
    completion without a matching started token, is rejected before any
    state changes.
    """
    u_minus = np.asarray(u_minus, dtype=int)
    u_plus = np.asarray(u_plus, dtype=int)
    shape = (len(net.transitions),)
    if u_minus.shape != shape or u_plus.shape != shape:
        raise ValidationError("firing vectors must have one entry per "
                              "transition")

    # ndarray.argmin is a C method; min() and any() go through Python
    # wrappers that cost more than the whole check on vectors this short.
    after_starts = marking.place_tokens - net.m_minus @ u_minus
    if after_starts.size and after_starts[after_starts.argmin()] < 0:
        place = int((after_starts < 0).argmax())
        guilty = [t.psi for t in net.transitions
                  if u_minus[t.psi] > 0 and net.m_minus[place, t.psi] > 0]
        labels = ", ".join(f"{psi} ({net.transitions[psi].label})"
                           for psi in guilty)
        raise NotEnabledError(
            f"transition {labels} not enabled: place "
            f"{net.place_names[place]!r} has no token to consume")

    after_completes = marking.busy_tokens - u_plus
    if after_completes.size and after_completes[after_completes.argmin()] < 0:
        psi = int((after_completes < 0).argmax())
        raise NotEnabledError(
            f"completion without start: transition {psi} "
            f"({net.transitions[psi].label}) holds no token")

    return Marking(after_starts + net.m_plus @ u_plus,
                   after_completes + u_minus)


class TrajectoryPoint(NamedTuple):
    time: float
    record: FiringRecord | None
    marking: Marking
