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

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NotEnabledError, ValidationError
from .structure import BoolMatrix, StructuralModel, dof_key


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
        for w, p in enumerate(model.processes):
            if not p.is_transport:
                coords.append((w, y))
            elif getattr(p, endpoint) == y:
                coords.extend((w, v) for v in range(model.n_resources))
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
    """One transition: a process allocated to a resource. Its index is
    its position in :attr:`DeliveryNet.transitions`."""

    label: str


@dataclass(frozen=True)
class DeliveryNet:
    """Places, transitions and the incidence matrices between them.

    ``origin`` and ``destination`` are read off ``m_minus`` and ``m_plus``
    at construction (so :func:`dataclasses.replace` rebuilds them): the
    place each transition takes its token from and delivers it to.
    """

    place_names: tuple[str, ...]
    transitions: tuple[Transition, ...]
    m_minus: np.ndarray
    m_plus: np.ndarray
    durations: np.ndarray
    costs: np.ndarray
    capacities: np.ndarray
    origin: tuple[int, ...] = field(init=False, repr=False)
    destination: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        n_places, n_trans = len(self.place_names), len(self.transitions)
        for name, mat in (("m_minus", self.m_minus), ("m_plus", self.m_plus)):
            if mat.shape != (n_places, n_trans):
                raise ValidationError(f"{name} has shape {mat.shape}, "
                                      f"expected ({n_places}, {n_trans})")
            binary = np.isin(mat, (0, 1)).all(axis=0)
            if not binary.all():
                bad = int(np.nonzero(~binary)[0][0])
                raise ValidationError(
                    f"column {bad} of {name} holds {mat[:, bad].tolist()}, "
                    f"expected only 0 and 1", check="incidence-column-sums")
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
                                      f"transition", check=name)
            if not (vec >= 0).all():  # NaN too: no completion time is NaN
                raise ValidationError(f"{name} must be nonnegative",
                                      check=name)
        if self.capacities.shape != (n_trans,) \
                or not (self.capacities >= 1).all():
            raise ValidationError("capacities must have one entry per "
                                  "transition, each at least 1",
                                  check="capacities")
        # every column is one-hot, so its argmax is its one place
        for name, mat in (("origin", self.m_minus),
                          ("destination", self.m_plus)):
            object.__setattr__(self, name,
                               tuple(mat.argmax(axis=0).tolist())
                               if n_trans else ())

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
            Transition(dof_key(model.processes[w].name,
                               model.resources[v].name))
            for w, v in model.dof_list)
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


class Marking(NamedTuple):
    """Token counts at places plus tokens held by in-progress transitions."""

    place_tokens: np.ndarray
    busy_tokens: np.ndarray

    @classmethod
    def initial(cls, net: DeliveryNet,
                tokens: Iterable[int] | None = None) -> "Marking":
        """The marking with ``tokens`` at the places and none in flight.
        One place can come to hold every token, so the total, summed
        exactly, must fit the int64 counts too."""
        try:
            place = (np.zeros(net.n_places, dtype=int) if tokens is None
                     else np.asarray(list(tokens), dtype=int))
        except OverflowError:
            raise ValidationError("initial token counts must fit in 64 "
                                  "bits", check="initial-tokens") from None
        if place.shape != (net.n_places,):
            raise ValidationError("initial tokens must cover every place",
                                  check="initial-tokens")
        if np.any(place < 0):
            raise ValidationError("initial token counts must be nonnegative",
                                  check="initial-tokens")
        total = sum(place.tolist())
        if total > np.iinfo(place.dtype).max:
            raise ValidationError(f"initial token counts total {total}, "
                                  f"more than 64 bits hold",
                                  check="initial-tokens")
        return cls(place, np.zeros(net.n_transitions, dtype=int))

    @property
    def total(self) -> int:
        return int(self.place_tokens.sum() + self.busy_tokens.sum())


def step(net: DeliveryNet, marking: Marking, psi: int,
         kind: str) -> Marking:
    """Fire transition ``psi`` once: a ``"start"`` moves a token from its
    origin place into the transition, a ``"complete"`` moves the token the
    transition holds to its destination place.

    Every transition has one origin and one destination place, so a firing
    moves one token and equals :func:`state_equation` with a one-hot
    pulse, which the tests check. A start from an empty place, or a
    completion of a transition that holds no token, is rejected before any
    state changes.
    """
    if not 0 <= psi < len(net.transitions):
        raise ValidationError(f"transition {psi} is out of range for a net "
                              f"of {len(net.transitions)} transitions")
    place_tokens = marking.place_tokens.copy()
    busy_tokens = marking.busy_tokens.copy()
    if kind == "start":
        place = net.origin[psi]
        if place_tokens[place] < 1:
            raise NotEnabledError(
                f"transition {psi} ({net.transitions[psi].label}) not "
                f"enabled: place {net.place_names[place]!r} has no token "
                f"to consume")
        place_tokens[place] -= 1
        busy_tokens[psi] += 1
    elif kind == "complete":
        if busy_tokens[psi] < 1:
            raise NotEnabledError(
                f"completion without start: transition {psi} "
                f"({net.transitions[psi].label}) holds no token")
        busy_tokens[psi] -= 1
        place_tokens[net.destination[psi]] += 1
    else:
        raise ValidationError(f"unknown firing kind {kind!r}; expected "
                              f"'start' or 'complete'")
    return Marking(place_tokens, busy_tokens)


def state_equation(net: DeliveryNet, marking: Marking,
                   u_minus: np.ndarray, u_plus: np.ndarray) -> Marking:
    """Advance the marking by the state equation
    M' = M − M⁻u⁻ + M⁺u⁺ for start vector ``u_minus`` and completion
    vector ``u_plus``: the matrix oracle of :func:`step`, which the
    kernel calls instead.

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
        labels = ", ".join(f"{psi} ({t.label})"
                           for psi, t in enumerate(net.transitions)
                           if u_minus[psi] > 0 and net.m_minus[place, psi] > 0)
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
    """One row of the delivery trajectory, as ``delivery.csv`` prints it:
    the place tokens after a firing of transition ``psi`` of ``kind``
    ``"start"`` or ``"complete"``, and the cumulative cost of the
    completions so far. The first point holds the initial place tokens,
    with ``psi`` None and ``kind`` ``"initial"``."""

    time: float
    psi: int | None
    kind: str
    place_tokens: np.ndarray
    cost: float
