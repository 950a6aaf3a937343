"""Synchronization of the delivery net with each individual's health net.

Each transformation capability of the delivery system realizes one or
more health events. Per individual, a binary feasibility matrix maps
health events to the transformation processes that realize them; a binary
engagement matrix records which individual takes which degree of freedom
at a firing instant. Row-summing the engagement matrix yields the
delivery-net start vector, and selecting its transformation rows yields,
through the feasibility matrix, the health events each engaged individual
undergoes.

When one process realizes several health events, the individual's current
condition decides: exactly one of the candidates must be enabled under
the individual's marking. Zero enabled candidates means the care action
is infeasible; several mean the scenario is ambiguous. Both are errors.

:func:`cosimulate` is the package's one discrete-event kernel. It pops
four kinds of typed event (delivery start and completion, scheduled health
action, health completion) from one time-ordered queue and changes
markings only through :func:`delivery.step` and the :mod:`health`
primitives. Each start engages one individual, so the kernel works on
that individual's engagement column; :func:`system_firing` keeps the
matrix form as a test oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import health
from .delivery import (DeliveryNet, FiringKind, FiringRecord, Marking,
                       TrajectoryPoint, completion_key, step)
from .errors import (AmbiguousHealthEventError, CapacityError,
                     CareNetsError, InfeasibleCareActionError,
                     NotEnabledError, SimulationError, ValidationError)
from .health import HealthMarking, HealthNet
from .structure import ResourceClass, StructuralModel


def build_feasibility(net: HealthNet,
                      transform_names: Sequence[str]) -> np.ndarray:
    """Binary matrix with one row per health event and one column per
    transformation process; a 1 links an induced event to a process that
    realizes it."""
    index = {name: j for j, name in enumerate(transform_names)}
    matrix = np.zeros((net.n_events, len(transform_names)), dtype=int)
    for ev in net.events:
        for name in ev.realized_by:
            if name not in index:
                raise ValidationError(
                    f"event {ev.name!r} names unknown transformation "
                    f"process {name!r}", check="feasibility-tags")
            matrix[ev.index, index[name]] = 1
    validate_feasibility(matrix, net)
    return matrix


def validate_feasibility(matrix: np.ndarray, net: HealthNet) -> None:
    if matrix.shape[0] != net.n_events:
        raise ValidationError("feasibility matrix must have one row per "
                              "health event", check="feasibility-tags")
    for ev in net.events:
        row_sum = int(matrix[ev.index].sum())
        if ev.is_stochastic and row_sum:
            raise ValidationError(
                f"stochastic event {ev.name!r} must have an empty "
                f"feasibility row", check="feasibility-tags")
        if not ev.is_stochastic and row_sum < 1:
            raise ValidationError(
                f"induced event {ev.name!r} has no realizing "
                f"transformation process", check="feasibility-tags")


def build_transform_selector(model: StructuralModel) -> np.ndarray:
    """Selector picking the transformation degrees of freedom out of all
    degrees of freedom, one row per transformation process."""
    n_pf = len(model.transformation_processes)
    selector = np.zeros((n_pf, model.dof_count), dtype=int)
    for psi, (w, v) in enumerate(model.dof_list):
        if model.processes[w].cls is ResourceClass.TRANSFORMATION:
            selector[w, psi] = 1
    return selector


def system_firing(engagement: np.ndarray) -> np.ndarray:
    """Delivery-net start vector: row sums of the engagement matrix."""
    return np.asarray(engagement, dtype=int).sum(axis=1)


def induce_health_firing(feasibility: np.ndarray, selector: np.ndarray,
                         engagement: np.ndarray, net: HealthNet,
                         marking: HealthMarking) -> np.ndarray:
    """Health-event firing vector induced for one individual.

    ``engagement`` is the individual's column of the engagement matrix,
    one entry per delivery transition. For every transformation process
    the individual is engaged in, the unique enabled candidate among the
    events it realizes fires. The result is verified to reproduce the
    engaged transformation counts exactly before it is returned.
    """
    rhs = selector @ np.asarray(engagement, dtype=int)
    u_l = np.zeros(net.n_events, dtype=int)
    for j in np.nonzero(rhs)[0]:
        candidates = np.nonzero(feasibility[:, j])[0]
        enabled = [int(x) for x in candidates
                   if health.is_enabled(net, marking, int(x))]
        if not enabled:
            names = [net.events[int(x)].name for x in candidates]
            raise InfeasibleCareActionError(
                f"transformation process {j} realizes "
                f"{names or 'no events'} but none is enabled under the "
                f"individual's current health state")
        if len(enabled) > 1:
            names = [net.events[x].name for x in enabled]
            raise AmbiguousHealthEventError(
                f"transformation process {j} could realize any of "
                f"{names}; the scenario must disambiguate")
        u_l[enabled[0]] += int(rhs[j])
    if not np.array_equal(feasibility.T @ u_l, rhs):
        raise SimulationError(
            "induced firing vector does not reproduce the engaged "
            "transformation counts")
    return u_l


@dataclass(frozen=True, slots=True)
class DeliveryAction:
    """Scheduled start of a delivery transition by one individual."""

    time: float
    psi: int
    individual: str
    outcome: int | None = None


@dataclass(frozen=True, slots=True)
class HealthAction:
    """Scheduled spontaneous health event.

    ``events`` lists candidate stochastic events; exactly one must be
    enabled when the action fires. Optional actions are skipped when no
    candidate is enabled.
    """

    time: float
    individual: str
    events: tuple[int, ...]
    outcome: int | None = None
    optional: bool = False


@dataclass(frozen=True)
class Individual:
    id: str
    net: HealthNet
    initial: HealthMarking
    feasibility: np.ndarray


@dataclass(frozen=True)
class TraceRow:
    time: float
    net: str
    label: str
    index: int
    kind: str


@dataclass(frozen=True)
class CouplingCheck:
    """Residual of the firing-coupling identity at one start instant."""

    time: float
    psi: int
    individual: str
    residual: int


@dataclass
class RunResult:
    trace: list[TraceRow] = field(default_factory=list)
    delivery_trajectory: list[TrajectoryPoint] = field(default_factory=list)
    cost_series: list[tuple[float, float]] = field(default_factory=list)
    outcome_series: list[tuple[float, str, float]] = field(
        default_factory=list)
    coupling_checks: list[CouplingCheck] = field(default_factory=list)
    mass_checks: list[tuple[float, str, float]] = field(default_factory=list)
    completion_counts: np.ndarray | None = None
    final_marking: Marking | None = None
    final_health: dict[str, HealthMarking] = field(default_factory=dict)
    skipped_actions: int = 0


class DeliveryCompletion(NamedTuple):
    """Completion of a delivery transition started by one individual."""

    psi: int
    individual: str


class HealthCompletion(NamedTuple):
    """Completion of an in-flight health event along its output column."""

    individual: str
    event: int
    column: np.ndarray
    magnitude: float


def cosimulate(net: DeliveryNet, initial: Marking,
               individuals: Sequence[Individual],
               selector: np.ndarray,
               delivery_actions: Sequence[DeliveryAction],
               health_actions: Sequence[HealthAction] = (),
               mode: str = "replay",
               seed: int | None = 0) -> RunResult:
    """Run both nets against one synchronized clock.

    Each :class:`DeliveryAction` is a start, paired with a
    :class:`DeliveryCompletion` after the transition's duration. A start
    of a transformation transition additionally fires the induced health
    event of the engaged individual, whose :class:`HealthCompletion`
    follows after the event's own duration. A :class:`HealthAction` fires
    a stochastic event on its own. Completions apply before starts at the
    same instant, except that a zero-duration delivery completion directly
    follows its own start (see :func:`delivery.completion_key`); remaining
    ties follow schedule order. In sample mode, branch outcomes are drawn
    from a generator seeded once for the whole run. An event that cannot
    be applied raises :class:`SimulationError` naming that event.
    """
    if mode not in ("replay", "sample"):
        raise ValidationError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "sample" else None

    by_id = {ind.id: ind for ind in individuals}
    if len(by_id) != len(individuals):
        raise ValidationError("duplicate individual ids")
    markings = {ind.id: ind.initial for ind in individuals}

    result = RunResult()
    result.delivery_trajectory.append(TrajectoryPoint(0.0, None, initial))
    result.cost_series.append((0.0, 0.0))
    for ind in individuals:
        result.outcome_series.append(
            (0.0, ind.id,
             health.health_outcome(ind.net.values, ind.initial.state_mass)))

    heap: list[tuple] = []
    seq = 0

    def push(time, order, event):
        nonlocal seq
        heapq.heappush(heap, (float(time), order, seq, event))
        seq += 1

    for action in (*delivery_actions, *health_actions):
        if action.individual not in by_id:
            raise ValidationError(
                f"schedule names unknown individual {action.individual!r}")
    for action in delivery_actions:
        push(action.time, FiringKind.START.order, action)
        done, order = completion_key(action.time, net.durations[action.psi])
        push(done, order, DeliveryCompletion(action.psi, action.individual))
    for action in health_actions:
        push(action.time, FiringKind.START.order, action)

    marking = initial
    completions = np.zeros(net.n_transitions, dtype=int)
    total_cost = 0.0
    zero = np.zeros(net.n_transitions, dtype=int)

    def one_hot(psi: int) -> np.ndarray:
        pulse = zero.copy()
        pulse[psi] = 1
        return pulse

    def record_delivery(time: float, psi: int, kind: FiringKind) -> None:
        result.trace.append(TraceRow(time, "delivery",
                                     net.transitions[psi].label, psi,
                                     kind.value))
        result.delivery_trajectory.append(TrajectoryPoint(
            time, FiringRecord(psi, kind, time), marking))

    def record_outcome(time: float, ind_id: str) -> None:
        result.outcome_series.append(
            (time, ind_id,
             health.health_outcome(by_id[ind_id].net.values,
                                   markings[ind_id].state_mass)))
        result.mass_checks.append(
            (time, ind_id, markings[ind_id].total_mass))

    def start_health_event(time, ind_id, event, outcome, magnitude):
        ind = by_id[ind_id]
        pulse = np.zeros(ind.net.n_events)
        pulse[event] = magnitude
        markings[ind_id] = health.fuzzy_step(
            ind.net, markings[ind_id], pulse, np.zeros(ind.net.n_events))
        column, _ = health.resolve_output(ind.net, event, outcome=outcome,
                                          rng=rng)
        push(time + ind.net.events[event].duration,
             FiringKind.COMPLETE.order,
             HealthCompletion(ind_id, event, column, magnitude))
        result.trace.append(TraceRow(time, f"health:{ind_id}",
                                     ind.net.events[event].name, event,
                                     FiringKind.START.value))
        record_outcome(time, ind_id)

    while heap:
        time, _, _, event = heapq.heappop(heap)
        ind_id = event.individual
        try:
            match event:
                case DeliveryAction(psi=psi):
                    engagement = one_hot(psi)
                    marking = step(net, marking, engagement, zero)
                    if marking.busy_tokens[psi] > net.capacities[psi]:
                        raise CapacityError(
                            f"transition {psi} "
                            f"({net.transitions[psi].label}) exceeds its "
                            f"concurrent capacity of "
                            f"{int(net.capacities[psi])}")
                    record_delivery(time, psi, FiringKind.START)

                    ind = by_id[ind_id]
                    u_l = induce_health_firing(
                        ind.feasibility, selector, engagement, ind.net,
                        markings[ind_id])
                    residual = ind.feasibility.T @ u_l - selector @ engagement
                    result.coupling_checks.append(CouplingCheck(
                        time, psi, ind_id,
                        int(np.abs(residual).max(initial=0))))
                    for ev in np.nonzero(u_l)[0]:
                        start_health_event(time, ind_id, int(ev),
                                           event.outcome, float(u_l[ev]))

                case DeliveryCompletion(psi=psi):
                    marking = step(net, marking, zero, one_hot(psi))
                    completions[psi] += 1
                    total_cost += float(net.costs[psi])
                    result.cost_series.append((time, total_cost))
                    record_delivery(time, psi, FiringKind.COMPLETE)

                case HealthAction(events=candidates):
                    hnet = by_id[ind_id].net
                    for ev in candidates:
                        if not hnet.events[ev].is_stochastic:
                            raise ValidationError(
                                f"induced event {hnet.events[ev].name!r} "
                                f"cannot be scheduled directly")
                    enabled = [ev for ev in candidates
                               if health.is_enabled(hnet, markings[ind_id],
                                                    ev)]
                    if not enabled:
                        if event.optional:
                            result.skipped_actions += 1
                            continue
                        names = [hnet.events[ev].name for ev in candidates]
                        raise NotEnabledError(
                            f"none of the scheduled health events {names} "
                            f"is enabled")
                    if len(enabled) > 1:
                        names = [hnet.events[ev].name for ev in enabled]
                        raise AmbiguousHealthEventError(
                            f"several scheduled health events are enabled "
                            f"at once: {names}")
                    magnitude = 1.0 if rng is not None else \
                        health.enabled_magnitude(hnet, markings[ind_id],
                                                 enabled[0])
                    start_health_event(time, ind_id, enabled[0],
                                       event.outcome, magnitude)

                case HealthCompletion(event=ev, column=column,
                                      magnitude=magnitude):
                    hnet = by_id[ind_id].net
                    markings[ind_id] = health.apply_completion(
                        hnet, markings[ind_id], ev, column, magnitude)
                    result.trace.append(TraceRow(
                        time, f"health:{ind_id}", hnet.events[ev].name, ev,
                        FiringKind.COMPLETE.value))
                    record_outcome(time, ind_id)

        except CareNetsError as exc:
            where, events = f"health:{ind_id}", by_id[ind_id].net.events
            match event:
                case DeliveryAction(psi=psi) | DeliveryCompletion(psi=psi):
                    where, label = "delivery", net.transitions[psi].label
                case HealthAction(events=candidates):
                    label = " | ".join(events[ev].name for ev in candidates)
                case HealthCompletion(event=ev):
                    label = events[ev].name
            raise SimulationError(
                f"at t={time}, {where} {label!r}, individual {ind_id!r}: "
                f"{exc}", time=time, net=where, label=label,
                individual=ind_id) from exc

    result.completion_counts = completions
    result.final_marking = marking
    result.final_health = dict(markings)
    return result
