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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import health
from .delivery import (DeliveryNet, FiringKind, FiringRecord, Marking,
                       TrajectoryPoint, completion_key, step)
from .errors import (AmbiguousHealthEventError, CapacityError,
                     InfeasibleCareActionError, NotEnabledError,
                     SimulationError, ValidationError)
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


def system_firing(engagement: np.ndarray,
                  capacities: np.ndarray | None = None) -> np.ndarray:
    """Delivery-net start vector: row sums of the engagement matrix."""
    engagement = np.asarray(engagement, dtype=int)
    u_minus = engagement.sum(axis=1)
    if capacities is not None:
        over = np.nonzero(u_minus > np.asarray(capacities, dtype=int))[0]
        if over.size:
            psi = int(over[0])
            raise CapacityError(
                f"transition {psi} engaged by {int(u_minus[psi])} "
                f"individuals at once, capacity is "
                f"{int(capacities[psi])}")
    return u_minus


def induce_health_firing(feasibility: np.ndarray, selector: np.ndarray,
                         engagement: np.ndarray, individual: int,
                         net: HealthNet,
                         marking: HealthMarking) -> np.ndarray:
    """Health-event firing vector induced for one individual.

    For every transformation process the individual is engaged in, the
    unique enabled candidate among the events it realizes fires. The
    result is verified to reproduce the engaged transformation counts
    exactly before it is returned.
    """
    rhs = selector @ np.asarray(engagement, dtype=int)[:, individual]
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


@dataclass(frozen=True)
class DeliveryAction:
    """Scheduled start of a delivery transition by one individual."""

    time: float
    psi: int
    individual: str
    outcome: int | None = None


@dataclass(frozen=True)
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


_DELIVERY = 0
_HEALTH = 1


def cosimulate(net: DeliveryNet, initial: Marking,
               individuals: Sequence[Individual],
               selector: np.ndarray,
               delivery_actions: Sequence[DeliveryAction],
               health_actions: Sequence[HealthAction] = (),
               mode: str = "replay",
               seed: int | None = 0) -> RunResult:
    """Run both nets against one synchronized clock.

    Delivery starts expand into start/complete pairs spaced by transition
    durations. A start of a transformation transition additionally fires
    the induced health event of the engaged individual, whose completion
    follows after the event's own duration. Scheduled stochastic health
    events fire on their own. Completions apply before starts at the same
    instant, except that a zero-duration delivery completion directly
    follows its own start (see :func:`delivery.completion_key`); remaining
    ties follow schedule order. In sample mode, branch outcomes are drawn
    from a generator seeded once for the whole run.
    """
    if mode not in ("replay", "sample"):
        raise ValidationError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "sample" else None

    ids = [ind.id for ind in individuals]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate individual ids")
    col = {ind.id: i for i, ind in enumerate(individuals)}
    by_id = {ind.id: ind for ind in individuals}
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

    def push(time, order, payload):
        nonlocal seq
        heapq.heappush(heap, (float(time), order, seq, payload))
        seq += 1

    for action in delivery_actions:
        if action.individual not in col:
            raise ValidationError(
                f"schedule names unknown individual {action.individual!r}")
        push(action.time, FiringKind.START.order,
             (_DELIVERY, FiringKind.START, action))
        done, order = completion_key(action.time, net.durations[action.psi])
        push(done, order, (_DELIVERY, FiringKind.COMPLETE, action.psi,
                           action.individual))
    for action in health_actions:
        if action.individual not in col:
            raise ValidationError(
                f"schedule names unknown individual {action.individual!r}")
        push(action.time, FiringKind.START.order,
             (_HEALTH, FiringKind.START, action))

    marking = initial
    completions = np.zeros(net.n_transitions, dtype=int)
    total_cost = 0.0
    zero = np.zeros(net.n_transitions, dtype=int)

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
        column, realized = health.resolve_output(
            ind.net, event, outcome=outcome, rng=rng)
        done = time + ind.net.events[event].duration
        push(done, FiringKind.COMPLETE.order,
             (_HEALTH, FiringKind.COMPLETE, ind_id, event, column,
              magnitude))
        result.trace.append(TraceRow(time, f"health:{ind_id}",
                                     ind.net.events[event].name, event,
                                     FiringKind.START.value))
        record_outcome(time, ind_id)

    while heap:
        time, _, _, payload = heapq.heappop(heap)
        try:
            if payload[0] == _DELIVERY and payload[1] is FiringKind.START:
                action: DeliveryAction = payload[2]
                engagement = np.zeros((net.n_transitions, len(individuals)),
                                      dtype=int)
                engagement[action.psi, col[action.individual]] = 1
                u_minus = system_firing(engagement, net.capacities)
                marking = step(net, marking, u_minus, zero)
                if marking.busy_tokens[action.psi] > \
                        net.capacities[action.psi]:
                    raise CapacityError(
                        f"transition {action.psi} "
                        f"({net.transitions[action.psi].label}) exceeds "
                        f"its concurrent capacity of "
                        f"{int(net.capacities[action.psi])}")
                result.trace.append(TraceRow(
                    time, "delivery", net.transitions[action.psi].label,
                    action.psi, FiringKind.START.value))
                result.delivery_trajectory.append(TrajectoryPoint(
                    time, FiringRecord(action.psi, FiringKind.START, time),
                    marking))

                ind = by_id[action.individual]
                u_l = induce_health_firing(
                    ind.feasibility, selector, engagement,
                    col[action.individual], ind.net,
                    markings[action.individual])
                rhs = selector @ engagement[:, col[action.individual]]
                residual = int(np.abs(ind.feasibility.T @ u_l - rhs).max())
                result.coupling_checks.append(CouplingCheck(
                    time, action.psi, action.individual, residual))
                for event in np.nonzero(u_l)[0]:
                    start_health_event(time, action.individual, int(event),
                                       action.outcome, float(u_l[event]))

            elif payload[0] == _DELIVERY:
                psi, ind_id = payload[2], payload[3]
                pulse = zero.copy()
                pulse[psi] = 1
                marking = step(net, marking, zero, pulse)
                completions[psi] += 1
                total_cost += float(net.costs[psi])
                result.cost_series.append((time, total_cost))
                result.trace.append(TraceRow(
                    time, "delivery", net.transitions[psi].label, psi,
                    FiringKind.COMPLETE.value))
                result.delivery_trajectory.append(TrajectoryPoint(
                    time, FiringRecord(psi, FiringKind.COMPLETE, time),
                    marking))

            elif payload[1] is FiringKind.START:
                action: HealthAction = payload[2]
                ind = by_id[action.individual]
                for event in action.events:
                    if not ind.net.events[event].is_stochastic:
                        raise ValidationError(
                            f"induced event "
                            f"{ind.net.events[event].name!r} cannot be "
                            f"scheduled directly")
                enabled = [e for e in action.events
                           if health.is_enabled(ind.net,
                                                markings[action.individual],
                                                e)]
                if not enabled:
                    if action.optional:
                        result.skipped_actions += 1
                        continue
                    names = [ind.net.events[e].name for e in action.events]
                    raise NotEnabledError(
                        f"none of the scheduled health events {names} is "
                        f"enabled")
                if len(enabled) > 1:
                    names = [ind.net.events[e].name for e in enabled]
                    raise AmbiguousHealthEventError(
                        f"several scheduled health events are enabled at "
                        f"once: {names}")
                event = enabled[0]
                magnitude = 1.0 if rng is not None else \
                    health.enabled_magnitude(
                        ind.net, markings[action.individual], event)
                start_health_event(time, action.individual, event,
                                   action.outcome, magnitude)

            else:
                _, _, ind_id, event, column, magnitude = payload
                ind = by_id[ind_id]
                markings[ind_id] = health.apply_completion(
                    ind.net, markings[ind_id], event, column, magnitude)
                result.trace.append(TraceRow(
                    time, f"health:{ind_id}", ind.net.events[event].name,
                    event, FiringKind.COMPLETE.value))
                record_outcome(time, ind_id)

        except (NotEnabledError, CapacityError, InfeasibleCareActionError,
                AmbiguousHealthEventError, ValidationError) as exc:
            raise SimulationError(
                f"at t={time}: {exc}") from exc

    result.completion_counts = completions
    result.final_marking = marking
    result.final_health = dict(markings)
    return result
