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
Each induced event is realized by exactly one process, so the coupling
identity Fᵀu_L = S·e can hold at every start.

:func:`cosimulate` is the package's one discrete-event kernel. It pops
four kinds of typed event (delivery start and completion, scheduled health
action, health completion) from one time-ordered queue and changes
markings only through :func:`delivery.step` and the :mod:`health`
primitives. The matrix algebra builds and verifies the nets; the kernel
runs on index tables read off the same matrices once per call: the
transformation process of each transition (:func:`process_table`) and,
per individual, the candidate events of each process
(:func:`candidate_table`), looked up by :func:`induced_event`.
:func:`induce_health_firing` and :func:`system_firing` keep the matrix
form as test oracles.
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
    row_sums = matrix.sum(axis=1)
    for ev in net.events:
        row_sum = int(row_sums[ev.index])
        if row_sum > 1:
            raise ValidationError(
                f"induced event {ev.name!r} is realized by {row_sum} "
                f"transformation processes; the coupling identity needs "
                f"exactly one", check="feasibility-tags")
    return matrix


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


def check_coupling(realized: np.ndarray, engaged: np.ndarray) -> int:
    """Largest entry of |Fᵀu_L − S·e|, the coupling residual, given the
    realized counts Fᵀu_L and the engaged counts S·e; it must be 0."""
    residual = int(np.abs(realized - engaged).max(initial=0))
    if residual:
        raise SimulationError(
            "induced firing vector does not reproduce the engaged "
            "transformation counts")
    return residual


def induced_event(net: HealthNet, marking: HealthMarking, process: int,
                  candidates: Sequence[int]) -> int:
    """The one event among ``candidates``, the events transformation
    process ``process`` realizes, that is enabled under ``marking``."""
    enabled = [ev for ev in candidates
               if health.is_enabled(net, marking, ev)]
    if len(enabled) == 1:
        return enabled[0]
    if not enabled:
        names = [net.events[ev].name for ev in candidates]
        raise InfeasibleCareActionError(
            f"transformation process {process} realizes "
            f"{names or 'no events'} but none is enabled under the "
            f"individual's current health state")
    names = [net.events[ev].name for ev in enabled]
    raise AmbiguousHealthEventError(
        f"transformation process {process} could realize any of "
        f"{names}; the scenario must disambiguate")


def induce_health_firing(feasibility: np.ndarray, selector: np.ndarray,
                         engagement: np.ndarray, net: HealthNet,
                         marking: HealthMarking) -> np.ndarray:
    """Health-event firing vector induced for one individual.

    ``engagement`` is the individual's column of the engagement matrix,
    one entry per delivery transition. For every transformation process
    the individual is engaged in, the unique enabled candidate among the
    events it realizes fires. The result is verified to reproduce the
    engaged transformation counts exactly before it is returned. This is
    the matrix oracle of the kernel's index tables; the kernel does not
    call it.
    """
    rhs = selector @ np.asarray(engagement, dtype=int)
    u_l = np.zeros(net.n_events, dtype=int)
    for j in np.nonzero(rhs)[0]:
        candidates = np.nonzero(feasibility[:, j])[0].tolist()
        u_l[induced_event(net, marking, int(j), candidates)] += int(rhs[j])
    check_coupling(feasibility.T @ u_l, rhs)
    return u_l


def process_table(selector: np.ndarray) -> list[int]:
    """Transformation process of every delivery transition, or -1: the
    selector's columns as indices."""
    return [int(column.argmax()) if column.any() else -1
            for column in np.asarray(selector).T]


def candidate_table(feasibility: np.ndarray) -> list[tuple[int, ...]]:
    """Health events each transformation process realizes: the
    feasibility matrix's columns as index tuples."""
    return [tuple(np.flatnonzero(column).tolist())
            for column in np.asarray(feasibility).T]


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


class TraceRow(NamedTuple):
    time: float
    net: str
    label: str
    index: int
    kind: str


class CouplingCheck(NamedTuple):
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
    START, COMPLETE = FiringKind.START, FiringKind.COMPLETE
    start_order, complete_order = START.order, COMPLETE.order
    for action in delivery_actions:
        push(action.time, start_order, action)
        done, order = completion_key(action.time, net.durations[action.psi])
        push(done, order, DeliveryCompletion(action.psi, action.individual))
    for action in health_actions:
        push(action.time, start_order, action)

    # Index tables read off the matrices once per call: a start looks up
    # its process and candidate events instead of multiplying the
    # selector by an engagement vector and scanning feasibility columns.
    selector = np.asarray(selector)
    process_of = process_table(selector)
    candidates = {ind.id: candidate_table(ind.feasibility)
                  for ind in individuals}
    health_net = {ind.id: f"health:{ind.id}" for ind in individuals}
    values = {ind.id: np.asarray(ind.net.values, dtype=float)
              for ind in individuals}
    labels = [t.label for t in net.transitions]
    costs = net.costs.tolist()
    pulses = np.eye(net.n_transitions, dtype=int)
    pulses.flags.writeable = False
    zero = np.zeros(net.n_transitions, dtype=int)
    zero.flags.writeable = False
    start, complete = START.value, COMPLETE.value
    trace = result.trace
    trajectory = result.delivery_trajectory

    marking = initial
    completions = np.zeros(net.n_transitions, dtype=int)
    total_cost = 0.0

    def record_outcome(time: float, ind_id: str) -> None:
        # health.health_outcome without its per-call conversions
        current = markings[ind_id]
        result.outcome_series.append(
            (time, ind_id, float(values[ind_id] @ current.state_mass)))
        result.mass_checks.append((time, ind_id, current.total_mass))

    def start_health_event(time, ind_id, event, outcome):
        hnet = by_id[ind_id].net
        markings[ind_id] = health.start_event(hnet, markings[ind_id], event)
        column = health.resolve_output(hnet, event, outcome=outcome, rng=rng)
        push(time + hnet.events[event].duration, complete_order,
             HealthCompletion(ind_id, event, column))
        trace.append(TraceRow(time, health_net[ind_id],
                              hnet.events[event].name, event, start))
        record_outcome(time, ind_id)

    while heap:
        time, _, _, event = heapq.heappop(heap)
        ind_id = event.individual
        try:
            match event:
                case DeliveryAction(psi=psi):
                    marking = step(net, marking, pulses[psi], zero)
                    if marking.busy_tokens[psi] > net.capacities[psi]:
                        raise CapacityError(
                            f"transition {psi} ({labels[psi]}) exceeds its "
                            f"concurrent capacity of "
                            f"{int(net.capacities[psi])}")
                    trace.append(TraceRow(time, "delivery", labels[psi], psi,
                                          start))
                    trajectory.append(TrajectoryPoint(
                        time, FiringRecord(psi, START, time), marking))

                    process = process_of[psi]
                    if process < 0:
                        result.coupling_checks.append(
                            CouplingCheck(time, psi, ind_id, 0))
                        continue
                    ind = by_id[ind_id]
                    ev = induced_event(ind.net, markings[ind_id], process,
                                       candidates[ind_id][process])
                    # Fᵀu_L and S·e for u_L = e_ev and e = e_psi
                    residual = check_coupling(ind.feasibility[ev],
                                              selector[:, psi])
                    result.coupling_checks.append(
                        CouplingCheck(time, psi, ind_id, residual))
                    start_health_event(time, ind_id, ev, event.outcome)

                case DeliveryCompletion(psi=psi):
                    marking = step(net, marking, zero, pulses[psi])
                    completions[psi] += 1
                    total_cost += costs[psi]
                    result.cost_series.append((time, total_cost))
                    trace.append(TraceRow(time, "delivery", labels[psi], psi,
                                          complete))
                    trajectory.append(TrajectoryPoint(
                        time, FiringRecord(psi, COMPLETE, time), marking))

                case HealthAction(events=events):
                    hnet = by_id[ind_id].net
                    for ev in events:
                        if not hnet.events[ev].is_stochastic:
                            raise ValidationError(
                                f"induced event {hnet.events[ev].name!r} "
                                f"cannot be scheduled directly")
                    enabled = [ev for ev in events
                               if health.is_enabled(hnet, markings[ind_id],
                                                    ev)]
                    if not enabled:
                        if event.optional:
                            result.skipped_actions += 1
                            continue
                        names = [hnet.events[ev].name for ev in events]
                        raise NotEnabledError(
                            f"none of the scheduled health events {names} "
                            f"is enabled")
                    if len(enabled) > 1:
                        names = [hnet.events[ev].name for ev in enabled]
                        raise AmbiguousHealthEventError(
                            f"several scheduled health events are enabled "
                            f"at once: {names}")
                    start_health_event(time, ind_id, enabled[0],
                                       event.outcome)

                case HealthCompletion(event=ev, column=column):
                    hnet = by_id[ind_id].net
                    markings[ind_id] = health.apply_completion(
                        hnet, markings[ind_id], ev, column)
                    trace.append(TraceRow(time, health_net[ind_id],
                                          hnet.events[ev].name, ev, complete))
                    record_outcome(time, ind_id)

        except CareNetsError as exc:
            where, names = health_net[ind_id], by_id[ind_id].net.events
            match event:
                case DeliveryAction(psi=psi) | DeliveryCompletion(psi=psi):
                    where, label = "delivery", labels[psi]
                case HealthAction(events=events):
                    label = " | ".join(names[ev].name for ev in events)
                case HealthCompletion(event=ev):
                    label = names[ev].name
            raise SimulationError(
                f"at t={time}, {where} {label!r}, individual {ind_id!r}: "
                f"{exc}", time=time, net=where, label=label,
                individual=ind_id) from exc

    result.completion_counts = completions
    result.final_marking = marking
    result.final_health = dict(markings)
    return result
