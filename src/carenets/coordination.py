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
The coupling identity Fᵀu_L = S·e then holds by construction: the tables
below accept only selector columns and feasibility rows with at most one
1, so a start of psi engages the one process p with S·e_psi = e_p and
fires one of p's candidates, whose row of F is e_p.

:func:`cosimulate` is the package's one discrete-event kernel. It pops
four kinds of typed event (delivery start and completion, scheduled health
action, health completion) from one queue, ordered by time and then by
:data:`RANK`, and changes markings only through :func:`delivery.step`
and the :mod:`health` primitives. The matrix algebra builds and verifies
the nets; the kernel runs on index tables read off the same matrices
once per call: the transformation process of each transition
(:func:`process_table`) and, per distinct feasibility matrix, the
candidate events of each process (:func:`candidate_table`), looked up by
:func:`induced_event`.
:func:`induce_health_firing` and :func:`system_firing` keep the matrix
form as test oracles.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import health
from .delivery import DeliveryNet, Marking, TrajectoryPoint, step
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
    for ev, row_sum in zip(net.events, matrix.sum(axis=1).tolist()):
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


def check_coupling(realized: np.ndarray, engaged: np.ndarray) -> None:
    """Raise unless the realized counts Fᵀu_L equal the engaged counts
    S·e, that is unless the coupling residual is 0."""
    if not np.array_equal(realized, engaged):
        raise SimulationError(
            "induced firing vector does not reproduce the engaged "
            "transformation counts")


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
    """Health-event firing vector induced for one individual by
    ``engagement``, its column of the engagement matrix: for every process
    it engages, the unique enabled candidate fires, and the result is
    checked against the coupling identity. The matrix oracle of the
    kernel's index tables; the kernel does not call it."""
    rhs = selector @ np.asarray(engagement, dtype=int)
    u_l = np.zeros(net.n_events, dtype=int)
    for j in np.nonzero(rhs)[0]:
        candidates = np.nonzero(feasibility[:, j])[0].tolist()
        u_l[induced_event(net, marking, int(j), candidates)] += int(rhs[j])
    check_coupling(feasibility.T @ u_l, rhs)
    return u_l


def _one_hot(matrix: np.ndarray, axis: int, what: str,
             check: str = "structure") -> np.ndarray:
    """``matrix`` as an array if it holds only 0 and 1, with at most one 1
    per column (axis 0) or row (axis 1), so its index table is exact."""
    matrix = np.asarray(matrix)
    if np.isin(matrix, (0, 1)).all() and (matrix.sum(axis) <= 1).all():
        return matrix
    raise ValidationError(f"{what} must hold only 0 and 1, with at most one "
                          f"1 per {('column', 'row')[axis]}", check=check)


def process_table(selector: np.ndarray) -> list[int]:
    """Transformation process of every delivery transition, or -1: the
    selector's columns as indices."""
    return [int(column.argmax()) if column.any() else -1
            for column in _one_hot(selector, 0,
                                   "the transformation selector").T]


def candidate_table(feasibility: np.ndarray) -> list[tuple[int, ...]]:
    """Health events each transformation process realizes: the
    feasibility matrix's columns as index tuples."""
    return [tuple(np.flatnonzero(column).tolist())
            for column in _one_hot(feasibility, 1, "a feasibility matrix",
                                   check="feasibility-tags").T]


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
    """An individual's health net, initial marking and feasibility matrix.
    The marking is the individual's own; the loader gives individuals
    whose nets have the same content one shared, read-only net and
    feasibility matrix."""

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


@dataclass
class RunResult:
    """``coupling_checks``: one (time, psi, individual) per delivery start,
    kept only because the benchmark harness counts it (see ROADMAP)."""

    trace: list[TraceRow] = field(default_factory=list)
    delivery_trajectory: list[TrajectoryPoint] = field(default_factory=list)
    outcome_series: list[tuple[float, str, float]] = field(
        default_factory=list)
    coupling_checks: list[tuple[float, int, str]] = field(
        default_factory=list)
    final_health: dict[str, HealthMarking] = field(default_factory=dict)
    skipped_actions: int = 0

    @property
    def cost_series(self) -> list[tuple[float, float]]:
        """(time, cumulative cost) at the start and after each delivery
        completion."""
        return [(point.time, point.cost) for point in self.delivery_trajectory
                if point.kind != "start"]

    @property
    def final_marking(self) -> Marking | None:
        """Delivery marking after the last firing."""
        trajectory = self.delivery_trajectory
        return trajectory[-1].marking if trajectory else None


class DeliveryCompletion(NamedTuple):
    """Completion of a delivery transition started by one individual."""

    psi: int
    individual: str


class HealthCompletion(NamedTuple):
    """Completion of an in-flight health event along its output column."""

    individual: str
    event: int
    column: np.ndarray


#: The order of the events that share one instant, lowest rank first;
#: events of one rank run in the order they were queued. Completions come
#: before starts, so a token or unit of mass that a completion releases
#: can be used by a start at the same instant.
RANK = {DeliveryCompletion: 0, HealthCompletion: 1, DeliveryAction: 2,
        HealthAction: 3}


def cosimulate(net: DeliveryNet, initial: Marking,
               individuals: Sequence[Individual],
               selector: np.ndarray,
               delivery_actions: Sequence[DeliveryAction],
               health_actions: Sequence[HealthAction] = (),
               mode: str = "replay",
               seed: int | None = 0) -> RunResult:
    """Run both nets against one synchronized clock.

    Each :class:`DeliveryAction` is a start. A start of a transformation
    transition additionally fires the induced health event of the engaged
    individual. A :class:`HealthAction` fires a stochastic event on its
    own. Every start, of either net, queues its own completion after its
    duration. The events of one instant run in the order of :data:`RANK`,
    and within a rank in the order they were queued. In sample mode,
    branch outcomes are drawn from a generator seeded once for the whole
    run. Bad inputs raise :class:`ValidationError` before any event runs;
    an event the state cannot support, or a clock or cumulative cost that
    leaves the finite floats, raises :class:`SimulationError` naming it.
    """
    if mode not in ("replay", "sample"):
        raise ValidationError(f"unknown mode {mode!r}")
    by_id = {ind.id: ind for ind in individuals}
    if len(by_id) != len(individuals):
        raise ValidationError("duplicate individual ids")
    heap: list[tuple] = []
    seq = 0

    def push(time, event):
        nonlocal seq
        heapq.heappush(heap, (float(time), RANK[type(event)], seq, event))
        seq += 1

    def rejected(action, message: str) -> ValidationError:
        kind = "delivery" if isinstance(action, DeliveryAction) else "health"
        return ValidationError(f"{kind} action at t={action.time} for "
                               f"individual {action.individual!r}: {message}")

    for action in (*delivery_actions, *health_actions):
        if action.individual not in by_id:
            raise ValidationError(
                f"schedule names unknown individual {action.individual!r}")
        n_states = by_id[action.individual].net.n_states
        if action.outcome is not None and not 0 <= action.outcome < n_states:
            raise rejected(action, f"state {action.outcome} is out of range "
                                   f"for a net of {n_states} states")
        push(action.time, action)
    for action in delivery_actions:
        if not 0 <= action.psi < net.n_transitions:
            raise rejected(action, f"transition {action.psi} is out of range "
                                   f"for a net of {net.n_transitions} "
                                   f"transitions")
    for action in health_actions:
        events = by_id[action.individual].net.events
        for ev in action.events:
            if not 0 <= ev < len(events):
                raise rejected(action, f"event {ev} is out of range for a "
                                       f"net of {len(events)} events")
            if not events[ev].is_stochastic:
                raise rejected(action, f"induced event {events[ev].name!r} "
                                       f"cannot be scheduled directly")
    # Index tables read off the matrices once per call: a start looks up
    # its process and candidate events instead of multiplying the
    # selector by an engagement vector and scanning feasibility columns.
    # Individuals with the same condition share one net and feasibility
    # matrix, so each table is built once per distinct object.
    process_of = process_table(selector)
    tables: dict[int, list[tuple[int, ...]]] = {}
    for ind in individuals:
        if id(ind.feasibility) not in tables:
            tables[id(ind.feasibility)] = candidate_table(ind.feasibility)
    candidates = {ind.id: tables[id(ind.feasibility)] for ind in individuals}

    rng = np.random.default_rng(seed) if mode == "sample" else None
    markings = {ind.id: ind.initial for ind in individuals}
    result = RunResult()
    result.delivery_trajectory.append(
        TrajectoryPoint(0.0, None, "initial", initial, 0.0))
    for ind in individuals:
        result.outcome_series.append(
            (0.0, ind.id,
             health.health_outcome(ind.net.values, ind.initial.state_mass)))

    health_net = {ind.id: f"health:{ind.id}" for ind in individuals}
    values = {ind.id: np.asarray(ind.net.values, dtype=float)
              for ind in individuals}
    labels = [t.label for t in net.transitions]
    durations = net.durations.tolist()
    costs = net.costs.tolist()
    pulses = np.eye(net.n_transitions, dtype=int)
    pulses.flags.writeable = False
    zero = np.zeros(net.n_transitions, dtype=int)
    zero.flags.writeable = False
    trace = result.trace
    trajectory = result.delivery_trajectory

    marking = initial
    total_cost = 0.0

    def record_outcome(time: float, ind_id: str) -> None:
        # health.health_outcome without its per-call conversions
        result.outcome_series.append(
            (time, ind_id,
             float(values[ind_id] @ markings[ind_id].state_mass)))

    def start_health_event(time, ind_id, event, outcome):
        hnet = by_id[ind_id].net
        markings[ind_id] = health.start_event(hnet, markings[ind_id], event)
        column = health.resolve_output(hnet, event, outcome=outcome, rng=rng)
        push(time + hnet.events[event].duration,
             HealthCompletion(ind_id, event, column))
        trace.append(TraceRow(time, health_net[ind_id],
                              hnet.events[event].name, event, "start"))
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
                                          "start"))
                    trajectory.append(TrajectoryPoint(
                        time, psi, "start", marking, total_cost))
                    push(time + durations[psi],
                         DeliveryCompletion(psi, ind_id))
                    result.coupling_checks.append((time, psi, ind_id))

                    process = process_of[psi]
                    if process >= 0:
                        ev = induced_event(by_id[ind_id].net,
                                           markings[ind_id], process,
                                           candidates[ind_id][process])
                        start_health_event(time, ind_id, ev, event.outcome)

                case DeliveryCompletion(psi=psi):
                    marking = step(net, marking, zero, pulses[psi])
                    total_cost += costs[psi]
                    trace.append(TraceRow(time, "delivery", labels[psi], psi,
                                          "complete"))
                    trajectory.append(TrajectoryPoint(
                        time, psi, "complete", marking, total_cost))

                case HealthAction(events=events):
                    hnet = by_id[ind_id].net
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
                                          hnet.events[ev].name, ev,
                                          "complete"))
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

    # Costs are non-negative and the queue pops times in order, so the
    # clock and the cost only grow: if both end finite, every record is.
    if trace and not math.isfinite(trace[-1].time):
        row = next(row for row in trace if not math.isfinite(row.time))
        time, where, label, what = row.time, row.net, row.label, "clock"
    elif not math.isfinite(total_cost):
        point = next(p for p in trajectory if not math.isfinite(p.cost))
        time, where, label = point.time, "delivery", labels[point.psi]
        what = "cumulative cost"
    else:
        result.final_health = dict(markings)
        return result
    raise SimulationError(f"at t={time}, {where} {label!r}: the {what} has "
                          f"left the finite floats", time=time, net=where,
                          label=label)
