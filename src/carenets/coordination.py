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

:func:`cosimulate` is the package's one discrete-event kernel. It runs
four kinds of event (delivery start and completion, scheduled health
action, health completion) in the order of time, then rank
(:data:`DELIVERY_COMPLETION` to :data:`HEALTH_ACTION`), then queue order,
and changes markings only through :func:`delivery.step` and the
:mod:`health` primitives. Its queue is a schedule sorted once, merged
with a heap of in-flight completions: the scheduled actions are sorted by
(time, rank, position) before the loop, and the heap holds only the
completions queued since. The scheduled actions arrive as two
tables (:class:`Table`), and the kernel reads their columns: an action is its
rank and its position in its own table, and a delivery start queues that
position as its completion. The matrix algebra builds and verifies the
nets; the kernel runs on index tables read off the same matrices.
A delivery firing moves one token through the net's ``origin`` and
``destination`` tables (:func:`delivery.step`). Once per call the kernel
reads the transformation process of each transition
(:func:`process_table`) and, per distinct feasibility matrix, the
candidate events of each process (:func:`candidate_table`), looked up by
:func:`induced_event`.
:func:`delivery.state_equation`, :func:`induce_health_firing` and
:func:`system_firing` keep the matrix form as test oracles.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple

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
    for e, ev in enumerate(net.events):
        for name in ev.realized_by:
            if name not in index:
                raise ValidationError(
                    f"event {ev.name!r} names unknown transformation "
                    f"process {name!r}", check="feasibility-tags")
            matrix[e, index[name]] = 1
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
    """``matrix`` as an array if it is 2-d and holds only 0 and 1, with at
    most one 1 per column (axis 0) or row (axis 1), so its index table is
    exact."""
    matrix = np.asarray(matrix)
    if matrix.ndim == 2 and ((matrix == 0) | (matrix == 1)).all() \
            and (matrix.sum(axis) <= 1).all():
        return matrix
    raise ValidationError(f"{what} must hold only 0 and 1, with at most one "
                          f"1 per {('column', 'row')[axis]}", check=check)


def process_table(selector: np.ndarray) -> list[int]:
    """Transformation process of every delivery transition, or -1: the
    selector's columns as indices."""
    selector = _one_hot(selector, 0, "the transformation selector")
    table = np.full(selector.shape[1], -1)
    processes, transitions = np.nonzero(selector)
    table[transitions] = processes
    return table.tolist()


def candidate_table(feasibility: np.ndarray) -> list[tuple[int, ...]]:
    """Health events each transformation process realizes: the
    feasibility matrix's columns as index tuples."""
    feasibility = _one_hot(feasibility, 1, "a feasibility matrix",
                           check="feasibility-tags")
    # nonzero of the transpose lists (process, event) pairs by process
    processes, events = np.nonzero(feasibility.T)
    bounds = np.searchsorted(processes,
                             np.arange(feasibility.shape[1] + 1)).tolist()
    events = events.tolist()
    return [tuple(events[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


class DeliveryAction(NamedTuple):
    """Scheduled start of a delivery transition by one individual."""

    time: float
    psi: int
    individual: str
    outcome: int | None = None


class HealthAction(NamedTuple):
    """Scheduled spontaneous health event.

    ``events`` lists one or more distinct candidate stochastic events;
    exactly one must be enabled when the action fires. Optional actions
    are skipped when no candidate is enabled.
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


class Table(Sequence):
    """Rows of the ``NamedTuple`` type ``row``, stored as one sequence per
    field in :attr:`columns`: new empty lists, which a run's kernel
    appends to, or the given ``columns``, such as a compiled schedule's
    tuples.

    The table reads as a sequence of rows: indexing, slicing and
    iteration build each row on access and keep none, ``len`` is the
    length of a column, and a table equals a list or table of equal rows,
    array fields compared by value. A table's columns hold only numbers,
    strings, None, arrays and tuples of numbers, which the garbage
    collector does not track (a tuple from the first collection that sees
    it), so a long run or a large schedule leaves it nothing to scan.
    """

    __slots__ = ("row", "columns")

    def __init__(self, row: type, columns: Iterable[Sequence] | None = None):
        self.row = row
        self.columns = (tuple([] for _ in row._fields) if columns is None
                        else tuple(columns))

    def column(self, name: str) -> Sequence:
        return self.columns[self.row._fields.index(name)]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.row, *(c[index] for c in self.columns)))
        return self.row(*[c[index] for c in self.columns])

    def __iter__(self):
        return map(self.row, *self.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Table, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(_same_row, self, other))

    def __repr__(self) -> str:
        return f"Table({list(self)!r})"


def _same_row(mine: tuple, theirs) -> bool:
    """Whether two rows hold equal fields, arrays compared by value."""
    return (isinstance(theirs, tuple) and len(mine) == len(theirs)
            and all(np.array_equal(a, b)
                    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                    else a == b for a, b in zip(mine, theirs)))


def _columns(actions: Sequence, row: type) -> tuple[Sequence, ...]:
    """The fields of ``actions`` as columns: a :class:`Table`'s own, or
    any other sequence of ``row`` tuples transposed once."""
    if isinstance(actions, Table):
        return actions.columns
    return tuple(zip(*actions)) or ((),) * len(row._fields)


@dataclass
class RunResult:
    """A run's outputs. The trace has one row per event; the delivery
    trajectory has the initial point, then one point per delivery
    firing."""

    trace: Table = field(default_factory=lambda: Table(TraceRow))
    delivery_trajectory: Table = field(
        default_factory=lambda: Table(TrajectoryPoint))
    outcome_series: list[tuple[float, str, float]] = field(
        default_factory=list)
    # the delivery marking after the last firing, busy tokens included
    final_marking: Marking | None = None
    final_health: dict[str, HealthMarking] = field(default_factory=dict)
    skipped_actions: int = 0

    @property
    def coupling_checks(self) -> list[tuple[float, int]]:
        """(time, psi) of each delivery start, the firings whose coupling
        the entry checks prove."""
        times, psis, kinds = self.delivery_trajectory.columns[:3]
        return [(time, psi) for time, psi, kind in zip(times, psis, kinds)
                if kind == "start"]

    @property
    def cost_series(self) -> list[tuple[float, float]]:
        """(time, cumulative cost) at the start and after each delivery
        completion."""
        times, _, kinds, _, costs = self.delivery_trajectory.columns
        return [(time, cost) for time, kind, cost in zip(times, kinds, costs)
                if kind != "start"]


class HealthCompletion(NamedTuple):
    """Completion of an in-flight health event along its output column."""

    individual: str
    event: int
    column: np.ndarray


#: The ranks that order the events sharing one instant, lowest first;
#: events of one rank run in the order they were queued. Completions come
#: before starts, so a token or unit of mass that a completion releases
#: can be used by a start at the same instant.
DELIVERY_COMPLETION, HEALTH_COMPLETION, DELIVERY_START, HEALTH_ACTION = \
    range(4)


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
    duration. The events of one instant run in the order of their ranks,
    and within a rank in the order they were queued. In sample mode,
    branch outcomes are drawn from a generator seeded once for the whole
    run. Bad inputs raise :class:`ValidationError` before any event runs;
    an event the state cannot support, or a clock or cumulative cost that
    leaves the finite floats, raises :class:`SimulationError` naming it.
    The actions are read by column: a :class:`Table`'s columns as they
    are, and any other sequence of rows transposed once per call.
    """
    if mode not in ("replay", "sample"):
        raise ValidationError(f"unknown mode {mode!r}")
    by_id = {ind.id: ind for ind in individuals}
    if len(by_id) != len(individuals):
        raise ValidationError("duplicate individual ids")

    def rejected(kind: str, time, ind_id: str,
                 message: str) -> ValidationError:
        return ValidationError(f"{kind} action at t={time} for individual "
                               f"{ind_id!r}: {message}")

    # the actions are read by column and named by their position in their
    # own table
    d_times, d_psis, d_individuals, d_outcomes = _columns(
        delivery_actions, DeliveryAction)
    h_times, h_individuals, h_events, h_outcomes, h_optional = _columns(
        health_actions, HealthAction)

    # (time, rank, position): sorted keys that hold only numbers, so the
    # garbage collector stops tracking them
    schedule: list[tuple[float, int, int]] = []
    for kind, rank, times, ind_ids, outcomes in (
            ("delivery", DELIVERY_START, d_times, d_individuals, d_outcomes),
            ("health", HEALTH_ACTION, h_times, h_individuals, h_outcomes)):
        for position, (raw, ind_id, outcome) in enumerate(
                zip(times, ind_ids, outcomes)):
            if ind_id not in by_id:
                raise ValidationError(
                    f"schedule names unknown individual {ind_id!r}")
            time = float(raw)
            # not time >= 0 also catches NaN, which has no place in the
            # order
            if isinstance(raw, bool) or not time >= 0:
                raise rejected(kind, raw, ind_id,
                               f"time {raw!r} is not a number >= 0")
            n_states = by_id[ind_id].net.n_states
            if outcome is not None and not 0 <= outcome < n_states:
                raise rejected(kind, raw, ind_id,
                               f"state {outcome} is out of range for a net "
                               f"of {n_states} states")
            schedule.append((time, rank, position))
    schedule.sort()
    for time, psi, ind_id in zip(d_times, d_psis, d_individuals):
        if not 0 <= psi < net.n_transitions:
            raise rejected("delivery", time, ind_id,
                           f"transition {psi} is out of range for a net of "
                           f"{net.n_transitions} transitions")
    for time, ind_id, events in zip(h_times, h_individuals, h_events):
        net_events = by_id[ind_id].net.events
        if not events or len(set(events)) != len(events):
            raise rejected("health", time, ind_id,
                           f"events {list(events)} must name at least one "
                           f"event, each once")
        for ev in events:
            if not 0 <= ev < len(net_events):
                raise rejected("health", time, ind_id,
                               f"event {ev} is out of range for a net of "
                               f"{len(net_events)} events")
            if not net_events[ev].is_stochastic:
                raise rejected("health", time, ind_id,
                               f"induced event {net_events[ev].name!r} "
                               f"cannot be scheduled directly")
    # The loop reads the markings and the tables below by index, so each
    # must have the shape of its net: a wrong one would fail mid-run or
    # pass unnoticed.
    if (np.shape(initial.place_tokens) != (net.n_places,)
            or np.shape(initial.busy_tokens) != (net.n_transitions,)):
        raise ValidationError(
            "the initial marking must hold one token count per place and "
            "one per transition", check="initial-tokens")
    # Index tables read off the matrices once per call: a start looks up
    # its process and candidate events instead of multiplying the
    # selector by an engagement vector and scanning feasibility columns.
    # Individuals with the same condition share one net and feasibility
    # matrix, so each table is built once per distinct object.
    process_of = process_table(selector)
    if len(process_of) != net.n_transitions:
        raise ValidationError(
            f"the transformation selector has {len(process_of)} columns, "
            f"expected one per transition ({net.n_transitions})")
    n_processes = np.shape(selector)[0]
    tables: dict[int, list[tuple[int, ...]]] = {}
    for ind in individuals:
        if id(ind.feasibility) not in tables:
            tables[id(ind.feasibility)] = candidate_table(ind.feasibility)
        shape = (ind.net.n_events, n_processes)
        if np.shape(ind.feasibility) != shape:
            raise ValidationError(
                f"individual {ind.id!r}: the feasibility matrix has shape "
                f"{np.shape(ind.feasibility)}, expected {shape}",
                check="feasibility-tags")
        if (np.shape(ind.initial.state_mass) != (ind.net.n_states,)
                or np.shape(ind.initial.event_mass) != (ind.net.n_events,)):
            raise ValidationError(
                f"individual {ind.id!r}: the initial health marking must "
                f"hold one mass per state and one per event",
                check="initial-mass")
    candidates = {ind.id: tables[id(ind.feasibility)] for ind in individuals}

    rng = np.random.default_rng(seed) if mode == "sample" else None
    markings = {ind.id: ind.initial for ind in individuals}
    result = RunResult()
    # rows go into the columns through bound appends, so no record object
    # is built per event
    (add_time, add_net, add_label, add_index,
     add_kind) = (c.append for c in result.trace.columns)
    (add_point_time, add_psi, add_point_kind, add_tokens,
     add_cost) = (c.append for c in result.delivery_trajectory.columns)
    add_outcome = result.outcome_series.append
    for column, value in zip(result.delivery_trajectory.columns,
                             (0.0, None, "initial", initial.place_tokens,
                              0.0)):
        column.append(value)

    health_net = {ind.id: f"health:{ind.id}" for ind in individuals}
    labels = [t.label for t in net.transitions]
    durations = net.durations.tolist()
    costs = net.costs.tolist()
    capacities = net.capacities.tolist()

    marking = initial
    total_cost = 0.0
    # Completions in flight, (time, rank, seq, completion): a delivery
    # completion is its action's position, a health one a HealthCompletion.
    # Their sequence numbers follow every schedule position, so merging the
    # heap with the sorted schedule pops events in the order of one queue
    # holding both.
    heap: list[tuple] = []
    seq = itertools.count(len(schedule))

    def record_outcome(time: float, ind_id: str) -> None:
        # health.health_outcome without its per-call checks
        add_outcome((time, ind_id, float(
            by_id[ind_id].net.values.dot(markings[ind_id].state_mass))))

    def start_health_event(time, ind_id, event, outcome):
        hnet = by_id[ind_id].net
        markings[ind_id] = health.start_event(hnet, markings[ind_id], event)
        column = health.resolve_output(hnet, event, outcome=outcome, rng=rng)
        heappush(heap, (time + hnet.events[event].duration,
                        HEALTH_COMPLETION, next(seq),
                        HealthCompletion(ind_id, event, column)))
        add_time(time)
        add_net(health_net[ind_id])
        add_label(hnet.events[event].name)
        add_index(event)
        add_kind("start")
        record_outcome(time, ind_id)

    for ind in individuals:
        record_outcome(0.0, ind.id)

    position, n_scheduled = 0, len(schedule)
    while heap or position < n_scheduled:
        if heap and (position == n_scheduled or heap[0] < schedule[position]):
            time, rank, _, entry = heappop(heap)
        else:
            time, rank, entry = schedule[position]
            position += 1
        try:
            # most frequent first
            if rank == DELIVERY_START:
                psi, ind_id = d_psis[entry], d_individuals[entry]
                marking = step(net, marking, psi, "start")
                if marking.busy_tokens[psi] > capacities[psi]:
                    raise CapacityError(
                        f"transition {psi} ({labels[psi]}) exceeds its "
                        f"concurrent capacity of {capacities[psi]}")
                add_time(time)
                add_net("delivery")
                add_label(labels[psi])
                add_index(psi)
                add_kind("start")
                add_point_time(time)
                add_psi(psi)
                add_point_kind("start")
                add_tokens(marking.place_tokens)
                add_cost(total_cost)
                heappush(heap, (time + durations[psi], DELIVERY_COMPLETION,
                                next(seq), entry))

                process = process_of[psi]
                if process >= 0:
                    ev = induced_event(by_id[ind_id].net, markings[ind_id],
                                       process, candidates[ind_id][process])
                    start_health_event(time, ind_id, ev, d_outcomes[entry])

            elif rank == DELIVERY_COMPLETION:
                psi, ind_id = d_psis[entry], d_individuals[entry]
                marking = step(net, marking, psi, "complete")
                total_cost += costs[psi]
                add_time(time)
                add_net("delivery")
                add_label(labels[psi])
                add_index(psi)
                add_kind("complete")
                add_point_time(time)
                add_psi(psi)
                add_point_kind("complete")
                add_tokens(marking.place_tokens)
                add_cost(total_cost)

            elif rank == HEALTH_ACTION:
                ind_id, events = h_individuals[entry], h_events[entry]
                hnet = by_id[ind_id].net
                enabled = [ev for ev in events
                           if health.is_enabled(hnet, markings[ind_id], ev)]
                if not enabled:
                    if h_optional[entry]:
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
                                   h_outcomes[entry])

            else:  # HEALTH_COMPLETION
                ind_id, ev, column = entry
                hnet = by_id[ind_id].net
                markings[ind_id] = health.apply_completion(
                    hnet, markings[ind_id], ev, column)
                add_time(time)
                add_net(health_net[ind_id])
                add_label(hnet.events[ev].name)
                add_index(ev)
                add_kind("complete")
                record_outcome(time, ind_id)

        except CareNetsError as exc:
            where, names = health_net[ind_id], by_id[ind_id].net.events
            if rank in (DELIVERY_COMPLETION, DELIVERY_START):
                where, label = "delivery", labels[psi]
            elif rank == HEALTH_ACTION:
                label = " | ".join(names[ev].name for ev in events)
            else:
                label = names[ev].name
            raise SimulationError(
                f"at t={time}, {where} {label!r}, individual {ind_id!r}: "
                f"{exc}", time=time, net=where, label=label,
                individual=ind_id) from exc

    # Costs are non-negative and the queue pops times in order, so the
    # clock and the cost only grow: if both end finite, every record is.
    times, nets, row_labels, _, _ = result.trace.columns
    if times and not math.isfinite(times[-1]):
        k = next(k for k, time in enumerate(times) if not math.isfinite(time))
        time, where, label, what = times[k], nets[k], row_labels[k], "clock"
    elif not math.isfinite(total_cost):
        point_times, psis, _, _, point_costs = \
            result.delivery_trajectory.columns
        k = next(k for k, cost in enumerate(point_costs)
                 if not math.isfinite(cost))
        time, where, label = point_times[k], "delivery", labels[psis[k]]
        what = "cumulative cost"
    else:
        result.final_marking, result.final_health = marking, dict(markings)
        return result
    raise SimulationError(f"at t={time}, {where} {label!r}: the {what} has "
                          f"left the finite floats", time=time, net=where,
                          label=label)
