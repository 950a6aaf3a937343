"""Shared test utilities: oracles and random model generators.

The incidence oracle here is deliberately independent of the production
construction: instead of projecting template matrices it walks the DOF
list and writes each transition's origin and destination row directly.
"""

from __future__ import annotations

import copy
import csv
import json
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import pytest

from carenets import health
from carenets.coordination import (DeliveryAction, Individual, RunResult,
                                   build_feasibility,
                                   build_transform_selector, cosimulate,
                                   induce_health_firing)
from carenets.delivery import DeliveryNet, Marking, step
from carenets.errors import SimulationError
from carenets.health import (MASS_TOL, HealthEvent, HealthEventKind,
                             HealthMarking, HealthNet)
from carenets.structure import (Aggregation, BoolMatrix, Process, Resource,
                                ResourceClass, StructuralModel)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "carenets" / "fixtures"
ACUTE = FIXTURES / "acute_acl.json"
CHRONIC = FIXTURES / "chronic_neuro_oncology.json"


def oracle_incidence(model: StructuralModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-DOF direct construction of the consumption/production matrices."""
    m_minus = np.zeros((model.n_buffers, model.dof_count), dtype=int)
    m_plus = np.zeros((model.n_buffers, model.dof_count), dtype=int)
    for psi, (w, v) in enumerate(model.dof_list):
        process = model.processes[w]
        if process.is_transport:
            m_minus[process.origin, psi] = 1
            m_plus[process.destination, psi] = 1
        else:
            m_minus[v, psi] = 1
            m_plus[v, psi] = 1
    return m_minus, m_plus


def bool_matrix(dense) -> BoolMatrix:
    """Boolean matrix holding the nonzero cells of a 2-d array."""
    dense = np.asarray(dense)
    return BoolMatrix.from_pairs(dense.shape, zip(*np.nonzero(dense)))


def aggregate_members(aggregation: Aggregation,
                      buffers) -> list[list[str]]:
    """Names of the buffers each aggregate holds, in buffer order."""
    return [[buffers[j].name for j in range(len(buffers))
             if (i, j) in aggregation.matrix.coords]
            for i in range(len(aggregation.names))]


def random_model(rng: np.random.Generator,
                 max_buffers: int = 4,
                 max_processes: int = 6,
                 constrain: bool = False) -> StructuralModel:
    """Random valid structural model within the given entity budget.

    Every buffer gets one anchor process of its own class so declared
    classes match the capability-derived ones; extra allocations only use
    classes of equal or lower precedence than the target buffer's class.
    """
    n_buffers = int(rng.integers(1, max_buffers + 1))
    buffer_classes = sorted(
        (rng.choice([ResourceClass.TRANSFORMATION, ResourceClass.DECISION,
                     ResourceClass.MEASUREMENT]) for _ in range(n_buffers)),
        key=lambda c: c.rank)

    budget = max_processes - n_buffers
    n_transport = int(rng.integers(0, min(2, max(budget, 0)) + 1))
    n_extra = int(rng.integers(0, max(budget - n_transport, 0) + 1))

    resources = [Resource(f"buffer {i}", cls)
                 for i, cls in enumerate(buffer_classes)]
    mover = None
    if n_transport:
        mover = len(resources)
        resources.append(Resource("mover", ResourceClass.TRANSPORTATION))

    processes = []
    allocations = []
    # anchors, grouped by class to keep list order legal
    anchor_specs = sorted(((cls, b) for b, cls in enumerate(buffer_classes)),
                          key=lambda item: item[0].rank)
    extra_specs = []
    for _ in range(n_extra):
        target = int(rng.integers(0, n_buffers))
        cls = buffer_classes[target]
        extra_specs.append((cls, target))
    specs = sorted(anchor_specs + extra_specs, key=lambda item: item[0].rank)
    for cls, target in specs:
        pid = len(processes)
        processes.append(Process(f"{cls.value} {pid}", cls))
        allocations.append((pid, target))
        # optional redundant allocation at another legal buffer
        legal = [b for b in range(n_buffers)
                 if buffer_classes[b].rank <= cls.rank]
        if len(legal) > 1 and rng.random() < 0.3:
            other = int(rng.choice([b for b in legal if b != target]))
            if buffer_classes[other].rank == cls.rank or \
                    buffer_classes[other].rank < cls.rank:
                allocations.append((pid, other))
    for _ in range(n_transport):
        pid = len(processes)
        origin = int(rng.integers(0, n_buffers))
        destination = int(rng.integers(0, n_buffers))
        processes.append(Process(f"move {pid}",
                                 ResourceClass.TRANSPORTATION,
                                 origin=origin, destination=destination))
        allocations.append((pid, mover))

    constraints = []
    if constrain:
        constraints = [pair for pair in allocations if rng.random() < 0.2]
    return StructuralModel.build(resources, processes, allocations,
                                 constraints)


def random_delivery_net(rng: np.random.Generator,
                        model: StructuralModel | None = None) -> DeliveryNet:
    if model is None:
        model = random_model(rng)
    durations = rng.choice([0.0, 0.25, 0.5, 1.0], size=model.dof_count)
    costs = rng.integers(0, 500, size=model.dof_count).astype(float)
    return DeliveryNet.from_model(model, durations, costs)


class Firing(NamedTuple):
    """A delivery firing of a test walk: ``kind`` is "start" or
    "complete"."""

    psi: int
    kind: str
    time: float


def random_feasible_schedule(rng: np.random.Generator, net: DeliveryNet,
                             initial: Marking, length: int = 20,
                             ) -> list[Firing]:
    """Random start/complete record list that is feasible from ``initial``.

    Generated as a timed random walk: at each step either start an
    enabled transition or let the earliest running one complete; leftover
    running transitions complete at the end.
    """
    records: list[Firing] = []
    place = initial.place_tokens.copy()
    running: list[tuple[float, int]] = []
    t = 0.0
    for _ in range(length):
        enabled = [psi for psi in range(net.n_transitions)
                   if np.all(place - net.m_minus[:, psi] >= 0)]
        start_ok = bool(enabled)
        if start_ok and (not running or rng.random() < 0.6):
            psi = int(rng.choice(enabled))
            records.append(Firing(psi, "start", t))
            place = place - net.m_minus[:, psi]
            running.append((t + float(net.durations[psi]) + 0.25, psi))
            running.sort()
        elif running:
            done, psi = running.pop(0)
            t = max(t, done)
            records.append(Firing(psi, "complete", t))
            place = place + net.m_plus[:, psi]
        else:
            break
        t += 0.25
    for done, psi in running:
        t = max(t, done) + 0.25
        records.append(Firing(psi, "complete", t))
    return records


def step_replay(net: DeliveryNet, records: list[Firing],
                initial: Marking) -> list[Marking]:
    """Markings after applying each start/complete record with the
    kernel's ``step``, preceded by ``initial``."""
    markings = [initial]
    for record in records:
        markings.append(step(net, markings[-1], record.psi, record.kind))
    return markings


def bystander(model: StructuralModel) -> Individual:
    """Individual "p" that can engage in any delivery schedule: one health
    state and, per transformation process, a zero-duration induced event
    that leaves the state unchanged."""
    names = [p.name for p in model.transformation_processes]
    loops = np.ones((1, len(names)))
    net = HealthNet(("well",),
                    tuple(HealthEvent(f"undergo {name}",
                                      HealthEventKind.INDUCED,
                                      realized_by=(name,))
                          for name in names),
                    loops, loops, np.ones(1))
    return Individual("p", net, HealthMarking.point(net, 0),
                      build_feasibility(net, names))


def run_starts(model: StructuralModel, net: DeliveryNet, initial: Marking,
               starts: list[tuple[float, int]]) -> RunResult:
    """Run delivery starts ``(time, psi)`` through the co-simulation
    kernel, every one engaging the :func:`bystander`."""
    return cosimulate(net, initial, [bystander(model)],
                      build_transform_selector(model),
                      [DeliveryAction(t, psi, "p") for t, psi in starts])


def run_health_actions(net: HealthNet, marking: HealthMarking, actions,
                       mode: str = "replay", seed: int = 0) -> RunResult:
    """Run scheduled health actions of one individual "p" through the
    co-simulation kernel, next to a delivery net with no transitions."""
    delivery = DeliveryNet(("home",), (), np.zeros((1, 0), dtype=int),
                           np.zeros((1, 0), dtype=int), np.zeros(0),
                           np.zeros(0), np.zeros(0, dtype=int))
    individual = Individual("p", net, marking,
                            np.zeros((net.n_events, 0), dtype=int))
    return cosimulate(delivery, Marking.initial(delivery, [1]), [individual],
                      np.zeros((0, 0), dtype=int), [], actions, mode=mode,
                      seed=seed)


def completion_counts(result: RunResult, n_transitions: int) -> np.ndarray:
    """Delivery completions per transition, counted over the trajectory."""
    return np.bincount([point.psi for point in result.delivery_trajectory
                        if point.kind == "complete"],
                       minlength=n_transitions)


def point_totals(result: RunResult, initial: Marking) -> list[int]:
    """Token total at each trajectory point: its place tokens, plus the
    busy tokens of ``initial``, plus the starts minus the completions so
    far."""
    busy, totals = int(initial.busy_tokens.sum()), []
    for point in result.delivery_trajectory:
        busy += (point.kind == "start") - (point.kind == "complete")
        totals.append(int(point.place_tokens.sum()) + busy)
    return totals


class Observed(NamedTuple):
    """A kernel run and the health markings it went through: ``starts``
    holds (marking before, event) for each health start in trace order,
    ``produced`` every marking a health start or completion returned."""

    result: RunResult | SimulationError
    starts: list[tuple[HealthMarking, int]]
    produced: list[HealthMarking]


def observe(run) -> Observed:
    """Call ``run()`` with the kernel's health primitives recorded."""
    starts, produced = [], []
    start_event, apply_completion = health.start_event, health.apply_completion

    def recorded_start(net, marking, event):
        starts.append((marking, event))
        produced.append(start_event(net, marking, event))
        return produced[-1]

    def recorded_completion(*args):
        produced.append(apply_completion(*args))
        return produced[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(health, "start_event", recorded_start)
        patch.setattr(health, "apply_completion", recorded_completion)
        try:
            result = run()
        except SimulationError as exc:
            result = exc
    return Observed(result, starts, produced)


def assert_coupled_and_conserved(individuals: Sequence[Individual],
                                 selector: np.ndarray,
                                 observed: Observed) -> int:
    """Every transformation start of a successful run is followed at once
    by its induced event, and that event equals what the matrix oracle
    :func:`induce_health_firing` fires on the same marking (the oracle
    checks the coupling identity); every health marking the kernel
    produced carries unit mass within ``MASS_TOL``. Returns how many
    induced events were checked."""
    by_id = {ind.id: ind for ind in individuals}
    rows = observed.result.trace
    health_starts = [k for k, row in enumerate(rows)
                     if row.net != "delivery" and row.kind == "start"]
    assert len(health_starts) == len(observed.starts)
    induced = 0
    for k, (marking, event) in zip(health_starts, observed.starts):
        row, before = rows[k], rows[k - 1]
        assert row.index == event
        if k == 0 or (before.net, before.kind) != ("delivery", "start") \
                or not selector[:, before.index].any():
            continue
        ind = by_id[row.net.removeprefix("health:")]
        engagement = np.zeros(selector.shape[1], dtype=int)
        engagement[before.index] = 1
        expected = np.zeros(ind.net.n_events, dtype=int)
        expected[event] = 1
        assert np.array_equal(
            induce_health_firing(ind.feasibility, selector, engagement,
                                 ind.net, marking), expected)
        induced += 1
    assert induced == sum(selector[:, row.index].any() for row in rows
                          if (row.net, row.kind) == ("delivery", "start"))
    assert all(abs(marking.total_mass - 1.0) <= MASS_TOL
               for marking in observed.produced)
    return induced


def random_health_net(rng: np.random.Generator,
                      max_states: int = 5, max_events: int = 4) -> HealthNet:
    """Random column-stochastic health net with reachable events."""
    n_states = int(rng.integers(2, max_states + 1))
    n_events = int(rng.integers(1, max_events + 1))
    m_minus = np.zeros((n_states, n_events))
    m_plus = np.zeros((n_states, n_events))
    events = []
    for e in range(n_events):
        m_minus[int(rng.integers(0, n_states)), e] = 1.0
        n_out = int(rng.integers(1, n_states + 1))
        outs = rng.choice(n_states, size=n_out, replace=False)
        weights = rng.random(n_out) + 0.05
        weights /= weights.sum()
        for s, w in zip(outs, weights):
            m_plus[int(s), e] = w
        events.append(HealthEvent(f"event {e}",
                                  HealthEventKind.STOCHASTIC))
    values = rng.random(n_states)
    return HealthNet(tuple(f"state {s}" for s in range(n_states)),
                     tuple(events), m_minus, m_plus, values)


def random_health_walk(rng: np.random.Generator, net: HealthNet,
                       marking: HealthMarking, steps: int = 12,
                       unit: bool = False,
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Feasible (u_minus, u_plus) firing sequence from ``marking``.

    Each start fires a fraction of the largest magnitude its input states
    support, or exactly one unit when ``unit`` is set, the magnitude of
    every firing in the kernel. Each start is completed later along the
    event's whole output column with the same magnitude."""
    from carenets import health

    pulses: list[tuple[np.ndarray, np.ndarray]] = []
    in_flight: list[tuple[int, float]] = []

    def emit(u_minus, u_plus):
        nonlocal marking
        marking = health.fuzzy_step(net, marking, u_minus, u_plus)
        pulses.append((u_minus, u_plus))

    def supported(event):
        column = net.m_minus[:, event]
        support = np.flatnonzero(column)
        return float((marking.state_mass[support] / column[support]).min())

    for _ in range(steps):
        if in_flight and rng.random() < 0.5:
            event, magnitude = in_flight.pop(0)
            u_plus = np.zeros(net.n_events)
            u_plus[event] = magnitude
            emit(np.zeros(net.n_events), u_plus)
            continue
        floor = 1.0 - 1e-12 if unit else 1e-6
        choices = [e for e in range(net.n_events) if supported(e) > floor]
        if not choices:
            break
        event = int(rng.choice(choices))
        magnitude = 1.0 if unit else \
            supported(event) * float(rng.uniform(0.3, 1.0))
        u_minus = np.zeros(net.n_events)
        u_minus[event] = magnitude
        in_flight.append((event, magnitude))
        emit(u_minus, np.zeros(net.n_events))
    for event, magnitude in in_flight:
        u_plus = np.zeros(net.n_events)
        u_plus[event] = magnitude
        emit(np.zeros(net.n_events), u_plus)
    return pulses


# Report writers as they were before rows were built as strings: every
# row goes through csv.writer, so csv's own quoting rule decides each
# field. The report tests require the production writers' bytes to equal
# these.

def _fmt(value) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def oracle_write_trace_csv(path: Path, result: RunResult) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "net", "event_label", "psi_or_event_index",
                         "kind"])
        for row in result.trace:
            writer.writerow([_fmt(row.time), row.net, row.label,
                             row.index, row.kind])


def oracle_write_delivery_csv(path: Path, result: RunResult,
                              place_names: Sequence[str]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "event_index", "psi", "kind"]
                        + [f"place:{name}" for name in place_names]
                        + ["cumulative_cost"])
        for index, point in enumerate(result.delivery_trajectory):
            psi = "" if point.psi is None else point.psi
            writer.writerow([_fmt(point.time), index, psi, point.kind]
                            + [int(c) for c in point.place_tokens]
                            + [_fmt(point.cost)])


def oracle_write_outcomes_csv(path: Path, result: RunResult) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "individual_id", "outcome"])
        for time, individual, outcome in result.outcome_series:
            writer.writerow([_fmt(time), individual, _fmt(outcome)])


# Schedule shifts of the clones, in days: multiples of 1/8, so every
# shifted time stays exact, with a tie between the first three clones.
CLONE_OFFSETS = (0.0, 0.0, 0.5, 1.0, 1.5)


def chronic_clones(offsets):
    """The chronic fixture with its patient cloned once per offset: each
    clone has its own id, value tables and shifted copy of the schedule,
    merged in stable time order. Tokens and capacities are scaled by the
    number of clones, so the clones never contend."""
    doc = json.loads(CHRONIC.read_text(encoding="utf-8"))
    n = len(offsets)
    (patient,) = doc.pop("individuals")
    assumed = doc["assumed_values"]
    sections = ("health_state_values", "health_event_weights",
                "health_event_durations")
    tables = {section: assumed[section].pop("patient")
              for section in sections}
    doc["individuals"], schedule = [], []
    for k, offset in enumerate(offsets):
        clone_id = f"patient-{k}"
        doc["individuals"].append(dict(copy.deepcopy(patient), id=clone_id))
        for section in sections:
            assumed[section][clone_id] = copy.deepcopy(tables[section])
        schedule += [dict(entry, individual=clone_id,
                          time=entry["time"] + offset)
                     for entry in doc["schedule"]]
    doc["schedule"] = sorted(schedule, key=lambda entry: entry["time"])
    doc["initial_tokens"] = {place: count * n for place, count
                             in doc["initial_tokens"].items()}
    doc["transition_capacities"] = {key: n for key in assumed["durations"]}
    return doc
