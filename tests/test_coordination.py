import dataclasses
import gc
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carenets import coordination, delivery, health
from carenets.cli import main
from carenets.coordination import (DeliveryAction, HealthAction, Individual,
                                   Table, TraceRow, build_feasibility,
                                   build_transform_selector,
                                   candidate_table, cosimulate,
                                   induce_health_firing, induced_event,
                                   process_table, system_firing)
from carenets.delivery import DeliveryNet, Marking, TrajectoryPoint
from carenets.errors import (AmbiguousHealthEventError, CapacityError,
                             InfeasibleCareActionError, SimulationError,
                             ValidationError)
from carenets.health import (HealthEvent, HealthEventKind, HealthMarking,
                             HealthNet)
from carenets.scenario import compile_scenario, load_scenario_data
from carenets.structure import (Process, Resource, ResourceClass,
                                StructuralModel)

from helpers import (ACUTE, CHRONIC, CLONE_OFFSETS,
                     assert_coupled_and_conserved, chronic_clones,
                     Firing, completion_counts, observe, point_totals,
                     run_starts, step_replay)

STOCH = HealthEventKind.STOCHASTIC
INDUCED = HealthEventKind.INDUCED
F = ResourceClass.TRANSFORMATION
M = ResourceClass.MEASUREMENT
N = ResourceClass.TRANSPORTATION


def branching_health_net():
    """Two condition states, one shared therapy process realizing a
    condition-specific event for each, plus a spontaneous onset event."""
    states = ("well", "condition x", "condition y", "treated")
    events = (
        HealthEvent("fall ill", STOCH),
        HealthEvent("therapy for x", INDUCED, realized_by=("therapy",),
                    duration=1.0),
        HealthEvent("therapy for y", INDUCED, realized_by=("therapy",),
                    duration=1.0),
    )
    m_minus = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0]])
    m_plus = np.array([
        [0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0],
        [0.5, 0.0, 0.0],
        [0.0, 1.0, 1.0]])
    values = np.array([1.0, 0.3, 0.3, 0.9])
    return HealthNet(states, events, m_minus, m_plus, values)


def care_system():
    resources = [Resource("clinic", F),
                 Resource("outside clinic", M),
                 Resource("patient", N)]
    processes = [Process("therapy", F),
                 Process("check", M),
                 Process("enter", N, origin=1, destination=0),
                 Process("exit", N, origin=0, destination=1)]
    model = StructuralModel.build(
        resources, processes, [(0, 0), (1, 1), (2, 2), (3, 2)])
    net = DeliveryNet.from_model(model, [1.0, 0.5, 0.25, 0.25],
                                 [500.0, 20.0, 0.0, 0.0])
    return model, net


class TestSystemFiring:
    def test_single_engagement(self):
        engagement = np.zeros((4, 1), dtype=int)
        engagement[2, 0] = 1
        assert system_firing(engagement).tolist() == [0, 0, 1, 0]

    def test_no_engagement(self):
        assert system_firing(np.zeros((3, 2), dtype=int)).tolist() == [0, 0, 0]

    def test_disjoint_individuals(self):
        engagement = np.zeros((4, 2), dtype=int)
        engagement[0, 0] = 1
        engagement[3, 1] = 1
        assert system_firing(engagement).tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize("name", ["acute", "chronic"])
    def test_summed_engagements_equal_completion_counts(self, request,
                                                        name):
        compiled = request.getfixturevalue(name)
        result = compiled.run(mode="replay")
        col = {ind.id: i for i, ind in enumerate(compiled.individuals)}
        engagement = np.zeros((compiled.net.n_transitions,
                               len(col)), dtype=int)
        for action in compiled.delivery_actions:
            engagement[action.psi, col[action.individual]] += 1
        assert np.array_equal(
            system_firing(engagement),
            completion_counts(result, compiled.net.n_transitions))

    def test_capacity_violation(self):
        # two individuals engaging a capacity-1 transition at one instant:
        # the system firing exceeds the capacity, and the kernel rejects it
        _, net, individual, selector, _, dofs = cosim_setup()
        two = Individual("p2", individual.net, individual.initial,
                         individual.feasibility)
        engagement = np.zeros((net.n_transitions, 2), dtype=int)
        engagement[dofs["enter"], :] = 1
        assert (system_firing(engagement)[dofs["enter"]]
                > net.capacities[dofs["enter"]])
        actions = [DeliveryAction(1.0, dofs["enter"], "p1"),
                   DeliveryAction(1.0, dofs["enter"], "p2")]
        with pytest.raises(SimulationError) as err:
            cosimulate(net, Marking.initial(net, [0, 2]),
                       [individual, two], selector, actions, [])
        assert "capacity" in str(err.value)
        assert (err.value.time, err.value.individual) == (1.0, "p2")
        assert isinstance(err.value.__cause__, CapacityError)


class TestFeasibility:
    def test_built_from_event_tags(self):
        net = branching_health_net()
        matrix = build_feasibility(net, ["therapy"])
        assert matrix.tolist() == [[0], [1], [1]]

    def test_unknown_process_rejected(self):
        net = branching_health_net()
        with pytest.raises(ValidationError):
            build_feasibility(net, ["something else"])

    def test_selector_picks_transformation_dofs(self):
        model, _ = care_system()
        selector = build_transform_selector(model)
        assert selector.shape == (1, 4)
        therapy_dof = model.dof_list.index((0, 0))
        expected = np.zeros((1, 4), dtype=int)
        expected[0, therapy_dof] = 1
        assert np.array_equal(selector, expected)


class TestInducedFiring:
    def setup_method(self):
        self.model, self.net = care_system()
        self.hnet = branching_health_net()
        self.feas = build_feasibility(self.hnet, ["therapy"])
        self.selector = build_transform_selector(self.model)
        self.therapy_dof = self.model.dof_list.index((0, 0))

    def engagement(self, psi):
        engagement = np.zeros(4, dtype=int)
        engagement[psi] = 1
        return engagement

    def test_condition_selects_the_matching_event(self):
        marking = HealthMarking.point(self.hnet, "condition y")
        u_l = induce_health_firing(self.feas, self.selector,
                                   self.engagement(self.therapy_dof),
                                   self.hnet, marking)
        assert u_l.tolist() == [0, 0, 1]
        rhs = self.selector @ self.engagement(self.therapy_dof)
        assert np.array_equal(self.feas.T @ u_l, rhs)

    def test_no_engagement_fires_nothing(self):
        marking = HealthMarking.point(self.hnet, "well")
        u_l = induce_health_firing(self.feas, self.selector,
                                   np.zeros(4, dtype=int), self.hnet,
                                   marking)
        assert u_l.tolist() == [0, 0, 0]

    def test_nothing_enabled_is_infeasible(self):
        marking = HealthMarking.point(self.hnet, "well")
        with pytest.raises(InfeasibleCareActionError):
            induce_health_firing(self.feas, self.selector,
                                 self.engagement(self.therapy_dof),
                                 self.hnet, marking)

    def test_two_enabled_candidates_is_ambiguous(self):
        marking = HealthMarking.from_distribution(
            self.hnet, {"condition x": 1.0, "condition y": 1.0})
        with pytest.raises(AmbiguousHealthEventError):
            induce_health_firing(self.feas, self.selector,
                                 self.engagement(self.therapy_dof),
                                 self.hnet, marking)

    def test_acute_surgery_maps_to_single_event(self, acute):
        individual = acute.individuals[0]
        model = acute.model
        psi = next(i for i, (w, _) in enumerate(model.dof_list)
                   if model.processes[w].name ==
                   "Perform ACL reconstruction surgery")
        marking = HealthMarking.point(individual.net, "mobility supported")
        engagement = np.zeros(model.dof_count, dtype=int)
        engagement[psi] = 1
        u_l = induce_health_firing(individual.feasibility, acute.selector,
                                   engagement, individual.net, marking)
        fired = [individual.net.events[i].name
                 for i in np.nonzero(u_l)[0]]
        assert fired == ["Reconstruct ACL"]

    def test_chronic_therapy_respects_resection_outcome(self, chronic):
        individual = chronic.individuals[0]
        model = chronic.model
        psi = next(i for i, (w, _) in enumerate(model.dof_list)
                   if model.processes[w].name ==
                   "Perform radiation & chemotherapy treatment")
        marking = HealthMarking.point(individual.net, "near-total resection")
        engagement = np.zeros(model.dof_count, dtype=int)
        engagement[psi] = 1
        u_l = induce_health_firing(individual.feasibility, chronic.selector,
                                   engagement, individual.net, marking)
        fired = [individual.net.events[i].name for i in np.nonzero(u_l)[0]]
        assert fired == ["Treat residual disease after near-total resection"]


def assert_lookup_matches_oracle(net, feasibility, selector, markings):
    """For every marking and transformation transition, the kernel's
    table lookup fires the event the matrix oracle fires, or raises the
    same error. Returns how many lookups fired and how many raised."""
    process_of = process_table(selector)
    candidates = candidate_table(feasibility)
    fired = raised = 0
    for psi, process in enumerate(process_of):
        column = np.zeros(selector.shape[0], dtype=int)
        if process >= 0:
            column[process] = 1
        assert np.array_equal(selector[:, psi], column)
        if process < 0:
            continue
        engagement = np.zeros(selector.shape[1], dtype=int)
        engagement[psi] = 1
        for marking in markings:
            try:
                u_l = induce_health_firing(feasibility, selector, engagement,
                                           net, marking)
            except (InfeasibleCareActionError,
                    AmbiguousHealthEventError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    induced_event(net, marking, process, candidates[process])
                raised += 1
                continue
            event = induced_event(net, marking, process, candidates[process])
            expected = np.zeros(net.n_events, dtype=int)
            expected[event] = 1
            assert np.array_equal(u_l, expected)
            fired += 1
    return fired, raised


class TestIndexTables:
    @pytest.mark.parametrize("name", ["acute", "chronic"])
    def test_lookup_matches_oracle_from_every_point_marking(self, request,
                                                             name):
        compiled = request.getfixturevalue(name)
        for individual in compiled.individuals:
            net = individual.net
            markings = [HealthMarking.point(net, state)
                        for state in range(net.n_states)]
            fired, raised = assert_lookup_matches_oracle(
                net, individual.feasibility, compiled.selector, markings)
            assert fired and raised

    def test_lookup_matches_oracle_on_shared_therapy(self):
        model, _ = care_system()
        net = branching_health_net()
        markings = [HealthMarking.point(net, state)
                    for state in range(net.n_states)]
        markings.append(HealthMarking.from_distribution(
            net, {"condition x": 1.0, "condition y": 1.0}))
        fired, raised = assert_lookup_matches_oracle(
            net, build_feasibility(net, ["therapy"]),
            build_transform_selector(model), markings)
        assert (fired, raised) == (2, 3)


# The index tables as they were read one column at a time, the oracles of
# the whole-matrix versions: a table is exact only for a 0/1 matrix with
# at most one 1 per selector column or feasibility row.

def oracle_one_hot(matrix, axis):
    lines = matrix.T if axis == 0 else matrix
    return all(np.isin(line, (0, 1)).all() and line.sum() <= 1
               for line in lines)


def oracle_process_table(selector):
    if not oracle_one_hot(selector, 0):
        return None
    return [int(column.argmax()) if column.any() else -1
            for column in selector.T]


def oracle_candidate_table(feasibility):
    if not oracle_one_hot(feasibility, 1):
        return None
    return [tuple(np.flatnonzero(column).tolist())
            for column in feasibility.T]


TABLES = [
    (process_table, oracle_process_table, "selector must hold only 0 and 1, "
     "with at most one 1 per column", "structure"),
    (candidate_table, oracle_candidate_table, "matrix must hold only 0 and "
     "1, with at most one 1 per row", "feasibility-tags"),
]


def assert_tables_match_oracles(matrix):
    for table, oracle, message, check in TABLES:
        expected = oracle(matrix)
        if expected is not None:
            assert table(matrix) == expected
            continue
        with pytest.raises(ValidationError, match=message) as err:
            table(matrix)
        assert err.value.check == check
    for axis in (0, 1):
        if oracle_one_hot(matrix, axis):
            assert coordination._one_hot(matrix, axis, "m") is matrix
        else:
            with pytest.raises(ValidationError):
                coordination._one_hot(matrix, axis, "m")


@st.composite
def table_inputs(draw):
    """A 0/1 matrix, empty shapes included, mostly sparse so that many
    are one-hot; as int, float or bool, or with one entry replaced by 2,
    -1, 0.5 or NaN, or as text."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    matrix = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 1]),
                                    min_size=shape[0] * shape[1],
                                    max_size=shape[0] * shape[1])),
                      dtype=int).reshape(shape)
    form = draw(st.sampled_from(["int", "float", "bool", "bad entry",
                                 "text"]))
    if matrix.size == 0 and form in ("bad entry", "text"):
        form = "int"
    if form == "float":
        matrix = matrix.astype(float)
    elif form == "bool":
        matrix = matrix.astype(bool)
    elif form == "bad entry":
        matrix = matrix.astype(float)
        cell = draw(st.integers(0, matrix.size - 1))
        matrix.flat[cell] = draw(st.sampled_from([2, -1, 0.5, np.nan]))
    elif form == "text":
        matrix = matrix.astype(str)
    return matrix


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(table_inputs())
def test_index_tables_match_per_column_oracles(matrix):
    assert_tables_match_oracles(matrix)


@pytest.mark.parametrize("matrix, accepted", [
    (np.zeros((0, 3), dtype=int), (True, True)),
    (np.zeros((2, 0), dtype=int), (True, True)),
    (np.array([[True, False], [False, False]]), (True, True)),
    (np.array([[2, 0], [0, 0]]), (False, False)),
    (np.array([[-1, 1], [1, 0]]), (False, False)),
    (np.array([[0.5, 0.0], [0.0, 0.0]]), (False, False)),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), (False, False)),
    (np.array([["0", "1"], ["0", "0"]]), (False, False)),
    (np.array([[1, 0], [1, 0]]), (False, True)),
    (np.array([[1, 1], [0, 0]]), (True, False)),
], ids=["no rows", "no columns", "bool", "two", "minus one", "half", "nan",
        "text", "two in a column", "two in a row"])
def test_index_table_inputs(matrix, accepted):
    assert (oracle_one_hot(matrix, 0), oracle_one_hot(matrix, 1)) == accepted
    assert_tables_match_oracles(matrix)


@pytest.mark.parametrize("matrix", [np.array([0, 1]), np.zeros((1, 1, 1))],
                         ids=["1-d", "3-d"])
def test_index_tables_need_a_2d_matrix(matrix):
    for table, _, message, check in TABLES:
        with pytest.raises(ValidationError, match=message) as err:
            table(matrix)
        assert err.value.check == check


@pytest.mark.parametrize("name", ["acute", "chronic"])
def test_kernel_never_falls_back_to_matrix_oracles(monkeypatch, request,
                                                   name):
    compiled = request.getfixturevalue(name)
    expected = compiled.run(mode="replay")

    def oracle(*args, **kwargs):
        raise AssertionError("the kernel called a matrix oracle")

    monkeypatch.setattr(coordination, "induce_health_firing", oracle)
    monkeypatch.setattr(coordination, "system_firing", oracle)
    monkeypatch.setattr(health, "fuzzy_step", oracle)
    monkeypatch.setattr(delivery, "state_equation", oracle)
    calls = []
    step = coordination.step

    def counted_step(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(coordination, "step", counted_step)
    result = compiled.run(mode="replay")
    assert len(calls) == 2 * len(compiled.delivery_actions)
    assert result.trace == expected.trace
    assert result.coupling_checks == expected.coupling_checks


def _replace_individual(**change):
    """Case input: the acute individual with each field replaced by
    ``change[field](individual)``."""
    def mutate(compiled):
        (ind,) = compiled.individuals
        return {"individuals": [dataclasses.replace(
            ind, **{name: make(ind) for name, make in change.items()})]}
    return mutate


def _one_more(matrix, axis):
    return np.concatenate([matrix, np.zeros_like(matrix.take([0], axis))],
                          axis)


# Inputs whose shape does not match the net: (replacement cosimulate
# arguments, check). The kernel reads each by index, so it must reject
# them before any event.
WRONG_SHAPES = {
    "capacities-short": (
        lambda c: {"net": dataclasses.replace(
            c.net, capacities=c.net.capacities[:-1])},
        "capacities"),
    "marking-few-places": (
        lambda c: {"initial": Marking(c.initial.place_tokens[:-1],
                                      c.initial.busy_tokens)},
        "initial-tokens"),
    "selector-few-columns": (
        lambda c: {"selector": c.selector[:, :-1]}, "structure"),
    "selector-extra-column": (
        lambda c: {"selector": _one_more(c.selector, 1)}, "structure"),
    "feasibility-extra-row": (
        _replace_individual(feasibility=lambda ind: _one_more(
            ind.feasibility, 0)),
        "feasibility-tags"),
    "feasibility-few-columns": (
        _replace_individual(feasibility=lambda ind: ind.feasibility[:, :-1]),
        "feasibility-tags"),
    "event-mass-short": (
        _replace_individual(initial=lambda ind: HealthMarking(
            ind.initial.state_mass, ind.initial.event_mass[:-1])),
        "initial-mass"),
    "state-mass-long": (
        _replace_individual(initial=lambda ind: HealthMarking(
            np.append(ind.initial.state_mass, 0.0),
            ind.initial.event_mass)),
        "initial-mass"),
}


@pytest.mark.parametrize("replace, check", WRONG_SHAPES.values(),
                         ids=WRONG_SHAPES.keys())
def test_wrong_shape_rejected_before_any_event(monkeypatch, acute, replace,
                                               check):
    def fired(*args, **kwargs):
        raise AssertionError("an event ran")

    monkeypatch.setattr(coordination, "step", fired)
    monkeypatch.setattr(health, "start_event", fired)
    inputs = {"net": acute.net, "initial": acute.initial,
              "individuals": acute.individuals, "selector": acute.selector,
              "delivery_actions": acute.delivery_actions,
              "health_actions": acute.health_actions}
    with pytest.raises(ValidationError) as err:
        inputs.update(replace(acute))
        cosimulate(**inputs)
    assert err.value.check == check


def cosim_setup():
    model, net = care_system()
    hnet = branching_health_net()
    individual = Individual("p1", hnet, HealthMarking.point(hnet, "well"),
                            build_feasibility(hnet, ["therapy"]))
    selector = build_transform_selector(model)
    initial = Marking.initial(net, [0, 1])
    dofs = {model.processes[w].name: i
            for i, (w, _) in enumerate(model.dof_list)}
    return model, net, individual, selector, initial, dofs


class TestCosimulate:
    def test_empty_schedule(self):
        _, net, individual, selector, initial, _ = cosim_setup()
        result = cosimulate(net, initial, [individual], selector, [], [])
        assert result.trace == []
        assert result.cost_series == [(0.0, 0.0)]
        assert result.outcome_series == [(0.0, "p1", 1.0)]
        assert result.final_marking is initial

    def run_episode(self, mode="replay", outcome="condition x"):
        _, net, individual, selector, initial, dofs = cosim_setup()
        delivery_actions = [
            DeliveryAction(0.75, dofs["check"], "p1"),
            DeliveryAction(2.0, dofs["enter"], "p1"),
            DeliveryAction(3.0, dofs["therapy"], "p1"),
            DeliveryAction(5.0, dofs["exit"], "p1"),
        ]
        health_actions = [
            HealthAction(0.5, "p1", (0,),
                         outcome=individual.net.state_index(outcome)
                         if outcome else None),
        ]
        result = cosimulate(net, initial, [individual], selector,
                            delivery_actions, health_actions, mode=mode,
                            seed=5)
        return individual, result

    def test_transformation_start_pairs_with_health_event(self):
        _, result = self.run_episode()
        by_time = {}
        for row in result.trace:
            by_time.setdefault((row.time, row.kind), []).append(row.net)
        assert by_time[(3.0, "start")] == ["delivery", "health:p1"]

    def test_stochastic_event_has_no_delivery_pair(self):
        _, result = self.run_episode()
        onset = [row for row in result.trace if row.label == "fall ill"]
        assert len(onset) == 2
        assert all(row.net == "health:p1" for row in onset)
        assert not any(row.net == "delivery" and row.time == 0.5
                       for row in result.trace)

    def test_only_transformations_touch_health(self):
        individual, result = self.run_episode()
        health_rows = [row for row in result.trace
                       if row.net.startswith("health")]
        # onset (scheduled) and therapy (induced), start and complete each
        assert len(health_rows) == 4
        labels = {row.label for row in health_rows}
        assert labels == {"fall ill", "therapy for x"}

    def test_coupling_residual_zero_on_every_start(self):
        # the therapy start fires what the matrix oracle fires, which
        # checks the coupling identity
        _, _, individual, selector, _, _ = cosim_setup()
        observed = observe(lambda: self.run_episode()[1])
        assert assert_coupled_and_conserved([individual], selector,
                                            observed) == 1
        assert len(observed.produced) == 4

    def test_conservation_of_both_nets(self):
        individual, result = self.run_episode()
        assert result.final_marking.total == 1
        assert result.final_health["p1"].total_mass == pytest.approx(
            1.0, abs=1e-9)
        assert result.final_health["p1"].state_mass[3] == 1.0

    def test_sample_mode_draws_branch(self):
        individual, result = self.run_episode(mode="sample", outcome=None)
        treated = result.final_health["p1"].state_mass[3]
        assert treated == 1.0

    def test_replay_infeasible_therapy_aborts_with_context(self):
        _, net, individual, selector, _, dofs = cosim_setup()
        # in the clinic, but well: neither therapy event is enabled
        in_clinic = Marking.initial(net, [1, 0])
        actions = [DeliveryAction(1.0, dofs["therapy"], "p1")]
        with pytest.raises(SimulationError) as err:
            cosimulate(net, in_clinic, [individual], selector, actions, [])
        assert str(err.value).startswith("at t=1.0")
        assert "'p1'" in str(err.value)
        assert (err.value.time, err.value.net, err.value.label,
                err.value.individual) == (1.0, "delivery",
                                          "therapy @ clinic", "p1")
        assert isinstance(err.value.__cause__, InfeasibleCareActionError)

    def test_capacity_bounds_concurrent_tokens(self):
        _, net, individual, selector, _, dofs = cosim_setup()
        two = Individual("p2", individual.net, individual.initial,
                         individual.feasibility)
        initial = Marking.initial(net, [0, 2])
        actions = [DeliveryAction(1.0, dofs["enter"], "p1"),
                   DeliveryAction(1.1, dofs["enter"], "p2")]
        with pytest.raises(SimulationError) as err:
            cosimulate(net, initial, [individual, two], selector, actions,
                       [])
        assert "capacity" in str(err.value)
        assert (err.value.time, err.value.individual) == (1.1, "p2")

    def test_two_individuals_with_capacity_room(self):
        model, net0 = care_system()
        net = DeliveryNet.from_model(
            model, net0.durations, net0.costs,
            capacities=np.array([1, 1, 2, 1]))
        hnet = branching_health_net()
        p1 = Individual("p1", hnet, HealthMarking.point(hnet, "well"),
                        build_feasibility(hnet, ["therapy"]))
        p2 = Individual("p2", hnet, HealthMarking.point(hnet, "well"),
                        build_feasibility(hnet, ["therapy"]))
        selector = build_transform_selector(model)
        dofs = {model.processes[w].name: i
                for i, (w, _) in enumerate(model.dof_list)}
        initial = Marking.initial(net, [0, 2])
        actions = [DeliveryAction(1.0, dofs["enter"], "p1"),
                   DeliveryAction(1.1, dofs["enter"], "p2")]
        result = cosimulate(net, initial, [p1, p2], selector, actions, [])
        assert result.final_marking.place_tokens.tolist() == [2, 0]

    def test_optional_action_skipped_when_disabled(self):
        model, net = care_system()
        hnet = branching_health_net()
        # onset consumes "well"; this individual is already past it
        individual = Individual("p1", hnet,
                                HealthMarking.point(hnet, "condition x"),
                                build_feasibility(hnet, ["therapy"]))
        selector = build_transform_selector(model)
        initial = Marking.initial(net, [0, 1])
        with pytest.raises(SimulationError):
            cosimulate(net, initial, [individual], selector, [],
                       [HealthAction(1.0, "p1", (0,))])
        result = cosimulate(net, initial, [individual], selector, [],
                            [HealthAction(1.0, "p1", (0,), optional=True)])
        assert result.skipped_actions == 1
        assert result.trace == []

    @pytest.mark.parametrize("events", [(), (0, 0)],
                             ids=["empty", "repeated"])
    def test_empty_or_repeated_events_rejected_at_entry(self, events):
        # a ValidationError, not the SimulationError that the loop raises,
        # shows that no event ran
        _, net, individual, selector, initial, _ = cosim_setup()
        with pytest.raises(ValidationError) as err:
            cosimulate(net, initial, [individual], selector, [],
                       [HealthAction(1.0, "p1", events)])
        assert str(err.value) == (
            f"health action at t=1.0 for individual 'p1': events "
            f"{list(events)} must name at least one event, each once")

    def test_two_enabled_scheduled_events_are_ambiguous(self):
        _, net, _, selector, initial, _ = cosim_setup()
        hnet = HealthNet(("well", "x", "y"),
                         (HealthEvent("to x", STOCH),
                          HealthEvent("to y", STOCH)),
                         np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
                         np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                         np.array([1.0, 0.5, 0.5]))
        individual = Individual("p1", hnet, HealthMarking.point(hnet, "well"),
                                build_feasibility(hnet, ["therapy"]))
        with pytest.raises(SimulationError) as err:
            cosimulate(net, initial, [individual], selector, [],
                       [HealthAction(1.0, "p1", (0, 1))])
        assert isinstance(err.value.__cause__, AmbiguousHealthEventError)
        assert err.value.label == "to x | to y"

    def test_schedule_without_transformation_processes(self):
        model = StructuralModel.build([Resource("lab", M)],
                                      [Process("test", M)], [(0, 0)])
        net = DeliveryNet.from_model(model, [1.0], [20.0])
        result = run_starts(model, net, Marking.initial(net, [1]),
                            [(0.0, 0), (2.0, 0)])
        # no transformation process, so no start induces a health event
        assert [(row.net, row.kind) for row in result.trace] == [
            ("delivery", "start"), ("delivery", "complete")] * 2
        assert result.cost_series[-1] == (3.0, 40.0)

    @pytest.mark.parametrize("duration, cost, time, what", [
        (1e308, 0.0, float("inf"), "clock"),
        (1.0, 1e308, 1e308, "cumulative cost")])
    def test_overflow_names_the_first_infinite_point(self, duration, cost,
                                                     time, what):
        model = StructuralModel.build([Resource("lab", M)],
                                      [Process("test", M)], [(0, 0)])
        net = DeliveryNet.from_model(model, [duration], [cost])
        with pytest.raises(SimulationError) as err:
            run_starts(model, net, Marking.initial(net, [1]),
                       [(0.0, 0), (1e308, 0)])
        assert str(err.value) == (f"at t={time}, delivery 'test @ lab': the "
                                  f"{what} has left the finite floats")
        assert (err.value.time, err.value.net, err.value.label) == (
            time, "delivery", "test @ lab")

    def test_coupling_failure_rejected_by_kernel_and_oracle(self,
                                                            monkeypatch):
        # An unvalidated feasibility entry of 2 counts the induced event
        # twice against one engagement, so Fᵀu_L ≠ S·e. The oracle finds
        # it at the firing; the kernel rejects the matrix before any event.
        _, net, individual, selector, _, dofs = cosim_setup()
        sick = HealthMarking.point(individual.net, "condition x")
        doubled = dataclasses.replace(
            individual, initial=sick, feasibility=2 * individual.feasibility)
        engagement = np.zeros(net.n_transitions, dtype=int)
        engagement[dofs["therapy"]] = 1
        with pytest.raises(SimulationError,
                           match="induced firing vector does not reproduce "
                                 "the engaged transformation counts"):
            induce_health_firing(doubled.feasibility, selector, engagement,
                                 doubled.net, sick)
        err = _rejected_before_any_event(
            monkeypatch, net, Marking.initial(net, [1, 0]), [doubled],
            selector, [DeliveryAction(1.0, dofs["therapy"], "p1")], [])
        assert str(err) == ("a feasibility matrix must hold only 0 and 1, "
                            "with at most one 1 per row")
        assert err.check == "feasibility-tags"

    def test_feasibility_row_with_two_processes_rejected(self, monkeypatch):
        _, net, individual, selector, initial, _ = cosim_setup()
        two = dataclasses.replace(individual, feasibility=np.array(
            [[0, 0], [1, 1], [1, 0]]))
        err = _rejected_before_any_event(monkeypatch, net, initial, [two],
                                         np.vstack([selector, selector * 0]),
                                         [], [])
        assert "at most one 1 per row" in str(err)

    def test_selector_column_with_two_processes_rejected(self, monkeypatch):
        _, net, individual, selector, initial, dofs = cosim_setup()
        doubled = np.vstack([selector, selector])
        err = _rejected_before_any_event(
            monkeypatch, net, initial, [individual], doubled,
            [DeliveryAction(1.0, dofs["check"], "p1")], [])
        assert str(err) == ("the transformation selector must hold only 0 "
                            "and 1, with at most one 1 per column")

    def test_induced_event_cannot_be_scheduled(self, monkeypatch):
        _, net, individual, selector, initial, dofs = cosim_setup()
        err = _rejected_before_any_event(
            monkeypatch, net, initial, [individual], selector,
            [DeliveryAction(0.5, dofs["check"], "p1")],
            [HealthAction(1.0, "p1", (0,)), HealthAction(2.0, "p1", (0, 1))])
        assert str(err) == ("health action at t=2.0 for individual 'p1': "
                            "induced event 'therapy for x' cannot be "
                            "scheduled directly")

    @pytest.mark.parametrize("event", [5, -1])
    def test_event_index_out_of_range_rejected(self, monkeypatch, event):
        _, net, individual, selector, initial, _ = cosim_setup()
        err = _rejected_before_any_event(
            monkeypatch, net, initial, [individual], selector, [],
            [HealthAction(1.0, "p1", (0, event))])
        assert str(err) == (f"health action at t=1.0 for individual 'p1': "
                            f"event {event} is out of range for a net of 3 "
                            f"events")

    @pytest.mark.parametrize("delivery, outcome", [(True, 4), (False, -1)])
    def test_outcome_out_of_range_rejected(self, monkeypatch, delivery,
                                           outcome):
        _, net, individual, selector, initial, dofs = cosim_setup()
        if delivery:
            actions = [DeliveryAction(0.5, dofs["therapy"], "p1", outcome)], []
        else:
            actions = [], [HealthAction(0.5, "p1", (0,), outcome)]
        err = _rejected_before_any_event(monkeypatch, net, initial,
                                         [individual], selector, *actions)
        kind = "delivery" if delivery else "health"
        assert str(err) == (f"{kind} action at t=0.5 for individual 'p1': "
                            f"state {outcome} is out of range for a net of 4 "
                            f"states")

    @pytest.mark.parametrize("past_end", [True, False])
    def test_transition_index_out_of_range_rejected(self, monkeypatch,
                                                    past_end):
        _, net, individual, selector, initial, dofs = cosim_setup()
        psi = net.n_transitions if past_end else -1
        err = _rejected_before_any_event(
            monkeypatch, net, initial, [individual], selector,
            [DeliveryAction(0.5, dofs["check"], "p1"),
             DeliveryAction(1.0, psi, "p1")], [])
        assert str(err) == (f"delivery action at t=1.0 for individual "
                            f"'p1': transition {psi} is out of range for a "
                            f"net of {net.n_transitions} transitions")

    @pytest.mark.parametrize("time", [float("nan"), -1.0, True],
                             ids=["nan", "negative", "bool"])
    def test_bad_delivery_time_rejected(self, monkeypatch, time):
        # the schedule is sorted once, so its times need a total order;
        # a start at -1.0 would precede the initial point at 0.0
        _, net, individual, selector, initial, dofs = cosim_setup()
        err = _rejected_before_any_event(
            monkeypatch, net, initial, [individual], selector,
            [DeliveryAction(time, dofs["check"], "p1"),
             DeliveryAction(0.5, dofs["check"], "p1")], [])
        assert str(err) == (f"delivery action at t={time} for individual "
                            f"'p1': time {time!r} is not a number >= 0")

    @pytest.mark.parametrize("time", [float("nan"), -0.5, False],
                             ids=["nan", "negative", "bool"])
    def test_bad_health_time_rejected(self, monkeypatch, time):
        _, net, individual, selector, initial, _ = cosim_setup()
        err = _rejected_before_any_event(
            monkeypatch, net, initial, [individual], selector, [],
            [HealthAction(0.0, "p1", (0,)), HealthAction(time, "p1", (0,))])
        assert str(err) == (f"health action at t={time} for individual "
                            f"'p1': time {time!r} is not a number >= 0")

    @pytest.mark.parametrize("case, message", [
        ("mode", "unknown mode 'simulate'"),
        ("repeated-ids", "duplicate individual ids"),
        ("unknown-individual", "schedule names unknown individual 'p2'")])
    def test_bad_run_input_rejected(self, monkeypatch, case, message):
        _, net, individual, selector, initial, dofs = cosim_setup()
        individuals, mode = [individual], "replay"
        actions = [DeliveryAction(0.5, dofs["check"], "p1")]
        if case == "mode":
            mode = "simulate"
        elif case == "repeated-ids":
            individuals = [individual, individual]
        else:
            actions = [DeliveryAction(0.5, dofs["check"], "p2")]
        err = _rejected_before_any_event(monkeypatch, net, initial,
                                         individuals, selector, actions, [],
                                         mode)
        assert (err.check, str(err)) == ("structure", message)

    def test_integer_zero_time_accepted(self):
        _, net, individual, selector, initial, dofs = cosim_setup()
        result = cosimulate(net, initial, [individual], selector,
                            [DeliveryAction(0, dofs["check"], "p1")], [])
        assert [(row.time, type(row.time)) for row in result.trace] == \
            [(0.0, float), (0.5, float)]


def _rejected_before_any_event(monkeypatch, *args) -> ValidationError:
    """The ValidationError ``cosimulate(*args)`` raises, checking that no
    delivery or health firing ran before it."""
    def no_firing(*_):
        raise AssertionError("an event ran before the entry checks")

    for owner, name in ((coordination, "step"), (health, "start_event"),
                        (health, "is_enabled")):
        monkeypatch.setattr(owner, name, no_firing)
    with pytest.raises(ValidationError) as err:
        cosimulate(*args)
    return err.value


class TestZeroDuration:
    def test_zero_duration_acute_document_simulates(self, tmp_path):
        data = json.loads(ACUTE.read_text(encoding="utf-8"))
        durations = data["assumed_values"]["durations"]
        data["assumed_values"]["durations"] = dict.fromkeys(durations, 0.0)
        del data["assumed_values"]["health_event_durations"]
        compiled = compile_scenario(load_scenario_data(data))
        result = compiled.run(mode="replay")

        delivery = [(row.time, row.index, row.kind) for row in result.trace
                    if row.net == "delivery"]
        starts = sorted(((a.time, a.psi) for a in compiled.delivery_actions),
                        key=lambda start: start[0])
        assert delivery[0::2] == [(t, psi, "start") for t, psi in starts]
        assert delivery[1::2] == [(t, psi, "complete") for t, psi in starts]
        assert result.final_marking.busy_tokens.sum() == 0

        out = tmp_path / "run"
        assert main(["simulate", str(_write(tmp_path, data)),
                     "--out", str(out)]) == 0
        assert (out / "summary.txt").exists()


class TestRank:
    """Events sharing an instant run in the order of the coordination
    ranks: DELIVERY_COMPLETION, HEALTH_COMPLETION, DELIVERY_START,
    HEALTH_ACTION; within a rank, in the order they were queued."""

    def test_zero_durations_complete_after_both_starts(self):
        data = json.loads(ACUTE.read_text(encoding="utf-8"))
        assumed = data["assumed_values"]
        assumed["durations"] = dict.fromkeys(assumed["durations"], 0.0)
        for events in assumed["health_event_durations"].values():
            events.update(dict.fromkeys(events, 0.0))
        result = compile_scenario(load_scenario_data(data)).run()
        treat = "Treat acute symptoms @ emergency room"
        relieve = "Relieve acute symptoms"
        assert [(row.net, row.label, row.kind) for row in result.trace
                if row.time == 6.0] == [
            ("delivery", treat, "start"),
            ("health:adam", relieve, "start"),
            ("delivery", treat, "complete"),
            ("health:adam", relieve, "complete")]

    def test_delivery_start_before_health_action(self):
        # schedule[1] now shares t=120 with schedule[2] but runs after it
        data = json.loads(CHRONIC.read_text(encoding="utf-8"))
        data["schedule"][1]["time"] = 120.0
        result = compile_scenario(load_scenario_data(data)).run()
        starts = [row.label for row in result.trace
                  if row.time == 120.0 and row.kind == "start"]
        assert starts == ["Enter clinic @ patient",
                          "Develop neurologic symptoms"]

    def test_delivery_completion_before_health_completion(self):
        # the health completion is queued at t=0, the delivery one at
        # t=0.5; both fall at t=1
        _, net, individual, selector, initial, dofs = cosim_setup()
        hnet = individual.net
        onset = dataclasses.replace(hnet.events[0], duration=1.0)
        hnet = dataclasses.replace(hnet, events=(onset, *hnet.events[1:]))
        individual = dataclasses.replace(individual, net=hnet)
        result = cosimulate(net, initial, [individual], selector,
                            [DeliveryAction(0.5, dofs["check"], "p1")],
                            [HealthAction(0.0, "p1", (0,))])
        assert [(row.net, row.kind) for row in result.trace
                if row.time == 1.0] == [("delivery", "complete"),
                                        ("health:p1", "complete")]


def _write(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _shifted(compiled, stretch, squeezed, zeroed):
    """The compiled scenario's schedule, order kept, with the gap before
    its k-th entry in time order multiplied by ``stretch[k]`` (or by 0
    for k in ``squeezed``), and the delivery durations at ``zeroed`` set
    to 0."""
    actions = sorted([*compiled.delivery_actions, *compiled.health_actions],
                     key=lambda action: action.time)
    gaps = np.diff([0.0] + [action.time for action in actions])
    factors = [0.0 if k in squeezed else f
               for k, f in enumerate(stretch[:len(actions)])]
    times = np.cumsum(gaps * factors)
    shifted = [action._replace(time=float(t))
               for action, t in zip(actions, times)]
    durations = compiled.net.durations.copy()
    durations[[psi for psi in zeroed if psi < len(durations)]] = 0.0
    net = dataclasses.replace(compiled.net, durations=durations)
    delivery = [a for a in shifted if isinstance(a, DeliveryAction)]
    health = [a for a in shifted if isinstance(a, HealthAction)]
    return net, delivery, health


def _run(compiled, net, delivery, health, mode):
    return observe(lambda: cosimulate(
        net, compiled.initial, compiled.individuals, compiled.selector,
        delivery, health, mode=mode, seed=3))


def _assert_invariants(compiled, net, observed):
    result = observed.result
    points = result.delivery_trajectory
    assert set(point_totals(result, compiled.initial)) == \
        {compiled.initial.total}
    assert result.final_marking.total == compiled.initial.total
    # one point per delivery firing after the initial one, each carrying
    # the running cost of the completions so far
    assert (points[0].psi, points[0].kind) == (None, "initial")
    assert [(p.time, p.psi, p.kind) for p in points[1:]] == [
        (row.time, row.index, row.kind) for row in result.trace
        if row.net == "delivery"]
    running = 0.0
    for point in points:
        if point.kind == "complete":
            running += float(net.costs[point.psi])
        assert point.cost == running
    assert_coupled_and_conserved(compiled.individuals, compiled.selector,
                                 observed)
    # every scheduled start completed
    counts = completion_counts(result, net.n_transitions)
    assert np.array_equal(counts, np.bincount(
        [action.psi for action in compiled.delivery_actions],
        minlength=net.n_transitions))
    assert result.cost_series[-1][1] == float(net.costs @ counts)
    assert result.final_marking.busy_tokens.sum() == 0


@pytest.mark.parametrize("name", ["acute", "chronic"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stretch=st.lists(st.floats(1.0, 4.0), min_size=40, max_size=40),
       squeezed=st.sets(st.integers(1, 26), max_size=2),
       zeroed=st.sets(st.integers(0, 35)))
def test_kernel_invariants_on_shifted_schedules(request, name, stretch,
                                                squeezed, zeroed):
    compiled = request.getfixturevalue(name)
    net, delivery, health = _shifted(compiled, stretch, squeezed, zeroed)
    replay = _run(compiled, net, delivery, health, "replay")
    if not isinstance(replay.result, SimulationError):
        _assert_invariants(compiled, net, replay)
    else:
        # stretched gaps and zero durations only bring tokens and mass
        # back earlier, so only a squeezed schedule may become infeasible
        assert squeezed, replay.result
    observed = [_run(compiled, net, delivery, health, "sample")
                for _ in range(2)]
    first, second = (run.result for run in observed)
    if isinstance(first, SimulationError):
        assert str(first) == str(second)
        return
    _assert_invariants(compiled, net, observed[0])
    assert first.trace == second.trace
    assert first.cost_series == second.cost_series
    assert first.outcome_series == second.outcome_series
    assert all(np.array_equal(a.state_mass, b.state_mass)
               and np.array_equal(a.event_mass, b.event_mass)
               for a, b in zip(*(run.produced for run in observed),
                               strict=True))
    assert all(np.array_equal(first.final_health[i].state_mass,
                              second.final_health[i].state_mass)
               for i in first.final_health)


@pytest.mark.parametrize("name", ["acute", "chronic"])
@pytest.mark.parametrize("mode, seed", [("replay", 0), ("sample", 5)])
def test_recorded_outcomes_match_health_outcome(request, name, mode, seed):
    # The kernel computes the outcome inline; health_outcome is the oracle.
    compiled = request.getfixturevalue(name)
    result = compiled.run(mode=mode, seed=seed)
    last = {ind_id: value for _, ind_id, value in result.outcome_series}
    assert len(result.outcome_series) > len(last)
    for ind in compiled.individuals:
        assert last[ind.id] == health.health_outcome(
            ind.net.values, result.final_health[ind.id].state_mass)


@pytest.mark.parametrize("name", ["acute", "chronic", "clones"])
def test_coupling_checks_list_the_delivery_starts(request, name):
    compiled = (compile_scenario(load_scenario_data(
        chronic_clones(CLONE_OFFSETS))) if name == "clones"
        else request.getfixturevalue(name))
    result = compiled.run()
    assert result.coupling_checks == [
        (row.time, row.index) for row in result.trace
        if row.net == "delivery" and row.kind == "start"]
    assert len(result.coupling_checks) == len(compiled.delivery_actions)


@pytest.mark.parametrize("name", ["acute", "chronic", "clones"])
@pytest.mark.parametrize("mode", ["replay", "sample"])
def test_trajectory_tokens_match_a_step_replay_of_the_trace(request, name,
                                                            mode):
    compiled = (compile_scenario(load_scenario_data(
        chronic_clones(CLONE_OFFSETS))) if name == "clones"
        else request.getfixturevalue(name))
    result = compiled.run(mode=mode, seed=7)
    markings = step_replay(compiled.net, [
        Firing(row.index, row.kind, row.time) for row in result.trace
        if row.net == "delivery"], compiled.initial)
    points = result.delivery_trajectory
    assert len(points) == len(markings)
    for point, marking in zip(points, markings):
        assert np.array_equal(point.place_tokens, marking.place_tokens)
    assert np.array_equal(result.final_marking.place_tokens,
                          markings[-1].place_tokens)
    assert np.array_equal(result.final_marking.busy_tokens,
                          markings[-1].busy_tokens)


def _run_of(request, name):
    """A run of a fixture in sample mode, or a replay of 50 chronic clones
    shifted by eighths of a day."""
    if name == "cohort":
        offsets = [k / 8 for k in range(50)]
        return compile_scenario(load_scenario_data(
            chronic_clones(offsets))).run(mode="replay")
    return request.getfixturevalue(name).run(mode="sample", seed=3)


def _compiled_of(request, name):
    """A compiled fixture, or the cohort of :func:`_run_of` compiled."""
    if name == "cohort":
        offsets = [k / 8 for k in range(50)]
        return compile_scenario(load_scenario_data(chronic_clones(offsets)))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["acute", "chronic", "cohort"])
def test_run_columns_hold_no_object_the_collector_tracks(request, name):
    result = _run_of(request, name)
    tables = (result.trace, result.delivery_trajectory)
    assert len(result.trace) > len(result.delivery_trajectory) > 1
    for table in tables:
        assert len({len(column) for column in table.columns}) == 1
        for column in table.columns:
            assert not any(map(gc.is_tracked, column))
    # the compiled schedule: its columns are tuples, which every run shares
    compiled = _compiled_of(request, name)
    schedule = (compiled.delivery_actions, compiled.health_actions)
    assert [len(table) for table in schedule] == [
        {"acute": 30, "chronic": 23, "cohort": 1150}[name],
        {"acute": 1, "chronic": 4, "cohort": 200}[name]]
    groups = compiled.health_actions.column("events")
    for table in schedule:
        assert len({len(column) for column in table.columns}) == 1
        for column in table.columns:
            assert type(column) is tuple
            if column is not groups:
                assert not any(map(gc.is_tracked, column))
    # Entries that name the same events share one tuple of ints. CPython
    # tracks a new tuple until a collection first sees it and finds only
    # atoms in it, so a young collection untracks every one.
    assert len(set(map(id, groups))) == len(set(groups))
    assert all(type(ev) is int for events in groups for ev in events)
    gc.collect(0)
    assert not any(map(gc.is_tracked, groups))


@pytest.mark.parametrize("name", ["acute", "chronic", "cohort"])
def test_run_tables_read_as_their_rows(request, name):
    result = _run_of(request, name)
    compiled = _compiled_of(request, name)
    for table, row in ((result.trace, TraceRow),
                       (result.delivery_trajectory, TrajectoryPoint),
                       (compiled.delivery_actions, DeliveryAction),
                       (compiled.health_actions, HealthAction)):
        rows = [row(*values) for values in zip(*table.columns)]
        n = len(rows)
        assert len(table) == n
        assert all(type(item) is row for item in table)
        assert list(table) == rows
        assert [table[k] for k in range(-n, n)] == rows + rows
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                table[bad]
        for part in (slice(None), slice(3, 9), slice(-5, None),
                     slice(None, None, -2), slice(n, n + 4)):
            assert table[part] == rows[part]
        assert table == rows and rows == table
        assert table != rows[:-1] and table != rows + rows[:1]
        twin = Table(row)
        for mine, theirs in zip(table.columns, twin.columns):
            theirs += mine
        assert table == twin
        twin.columns[0][-1] = -1.0
        assert table != twin
        assert table != tuple(rows)
    again = _run_of(request, name)
    if name != "acute":  # a sampled acute run has arrays that differ
        assert result.trace == again.trace


def test_trajectories_compare_by_value(chronic):
    first, second = (chronic.run(mode="replay") for _ in range(2))
    assert first.delivery_trajectory == second.delivery_trajectory
    assert first.delivery_trajectory == list(second.delivery_trajectory)
    tokens = second.delivery_trajectory.column("place_tokens")
    tokens[5] = tokens[5].copy()
    tokens[5][0] += 1
    assert first.delivery_trajectory != second.delivery_trajectory
    assert list(first.delivery_trajectory) != second.delivery_trajectory


@pytest.mark.parametrize("mode", ["replay", "sample"])
@pytest.mark.parametrize("name", ["acute", "chronic", "cohort"])
def test_kernel_reads_tables_and_lists_of_rows_alike(request, name, mode):
    compiled = _compiled_of(request, name)
    tables, rows = (
        cosimulate(compiled.net, compiled.initial, compiled.individuals,
                   compiled.selector, delivery, health, mode=mode, seed=5)
        for delivery, health in (
            (compiled.delivery_actions, compiled.health_actions),
            (list(compiled.delivery_actions),
             list(compiled.health_actions))))
    assert len(tables.trace) > len(compiled.delivery_actions)
    assert tables.trace == rows.trace
    assert tables.delivery_trajectory == rows.delivery_trajectory
    assert tables.outcome_series == rows.outcome_series
    assert tables.skipped_actions == rows.skipped_actions
