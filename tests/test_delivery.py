import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carenets.delivery import (DeliveryNet, Marking, build_incidence_in,
                               build_incidence_out, state_equation, step)
from carenets.errors import NotEnabledError, SimulationError, ValidationError
from carenets.structure import (Aggregation, Process, Resource,
                                ResourceClass, StructuralModel)

from helpers import (bool_matrix, completion_counts, oracle_incidence,
                     random_delivery_net, random_feasible_schedule,
                     random_model, run_starts, step_replay)

F = ResourceClass.TRANSFORMATION
M = ResourceClass.MEASUREMENT
N = ResourceClass.TRANSPORTATION


def self_loop_model():
    resources = [Resource("ward", F)]
    processes = [Process("treat", F)]
    return StructuralModel.build(resources, processes, [(0, 0)])


def transport_model():
    resources = [Resource("ward", F), Resource("lab", M),
                 Resource("porter", N)]
    processes = [Process("treat", F), Process("test", M),
                 Process("carry", N, origin=0, destination=1)]
    return StructuralModel.build(resources, processes,
                                 [(0, 0), (1, 1), (2, 2)])


class TestIncidence:
    def test_self_loop_single_column(self):
        model = self_loop_model()
        assert build_incidence_out(model).tolist() == [[1]]
        assert build_incidence_in(model).tolist() == [[1]]

    def test_transport_moves_between_buffers(self):
        model = transport_model()
        psi = model.dof_list.index((2, 2))
        m_minus = build_incidence_out(model)
        m_plus = build_incidence_in(model)
        assert m_minus[:, psi].tolist() == [1, 0]
        assert m_plus[:, psi].tolist() == [0, 1]

    def test_non_transport_columns_match(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            model = random_model(rng)
            m_minus = build_incidence_out(model)
            m_plus = build_incidence_in(model)
            for psi, (w, v) in enumerate(model.dof_list):
                if not model.processes[w].is_transport:
                    assert np.array_equal(m_minus[:, psi], m_plus[:, psi])

    def test_matches_per_dof_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            model = random_model(rng, constrain=True)
            expect_minus, expect_plus = oracle_incidence(model)
            assert np.array_equal(build_incidence_out(model), expect_minus)
            assert np.array_equal(build_incidence_in(model), expect_plus)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            model = random_model(rng)
            for matrix in (build_incidence_out(model),
                           build_incidence_in(model)):
                assert np.array_equal(matrix.sum(axis=0),
                                      np.ones(model.dof_count, dtype=int))


class TestAggregatedIncidence:
    def test_identity_matches_plain(self):
        model = transport_model()
        agg = Aggregation(("ward", "lab"), bool_matrix(np.eye(2, dtype=int)))
        aggregated = StructuralModel.build(model.resources, model.processes,
                                           model.knowledge, aggregation=agg)
        net = DeliveryNet.from_model(aggregated, [1.0] * 3, [0.0] * 3)
        assert np.array_equal(net.m_minus, build_incidence_out(model))
        assert np.array_equal(net.m_plus, build_incidence_in(model))

    def test_chronic_fixture_shape(self, chronic):
        assert chronic.net.m_minus.shape == (2, 7)
        assert chronic.net.m_plus.shape == (2, 7)

    def test_enter_and_exit_columns(self, chronic):
        model = chronic.model
        outside = list(chronic.net.place_names).index("outside clinic")
        inside = list(chronic.net.place_names).index("healthcare clinic")
        enter = next(i for i, (w, _) in enumerate(model.dof_list)
                     if model.processes[w].name == "Enter clinic")
        exit_ = next(i for i, (w, _) in enumerate(model.dof_list)
                     if model.processes[w].name == "Exit clinic")
        assert chronic.net.m_minus[outside, enter] == 1
        assert chronic.net.m_plus[inside, enter] == 1
        assert chronic.net.m_minus[inside, exit_] == 1
        assert chronic.net.m_plus[outside, exit_] == 1


class TestNetTables:
    def test_replace_rebuilds_tables(self):
        _, net = two_place_net()
        swapped = dataclasses.replace(net, m_minus=net.m_plus,
                                      m_plus=net.m_minus)
        assert swapped.origin == net.destination
        assert swapped.destination == net.origin

    @pytest.mark.parametrize("column", [[2, -1], [-1, 2], [1, 0.5]])
    def test_non_binary_column_rejected(self, column):
        # [2, -1] sums to 1, but a start from place 0 would create a
        # token at place 1 out of nothing
        _, net = two_place_net()
        m_minus = net.m_minus.astype(float)
        m_minus[:, 0] = column
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(net, m_minus=m_minus)
        assert err.value.check == "incidence-column-sums"
        assert str(err.value).startswith("column 0 of m_minus holds")

    @pytest.mark.parametrize("name", ["durations", "costs"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_negative_or_nan_entry_rejected(self, name, value):
        # NaN fails the same check: a completion time must never be NaN
        _, net = two_place_net()
        vec = np.array(getattr(net, name), dtype=float)
        vec[1] = value
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(net, **{name: vec})
        assert err.value.check == name
        assert str(err.value) == f"{name} must be nonnegative"

    @pytest.mark.parametrize("capacities", [[1, 1], [1, 0, 1], [1, 1, 1, 1]],
                             ids=["short", "zero", "long"])
    def test_capacities_need_one_entry_of_at_least_one_per_transition(
            self, capacities):
        _, net = two_place_net()
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(net, capacities=np.array(capacities))
        assert err.value.check == "capacities"

    # a vector of the wrong length goes under the check of a bad entry in it
    @pytest.mark.parametrize("check, build, message", [
        ("durations",
         lambda net: dataclasses.replace(net, durations=np.ones(2)),
         "durations must have one entry per transition"),
        ("costs", lambda net: dataclasses.replace(net, costs=np.ones(4)),
         "costs must have one entry per transition"),
        ("initial-tokens", lambda net: Marking.initial(net, [1]),
         "initial tokens must cover every place")],
        ids=["durations", "costs", "initial-tokens"])
    def test_wrong_length_filed_under_the_vector_check(self, check, build,
                                                       message):
        _, net = two_place_net()
        with pytest.raises(ValidationError) as err:
            build(net)
        assert err.value.check == check
        assert str(err.value) == message

    # one place can come to hold every token, so the total must fit too
    @pytest.mark.parametrize("tokens, message", [
        ([2 ** 63 - 1, 1], "initial token counts total 9223372036854775808, "
                           "more than 64 bits hold"),
        ([2 ** 64, 0], "initial token counts must fit in 64 bits")],
        ids=["total", "count"])
    def test_tokens_beyond_int64_rejected(self, tokens, message):
        _, net = two_place_net()
        with pytest.raises(ValidationError) as err:
            Marking.initial(net, tokens)
        assert err.value.check == "initial-tokens"
        assert str(err.value) == message

    @pytest.mark.parametrize("build, check, message", [
        (lambda net: dataclasses.replace(net, m_minus=net.m_minus[:1]),
         "structure", "m_minus has shape (1, 3), expected (2, 3)"),
        (lambda net: dataclasses.replace(net, m_plus=net.m_plus * [1, 1, 0]),
         "incidence-column-sums",
         "column 2 of m_plus sums to 0, expected exactly 1"),
        (lambda net: Marking.initial(net, [-1, 2]),
         "initial-tokens", "initial token counts must be nonnegative"),
        (lambda net: state_equation(net, Marking.initial(net, [0, 1]),
                                    np.zeros(2), np.zeros(3)),
         "structure", "firing vectors must have one entry per transition")],
        ids=["matrix-shape", "zero-column", "negative-count",
             "firing-vector-length"])
    def test_bad_input_rejected(self, build, check, message):
        _, net = two_place_net()
        with pytest.raises(ValidationError) as err:
            build(net)
        assert (err.value.check, str(err.value)) == (check, message)


def two_place_net():
    resources = [Resource("clinic", F),
                 Resource("outside clinic", M),
                 Resource("patient", N)]
    processes = [Process("treat", F),
                 Process("enter", N, origin=1, destination=0),
                 Process("exit", N, origin=0, destination=1)]
    model = StructuralModel.build(resources, processes,
                                  [(0, 0), (1, 2), (2, 2)])
    net = DeliveryNet.from_model(model, [1.0, 0.5, 0.5], [100.0, 0.0, 0.0])
    return model, net


class TestStep:
    def test_zero_firing_is_identity(self):
        _, net = two_place_net()
        marking = Marking.initial(net, [0, 1])
        zero = np.zeros(3, dtype=int)
        after = state_equation(net, marking, zero, zero)
        assert np.array_equal(after.place_tokens, marking.place_tokens)
        assert np.array_equal(after.busy_tokens, marking.busy_tokens)

    def test_enter_clinic_pulses_through_transition(self):
        model, net = two_place_net()
        enter = model.dof_list.index((1, 2))
        marking = Marking.initial(net, [0, 1])
        pulse = np.zeros(3, dtype=int)
        pulse[enter] = 1
        zero = np.zeros(3, dtype=int)
        started = state_equation(net, marking, pulse, zero)
        assert started.place_tokens.tolist() == [0, 0]
        assert started.busy_tokens[enter] == 1
        finished = state_equation(net, started, zero, pulse)
        assert finished.place_tokens.tolist() == [1, 0]
        assert finished.busy_tokens[enter] == 0

    def test_start_from_empty_place_rejected(self):
        model, net = two_place_net()
        enter = model.dof_list.index((1, 2))
        marking = Marking.initial(net, [1, 0])
        pulse = np.zeros(3, dtype=int)
        pulse[enter] = 1
        with pytest.raises(NotEnabledError) as err:
            state_equation(net, marking, pulse, np.zeros(3, dtype=int))
        assert "outside clinic" in str(err.value)

    def test_completion_without_start_rejected(self):
        _, net = two_place_net()
        marking = Marking.initial(net, [1, 1])
        pulse = np.zeros(3, dtype=int)
        pulse[0] = 1
        with pytest.raises(NotEnabledError) as err:
            state_equation(net, marking, np.zeros(3, dtype=int), pulse)
        assert "completion without start" in str(err.value)

    def test_index_firing_moves_one_token(self):
        model, net = two_place_net()
        enter = model.dof_list.index((1, 2))
        assert (net.origin[enter], net.destination[enter]) == (1, 0)
        marking = Marking.initial(net, [0, 1])
        started = step(net, marking, enter, "start")
        assert started.place_tokens.tolist() == [0, 0]
        assert started.busy_tokens.tolist() == [int(psi == enter)
                                                for psi in range(3)]
        finished = step(net, started, enter, "complete")
        assert finished.place_tokens.tolist() == [1, 0]
        assert finished.busy_tokens.sum() == 0
        # the input markings are left as they were
        assert marking.place_tokens.tolist() == [0, 1]
        assert started.busy_tokens[enter] == 1

    def test_index_firing_messages(self):
        model, net = two_place_net()
        enter = model.dof_list.index((1, 2))
        label = net.transitions[enter].label
        with pytest.raises(NotEnabledError) as err:
            step(net, Marking.initial(net, [1, 0]), enter, "start")
        assert str(err.value) == (
            f"transition {enter} ({label}) not enabled: place "
            f"'outside clinic' has no token to consume")
        with pytest.raises(NotEnabledError) as err:
            step(net, Marking.initial(net, [1, 1]), enter, "complete")
        assert str(err.value) == (
            f"completion without start: transition {enter} ({label}) "
            f"holds no token")

    @pytest.mark.parametrize("psi", [-1, 3])
    def test_out_of_range_transition_rejected(self, psi):
        _, net = two_place_net()
        with pytest.raises(ValidationError) as err:
            step(net, Marking.initial(net, [1, 1]), psi, "start")
        assert str(err.value) == (f"transition {psi} is out of range for a "
                                  f"net of 3 transitions")

    def test_unknown_kind_rejected(self):
        _, net = two_place_net()
        with pytest.raises(ValidationError) as err:
            step(net, Marking.initial(net, [1, 1]), 0, "stop")
        assert "unknown firing kind 'stop'" in str(err.value)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_index_step_equals_state_equation(seed, data):
    """One firing by index gives the marking, or the NotEnabledError
    message, of the state equation with the matching one-hot pulse."""
    net = random_delivery_net(np.random.default_rng(seed))
    counts = st.integers(0, 2)

    def tokens(n):
        return np.array(data.draw(st.lists(counts, min_size=n, max_size=n)),
                        dtype=int)

    marking = Marking(tokens(net.n_places), tokens(net.n_transitions))
    before = [array.copy() for array in marking]
    psi = data.draw(st.integers(0, net.n_transitions - 1))
    kind = data.draw(st.sampled_from(["start", "complete"]))
    pulse = np.zeros(net.n_transitions, dtype=int)
    pulse[psi] = 1
    pulses = (pulse, 0 * pulse) if kind == "start" else (0 * pulse, pulse)
    try:
        expected = state_equation(net, marking, *pulses)
    except NotEnabledError as exc:
        with pytest.raises(NotEnabledError) as err:
            step(net, marking, psi, kind)
        assert str(err.value) == str(exc)
    else:
        fired = step(net, marking, psi, kind)
        for got, want in zip(fired, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    for array, copy in zip(marking, before):
        assert np.array_equal(array, copy)


class TestSchedule:
    def test_pairs_and_ordering(self):
        model, net = two_place_net()
        enter, treat = model.dof_list.index((1, 2)), model.dof_list.index((0, 0))
        result = run_starts(model, net, Marking.initial(net, [0, 1]),
                            [(0.0, enter), (0.5, treat)])
        # the token entering at 0.5 is in the clinic for the start at 0.5
        assert [(row.index, row.kind, row.time) for row in result.trace
                if row.net == "delivery"] == [
            (enter, "start", 0.0),
            (enter, "complete", 0.5),
            (treat, "start", 0.5),
            (treat, "complete", 1.5)]

    def test_zero_duration_complete_follows_its_start(self):
        model = self_loop_model()
        net = DeliveryNet.from_model(model, [0.0], [0.0])
        result = run_starts(model, net, Marking.initial(net, [1]),
                            [(1.0, 0), (1.0, 0)])
        kinds = [row.kind for row in result.trace if row.net == "delivery"]
        assert kinds == ["start", "complete", "start", "complete"]


class TestSimulate:
    def test_empty_schedule(self):
        model, net = two_place_net()
        marking = Marking.initial(net, [1, 0])
        result = run_starts(model, net, marking, [])
        trajectory = result.delivery_trajectory
        assert len(trajectory) == 1
        assert trajectory[0].time == 0.0
        assert trajectory[0].place_tokens is marking.place_tokens
        assert result.final_marking is marking

    def test_infeasible_schedule_reports_context(self):
        model, net = two_place_net()
        enter = model.dof_list.index((1, 2))
        with pytest.raises(SimulationError) as err:
            run_starts(model, net, Marking.initial(net, [1, 0]),
                       [(2.0, enter)])
        assert "t=2.0" in str(err.value)
        assert (err.value.time, err.value.net, err.value.label) == \
            (2.0, "delivery", net.transitions[enter].label)
        assert isinstance(err.value.__cause__, NotEnabledError)

    def test_token_conservation_on_random_walks(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 40:
            net = random_delivery_net(rng)
            tokens = np.zeros(net.n_places, dtype=int)
            tokens[rng.integers(0, net.n_places)] = int(rng.integers(1, 3))
            initial = Marking.initial(net, tokens)
            records = random_feasible_schedule(rng, net, initial)
            if not records:
                continue
            done += 1
            markings = step_replay(net, records, initial)
            assert {marking.total for marking in markings} == \
                {initial.total}

    def test_replay_matches_walk_final_state(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            net = random_delivery_net(rng)
            tokens = np.ones(net.n_places, dtype=int)
            initial = Marking.initial(net, tokens)
            records = random_feasible_schedule(rng, net, initial, length=12)
            markings = step_replay(net, records, initial)
            starts = sum(1 for r in records if r.kind == "start")
            completes = len(records) - starts
            assert starts == completes
            assert markings[-1].busy_tokens.sum() == 0


class TestCumulativeCost:
    def test_zero_costs_stay_zero(self):
        model, net = two_place_net()
        net = dataclasses.replace(net, costs=np.zeros(3))
        enter, treat, exit_ = (model.dof_list.index((1, 2)),
                               model.dof_list.index((0, 0)),
                               model.dof_list.index((2, 2)))
        result = run_starts(model, net, Marking.initial(net, [0, 1]),
                            [(0.0, enter), (1.0, treat), (3.0, exit_)])
        assert all(cost == 0.0 for _, cost in result.cost_series)
        assert len(result.cost_series) == 4

    def test_repeated_firing_is_linear(self):
        model = self_loop_model()
        net = DeliveryNet.from_model(model, [1.0], [42.0])
        starts = [(float(2 * k), 0) for k in range(5)]
        result = run_starts(model, net, Marking.initial(net, [1]), starts)
        assert result.cost_series[-1][1] == 5 * 42.0

    def test_non_decreasing_and_total(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            model = random_model(rng)
            net = random_delivery_net(rng, model)
            # the walk holds tokens longer than the kernel and ignores
            # capacities, so lift them
            net = dataclasses.replace(
                net, capacities=np.full(net.n_transitions, 1000))
            tokens = np.ones(net.n_places, dtype=int)
            initial = Marking.initial(net, tokens)
            records = random_feasible_schedule(rng, net, initial)
            starts = [(r.time, r.psi) for r in records
                      if r.kind == "start"]
            result = run_starts(model, net, initial, starts)
            values = [cost for _, cost in result.cost_series]
            assert values == sorted(values)
            counts = np.zeros(net.n_transitions)
            for _, psi in starts:
                counts[psi] += 1
            assert np.array_equal(
                completion_counts(result, net.n_transitions), counts)
            assert values[-1] == pytest.approx(float(net.costs @ counts),
                                               abs=0)
