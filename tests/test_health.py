import numpy as np
import pytest

from carenets.coordination import HealthAction
from carenets.delivery import Marking, state_equation
from carenets.errors import NotEnabledError, SimulationError, ValidationError
from carenets.health import (HealthEvent, HealthEventKind, HealthMarking,
                             HealthNet, apply_completion, check_unit_mass,
                             fuzzy_step, health_outcome, resolve_output,
                             sample_branch, start_event)

from helpers import (random_delivery_net, random_feasible_schedule,
                     random_health_net, random_health_walk,
                     run_health_actions)

STOCH = HealthEventKind.STOCHASTIC
INDUCED = HealthEventKind.INDUCED


def resection_net(kind=INDUCED):
    """Four states, one branching event with equal outcome weights."""
    states = ("sick", "good outcome", "fair outcome", "poor outcome")
    events = (HealthEvent("operate", kind,
                          realized_by=("surgery",) if kind is INDUCED
                          else ()),)
    m_minus = np.array([[1.0], [0.0], [0.0], [0.0]])
    third = 1.0 / 3.0
    m_plus = np.array([[0.0], [third], [third], [third]])
    values = np.array([0.2, 1.0, 0.7, 0.4])
    return HealthNet(states, events, m_minus, m_plus, values)


def chain_net():
    states = ("a", "b", "c")
    events = (HealthEvent("forward", STOCH),
              HealthEvent("onward", STOCH))
    m_minus = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    m_plus = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return HealthNet(states, events, m_minus, m_plus,
                     np.array([1.0, 0.5, 0.0]))


class TestFuzzyStep:
    def test_zero_firing_is_identity(self):
        net = chain_net()
        marking = HealthMarking.point(net, "a")
        after = fuzzy_step(net, marking, np.zeros(2), np.zeros(2))
        assert np.array_equal(after.state_mass, marking.state_mass)
        assert np.array_equal(after.event_mass, marking.event_mass)

    def test_equal_branch_weights_split_mass(self):
        net = resection_net()
        marking = HealthMarking.point(net, "sick")
        pulse = np.array([1.0])
        started = fuzzy_step(net, marking, pulse, np.zeros(1))
        assert started.state_mass.sum() == pytest.approx(0.0, abs=1e-12)
        assert started.event_mass[0] == 1.0
        finished = fuzzy_step(net, started, np.zeros(1), pulse)
        assert finished.state_mass[1:].tolist() == pytest.approx(
            [1 / 3, 1 / 3, 1 / 3])
        assert finished.event_mass[0] == 0.0

    def test_not_enabled_names_event(self):
        net = chain_net()
        marking = HealthMarking.point(net, "a")
        pulse = np.zeros(2)
        pulse[1] = 1.0
        with pytest.raises(NotEnabledError) as err:
            fuzzy_step(net, marking, pulse, np.zeros(2))
        assert "onward" in str(err.value)

    def test_completion_beyond_in_flight_mass_rejected(self):
        net = chain_net()
        marking = HealthMarking.point(net, "a")
        with pytest.raises(NotEnabledError):
            fuzzy_step(net, marking, np.zeros(2), np.array([0.5, 0.0]))

    def test_mass_conserved_on_random_walks(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            net = random_health_net(rng)
            marking = HealthMarking.point(net, 0)
            total0 = marking.total_mass
            for u_minus, u_plus in random_health_walk(rng, net, marking):
                marking = fuzzy_step(net, marking, u_minus, u_plus)
                assert abs(marking.total_mass - total0) < 1e-9
                assert marking.state_mass.min() > -1e-9
                assert marking.state_mass.max() < 1 + 1e-9

    def test_degenerate_weights_equal_integer_dynamics(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            net = random_delivery_net(rng)
            fuzzy = HealthNet(
                tuple(net.place_names),
                tuple(HealthEvent(f"e{i}", STOCH)
                      for i in range(net.n_transitions)),
                net.m_minus.astype(float), net.m_plus.astype(float),
                np.zeros(net.n_places))
            tokens = np.ones(net.n_places, dtype=int)
            marking = Marking.initial(net, tokens)
            hmarking = HealthMarking(tokens.astype(float),
                                     np.zeros(net.n_transitions))
            for record in random_feasible_schedule(rng, net, marking):
                pulse = np.zeros(net.n_transitions, dtype=int)
                pulse[record.psi] = 1
                if record.kind == "start":
                    marking = state_equation(net, marking, pulse, 0 * pulse)
                    hmarking = fuzzy_step(fuzzy, hmarking,
                                          pulse.astype(float),
                                          np.zeros(net.n_transitions))
                else:
                    marking = state_equation(net, marking, 0 * pulse, pulse)
                    hmarking = fuzzy_step(fuzzy, hmarking,
                                          np.zeros(net.n_transitions),
                                          pulse.astype(float))
                assert np.array_equal(
                    marking.place_tokens.astype(float), hmarking.state_mass)
                assert np.array_equal(
                    marking.busy_tokens.astype(float), hmarking.event_mass)


def fuzzy_pulse(net, event, magnitude):
    pulse = np.zeros(net.n_events)
    pulse[event] = magnitude
    return pulse


def assert_same_marking(a, b):
    assert np.array_equal(a.state_mass, b.state_mass)
    assert np.array_equal(a.event_mass, b.event_mass)


class TestStartEvent:
    """``start_event`` and ``apply_completion``, the column forms the
    kernel uses, against ``fuzzy_step`` with the equivalent vectors."""

    def test_column_form_matches_fuzzy_step_on_random_walks(self):
        rng = np.random.default_rng(5)
        steps = 0
        for _ in range(80):
            net = random_health_net(rng)
            # a unit in every state keeps unit starts enabled after
            # completions have spread mass over several states
            marking = HealthMarking(np.ones(net.n_states),
                                    np.zeros(net.n_events))
            for u_minus, u_plus in random_health_walk(rng, net, marking,
                                                      unit=True):
                expected = fuzzy_step(net, marking, u_minus, u_plus)
                if u_minus.any():
                    (event,) = np.flatnonzero(u_minus)
                    marking = start_event(net, marking, event)
                else:
                    (event,) = np.flatnonzero(u_plus)
                    marking = apply_completion(net, marking, event,
                                               net.m_plus[:, event])
                assert_same_marking(marking, expected)
                steps += 1
        assert steps > 300

    @pytest.mark.parametrize("name", ["acute", "chronic"])
    def test_matches_fuzzy_step_from_every_point_marking(self, request,
                                                          name):
        fired = refused = 0
        for individual in request.getfixturevalue(name).individuals:
            net = individual.net
            for state in range(net.n_states):
                marking = HealthMarking.point(net, state)
                for event in range(net.n_events):
                    pulse = fuzzy_pulse(net, event, 1.0)
                    zero = np.zeros(net.n_events)
                    try:
                        expected = fuzzy_step(net, marking, pulse, zero)
                    except NotEnabledError:
                        with pytest.raises(NotEnabledError):
                            start_event(net, marking, event)
                        refused += 1
                        continue
                    started = start_event(net, marking, event)
                    assert_same_marking(started, expected)
                    column = resolve_output(net, event)
                    assert_same_marking(
                        apply_completion(net, started, event, column),
                        fuzzy_step(net, expected, zero, pulse))
                    fired += 1
        assert fired and refused

    def test_not_enabled_names_event_and_state(self):
        net = chain_net()
        with pytest.raises(NotEnabledError) as err:
            start_event(net, HealthMarking.point(net, "a"), 1)
        assert str(err.value) == \
            "health event 'onward' not enabled: state 'b' lacks mass"


class TestOutcome:
    def test_all_ones_values(self):
        net = chain_net()
        marking = HealthMarking.from_distribution(net, {"a": 0.25, "b": 0.75})
        assert health_outcome(np.ones(3), marking.state_mass) == 1.0

    def test_worthless_state(self):
        net = chain_net()
        marking = HealthMarking.point(net, "c")
        assert health_outcome(net.values, marking.state_mass) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            health_outcome(np.ones(3), np.ones(2))

    def test_bounds_on_random_markings(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            net = random_health_net(rng)
            mass = rng.random(net.n_states)
            mass /= mass.sum()
            value = health_outcome(net.values,
                                   mass)
            assert 0.0 <= value <= 1.0


class TestStochasticFiring:
    def test_induced_event_rejected(self):
        net = resection_net()
        marking = HealthMarking.point(net, "sick")
        with pytest.raises(ValidationError) as err:
            run_health_actions(net, marking, [HealthAction(0.0, "p", (0,))])
        assert "cannot be scheduled directly" in str(err.value)

    def test_replay_moves_full_mass_over_branches(self):
        net = resection_net(STOCH)
        marking = HealthMarking.point(net, "sick")
        result = run_health_actions(net, marking,
                                    [HealthAction(4.0, "p", (0,))])
        assert result.final_health["p"].state_mass.tolist() == \
            pytest.approx([0.0, 1 / 3, 1 / 3, 1 / 3])
        assert [(row.time, row.kind) for row in result.trace] == [
            (4.0, "start"), (4.0, "complete")]

    def test_replay_with_named_outcome(self):
        net = resection_net(STOCH)
        marking = HealthMarking.point(net, "sick")
        result = run_health_actions(net, marking,
                                    [HealthAction(0.0, "p", (0,),
                                                  outcome=2)])
        assert result.final_health["p"].state_mass.tolist() == \
            [0.0, 0.0, 1.0, 0.0]

    def test_outcome_outside_support_rejected(self):
        net = chain_net()
        with pytest.raises(ValidationError):
            resolve_output(net, 0, outcome=2)

    def test_not_enabled(self):
        net = chain_net()
        marking = HealthMarking.point(net, "c")
        with pytest.raises(SimulationError) as err:
            run_health_actions(net, marking, [HealthAction(0.0, "p", (0,))])
        assert isinstance(err.value.__cause__, NotEnabledError)
        assert (err.value.net, err.value.label) == ("health:p", "forward")

    def test_seeded_draws_are_reproducible(self):
        net = resection_net()
        first = [sample_branch(net, 0, np.random.default_rng(99))
                 for _ in range(10)]
        second = [sample_branch(net, 0, np.random.default_rng(99))
                  for _ in range(10)]
        assert first == second

    def test_single_branch_always_selected(self):
        net = chain_net()
        rng = np.random.default_rng(1)
        assert all(sample_branch(net, 0, rng) == 1 for _ in range(20))

    def test_sampled_frequencies_match_weights(self):
        net = resection_net()
        rng = np.random.default_rng(7)
        counts = np.zeros(4)
        n = 20_000
        for _ in range(n):
            counts[sample_branch(net, 0, rng)] += 1
        assert counts[0] == 0
        for branch in (1, 2, 3):
            assert abs(counts[branch] / n - 1 / 3) < 0.02


class TestValidation:
    def test_column_sum_below_one_rejected(self):
        with pytest.raises(ValidationError) as err:
            HealthNet(("a", "b"),
                      (HealthEvent("e", STOCH),),
                      np.array([[1.0], [0.0]]),
                      np.array([[0.0], [0.9]]),
                      np.array([1.0, 0.0]))
        assert err.value.check == "health-event-normalization"

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            HealthNet(("a", "b"),
                      (HealthEvent("e", STOCH),),
                      np.array([[1.0], [0.0]]),
                      np.array([[0.0], [1.0]]),
                      np.array([1.0, 1.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target, check", [
        ("m_minus", "health-event-normalization"),
        ("m_plus", "health-event-normalization"),
        ("values", "health-values")])
    def test_non_finite_entry_rejected(self, target, check, value):
        arrays = {"m_minus": np.array([[1.0], [0.0]]),
                  "m_plus": np.array([[0.0], [1.0]]),
                  "values": np.array([1.0, 0.0])}
        arrays[target][1] = value
        with pytest.raises(ValidationError) as err:
            HealthNet(("a", "b"), (HealthEvent("e", STOCH),), **arrays)
        assert err.value.check == check

    def test_values_of_wrong_length_filed_under_health_values(self):
        with pytest.raises(ValidationError) as err:
            HealthNet(("a", "b"), (HealthEvent("e", STOCH),),
                      np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                      np.array([1.0, 0.0, 0.5]))
        assert err.value.check == "health-values"
        assert str(err.value) == "value vector must have one entry per state"

    def test_induced_without_realizer_rejected(self):
        with pytest.raises(ValidationError):
            HealthNet(("a", "b"),
                      (HealthEvent("e", INDUCED),),
                      np.array([[1.0], [0.0]]),
                      np.array([[0.0], [1.0]]),
                      np.array([1.0, 0.0]))

    @pytest.mark.parametrize("states, names, repeated", [
        (("a", "a"), ("e", "f"), "state 'a'"),
        (("a", "b"), ("e", "e"), "event 'e'")])
    def test_duplicate_names_rejected(self, states, names, repeated):
        events = tuple(HealthEvent(name, STOCH) for name in names)
        with pytest.raises(ValidationError) as err:
            HealthNet(states, events, np.eye(2), np.eye(2)[::-1],
                      np.array([1.0, 0.0]))
        assert err.value.check == "health-states"
        assert str(err.value) == f"duplicate health {repeated}"

    def test_negative_duration_rejected_under_durations(self):
        events = (HealthEvent("e", STOCH, duration=-1.0),)
        with pytest.raises(ValidationError) as err:
            HealthNet(("a", "b"), events, np.array([[1.0], [0.0]]),
                      np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        assert err.value.check == "durations"

    def test_nan_duration_rejected_under_durations(self):
        # a completion time must never be NaN
        events = (HealthEvent("e", STOCH, duration=float("nan")),)
        with pytest.raises(ValidationError) as err:
            HealthNet(("a", "b"), events, np.array([[1.0], [0.0]]),
                      np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
        assert err.value.check == "durations"
        assert str(err.value) == "event 'e' has negative duration"

    def test_column_sum_prints_as_a_float(self):
        with pytest.raises(ValidationError) as err:
            HealthNet(("a", "b"), (HealthEvent("e", STOCH),),
                      np.array([[1.0], [0.0]]), np.array([[0.0], [0.5]]),
                      np.array([1.0, 0.0]))
        assert str(err.value) == "column 0 ('e') of m_plus sums to 0.5, " \
                                 "expected 1"

    @pytest.mark.parametrize("build, check, message", [
        (lambda: HealthNet(("a", "b"), (HealthEvent("e", STOCH),),
                           np.array([[1.0], [0.0], [0.0]]),
                           np.array([[0.0], [1.0]]), np.array([1.0, 0.0])),
         "structure", "m_minus has shape (3, 1), expected (2, 1)"),
        (lambda: HealthNet(("a", "b"),
                           (HealthEvent("e", STOCH, realized_by=("cure",)),),
                           np.array([[1.0], [0.0]]),
                           np.array([[0.0], [1.0]]), np.array([1.0, 0.0])),
         "feasibility-tags",
         "stochastic event 'e' must not name realizing processes"),
        (lambda: check_unit_mass(HealthMarking(np.array([1.5, -0.5, 0.0]),
                                               np.zeros(2))),
         "initial-mass", "health marking has negative mass"),
        (lambda: fuzzy_step(chain_net(), HealthMarking.point(chain_net(), "a"),
                            np.zeros(3), np.zeros(2)),
         "structure", "firing vectors must have one entry per event")],
        ids=["matrix-shape", "stochastic-realizer", "negative-mass",
             "firing-vector-length"])
    def test_bad_input_rejected(self, build, check, message):
        with pytest.raises(ValidationError) as err:
            build()
        assert (err.value.check, str(err.value)) == (check, message)

    def test_unit_mass_check(self):
        net = chain_net()
        check_unit_mass(HealthMarking.point(net, "a"))
        with pytest.raises(ValidationError):
            check_unit_mass(HealthMarking(np.array([0.5, 0.0, 0.0]),
                                          np.zeros(2)))

    def test_apply_completion_validates_in_flight_mass(self):
        net = chain_net()
        marking = HealthMarking.point(net, "a")
        column = np.array([0.0, 1.0, 0.0])
        with pytest.raises(NotEnabledError):
            apply_completion(net, marking, 0, column)
