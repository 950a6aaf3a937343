"""Fidelity checks for the two bundled case-study scenarios."""

import numpy as np

from carenets.coordination import HealthAction
from carenets.health import HealthEventKind, HealthMarking

from helpers import run_health_actions


class TestAcuteFixture:
    def test_incidence_shape_and_column_sums(self, acute):
        assert acute.net.m_minus.shape == (6, 36)
        assert acute.net.m_plus.shape == (6, 36)
        for matrix in (acute.net.m_minus, acute.net.m_plus):
            assert np.array_equal(matrix.sum(axis=0), np.ones(36, dtype=int))

    def test_transport_budget(self, acute):
        transports = [p for p in acute.model.processes if p.is_transport]
        non_transport_dofs = [
            (w, v) for w, v in acute.model.dof_list
            if not acute.model.processes[w].is_transport]
        assert len(transports) == 22
        assert len(non_transport_dofs) == 14

    def test_health_net_is_a_serial_loop(self, acute):
        net = acute.individuals[0].net
        assert net.n_states == 5
        healthy = net.state_index("healthy")
        assert net.values[healthy] == 1.0
        # every event consumes one state and produces one state
        assert np.array_equal(net.m_minus.sum(axis=0), np.ones(5))
        assert set(np.unique(net.m_minus)) <= {0.0, 1.0}
        assert set(np.unique(net.m_plus)) <= {0.0, 1.0}
        # the last event cycles back to the healthy state
        restore = net.event_index("Restore knee function")
        assert net.m_plus[healthy, restore] == 1.0

    def test_replay_outcome_recovers_fully(self, acute):
        result = acute.run(mode="replay")
        series = [value for _, _, value in result.outcome_series]
        assert series[0] == 1.0
        assert min(series) < 0.5
        assert series[-1] == 1.0


class TestChronicFixture:
    def test_declares_exactly_seven_capabilities(self, chronic_doc, chronic):
        assert len(chronic_doc.data["knowledge_base"]) == 7
        assert chronic.model.knowledge.count == 7
        assert chronic.model.dof_count == 7

    def test_available_transport_is_enter_and_exit(self, chronic):
        model = chronic.model
        transports = {model.processes[w].name for w, _ in model.dof_list
                      if model.processes[w].is_transport}
        assert transports == {"Enter clinic", "Exit clinic"}

    def test_replay_realizes_narrative_branch(self, chronic):
        result = chronic.run(mode="replay")
        net = chronic.individuals[0].net
        final = result.final_health["patient"]
        asymptomatic = net.state_index("asymptomatic")
        assert final.state_mass[asymptomatic] == 1.0
        assert result.skipped_actions == 0

    def test_outcome_series_dips_then_partially_recovers(self, chronic):
        result = chronic.run(mode="replay")
        series = [value for _, _, value in result.outcome_series]
        assert series[0] == 1.0
        assert min(series) < 0.4
        assert 0.0 < series[-1] < 1.0

    def test_stochastic_events_have_no_delivery_pair(self, chronic):
        result = chronic.run(mode="replay")
        onset_rows = [row for row in result.trace
                      if row.label == "Develop occipital tumor"]
        assert onset_rows and all(row.net == "health:patient"
                                  for row in onset_rows)
        delivery_times = {row.time for row in result.trace
                          if row.net == "delivery"}
        assert not any(row.time in delivery_times for row in onset_rows)

    def test_transformation_starts_pair_with_health_starts(self, chronic):
        result = chronic.run(mode="replay")
        transform_labels = {"Perform surgical resection @ neurosurgery",
                            "Perform radiation & chemotherapy treatment "
                            "@ oncology"}
        health_start_times = {row.time for row in result.trace
                              if row.net == "health:patient"
                              and row.kind == "start"}
        for row in result.trace:
            if row.net == "delivery" and row.kind == "start" \
                    and row.label in transform_labels:
                assert row.time in health_start_times

    def test_spontaneous_branching_event_sampling(self, chronic):
        # route a branching stochastic event through the spontaneous path
        net = chronic.individuals[0].net
        therapy = net.event_index(
            "Treat residual disease after near-total resection")
        spontaneous = net.events[therapy].__class__(
            therapy, "spontaneous variant", HealthEventKind.STOCHASTIC)
        events = list(net.events)
        events[therapy] = spontaneous
        variant = net.__class__(net.state_names, tuple(events), net.m_minus,
                                net.m_plus, net.values)
        counts = {}
        n = 4000
        for seed in range(n):
            marking = HealthMarking.point(variant, "near-total resection")
            result = run_health_actions(variant, marking,
                                        [HealthAction(0.0, "p", (therapy,))],
                                        mode="sample", seed=seed)
            after = result.final_health["p"].state_mass
            (realized,) = np.nonzero(after)[0]
            counts[int(realized)] = counts.get(int(realized), 0) + 1
            assert after[realized] == 1.0
        for state, count in counts.items():
            assert abs(count / n - 0.25) < 0.03
