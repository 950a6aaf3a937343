"""Acceptance suite: one test per release criterion.

Each test pins its tolerance and prints a single pass line so a full run
reads as a checklist. Timing-limited criteria assert wall-clock bounds.
"""

import filecmp
import time

import numpy as np
import pytest

from carenets.delivery import (DeliveryNet, Marking, build_incidence_in,
                               build_incidence_out, step)
from carenets.health import (HealthEvent, HealthEventKind, HealthMarking,
                             HealthNet, fuzzy_step, sample_branch)
from carenets.scenario import compile_scenario, load_scenario
from carenets.reports import simulate_to_dir

from helpers import (ACUTE, CHRONIC, assert_coupled_and_conserved,
                     completion_counts, observe, oracle_incidence,
                     point_totals, random_delivery_net, random_feasible_schedule,
                     random_health_net, random_health_walk, random_model,
                     step_replay)


def report(criterion: str) -> None:
    print(f"PASS  {criterion}")


def test_criterion_01_dof_reproduction(acute_doc, chronic_doc):
    started = time.perf_counter()
    acute = compile_scenario(acute_doc)
    acute_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    chronic = compile_scenario(chronic_doc)
    chronic_elapsed = time.perf_counter() - started

    assert acute.model.dof_count == 36
    assert chronic.model.dof_count == 7
    assert acute_elapsed < 0.1 and chronic_elapsed < 0.1
    report(f"criterion 1: degrees of freedom 36/7 "
           f"({acute_elapsed * 1000:.1f} ms / {chronic_elapsed * 1000:.1f} "
           f"ms)")


def test_criterion_02_chronic_aggregation(chronic):
    names = set(chronic.model.aggregation.names)
    assert names == {"healthcare clinic", "outside clinic"}
    assert set(chronic.net.place_names) == names
    report("criterion 2: chronic aggregation to clinic and outside")


def test_criterion_03_incidence_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for _ in range(200):
        model = random_model(rng, max_buffers=4, max_processes=6,
                             constrain=True)
        expect_minus, expect_plus = oracle_incidence(model)
        assert np.array_equal(build_incidence_out(model), expect_minus)
        assert np.array_equal(build_incidence_in(model), expect_plus)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"criterion 3: incidence equals per-capability oracle on 200 "
           f"random models ({elapsed:.2f} s)")


def test_criterion_04_token_conservation(acute, chronic):
    for compiled in (acute, chronic):
        result = compiled.run(mode="replay")
        totals = set(point_totals(result, compiled.initial))
        assert totals == {compiled.initial.total}
        assert result.final_marking.total == compiled.initial.total

    rng = np.random.default_rng(404)
    checked = 0
    while checked < 100:
        net = random_delivery_net(rng)
        tokens = np.zeros(net.n_places, dtype=int)
        tokens[rng.integers(0, net.n_places)] = int(rng.integers(1, 3))
        initial = Marking.initial(net, tokens)
        records = random_feasible_schedule(rng, net, initial)
        if not records:
            continue
        checked += 1
        for marking in step_replay(net, records, initial):
            assert marking.total == initial.total
    report("criterion 4: token conservation on both replays and 100 "
           "random schedules")


def test_criterion_05_health_mass_conservation(chronic):
    observed = observe(lambda: chronic.run(mode="replay"))
    assert observed.produced, "replay must touch the health net"
    for marking in observed.produced:
        assert abs(marking.total_mass - 1.0) < 1e-9

    rng = np.random.default_rng(505)
    for _ in range(100):
        net = random_health_net(rng)
        marking = HealthMarking.point(net, 0)
        for u_minus, u_plus in random_health_walk(rng, net, marking):
            marking = fuzzy_step(net, marking, u_minus, u_plus)
            assert abs(marking.total_mass - 1.0) < 1e-9
    report("criterion 5: health mass within 1e-9 of one at every step")


def test_criterion_06_degenerate_equivalence():
    rng = np.random.default_rng(606)
    for _ in range(50):
        net = random_delivery_net(rng)
        fuzzy = HealthNet(
            tuple(net.place_names),
            tuple(HealthEvent(f"event {i}", HealthEventKind.STOCHASTIC)
                  for i in range(net.n_transitions)),
            net.m_minus.astype(float), net.m_plus.astype(float),
            np.zeros(net.n_places))
        tokens = np.ones(net.n_places, dtype=int)
        marking = Marking.initial(net, tokens)
        hmarking = HealthMarking(tokens.astype(float),
                                 np.zeros(net.n_transitions))
        for record in random_feasible_schedule(rng, net, marking):
            pulse = np.zeros(net.n_transitions)
            pulse[record.psi] = 1.0
            zero = np.zeros(net.n_transitions)
            marking = step(net, marking, record.psi, record.kind)
            hmarking = fuzzy_step(fuzzy, hmarking,
                                  *((pulse, zero) if record.kind == "start"
                                    else (zero, pulse)))
            assert np.array_equal(marking.place_tokens.astype(float),
                                  hmarking.state_mass)
            assert np.array_equal(marking.busy_tokens.astype(float),
                                  hmarking.event_mass)
    report("criterion 6: weight-one fuzzy dynamics equal integer dynamics "
           "exactly")


def test_criterion_07_replay_fidelity(acute, chronic):
    result = acute.run(mode="replay")
    outside = list(acute.net.place_names).index("outside clinic")
    tokens = result.final_marking.place_tokens
    assert tokens[outside] == 1 and tokens.sum() == 1
    assert result.final_marking.busy_tokens.sum() == 0
    assert result.outcome_series[-1][2] == 1.0

    result = chronic.run(mode="replay")
    completions = {}
    for row in result.trace:
        if row.net == "delivery" and row.kind == "complete":
            label = chronic.net.transitions[row.index].label
            completions[label] = completions.get(label, 0) + 1
    assert completions["Enter clinic @ patient"] == 6
    assert completions["Exit clinic @ patient"] == 6
    report("criterion 7: acute replay ends healthy outside; chronic replay "
           "makes six visits")


def test_criterion_08_cost_staircase(acute, chronic):
    for compiled in (acute, chronic):
        result = compiled.run(mode="replay")
        values = [cost for _, cost in result.cost_series]
        assert values == sorted(values)
        expected = float(compiled.net.costs @ completion_counts(
            result, compiled.net.n_transitions))
        assert values[-1] == expected

        free = DeliveryNet(compiled.net.place_names,
                           compiled.net.transitions,
                           compiled.net.m_minus, compiled.net.m_plus,
                           compiled.net.durations,
                           np.zeros(compiled.net.n_transitions),
                           compiled.net.capacities)
        from carenets.coordination import cosimulate
        zero_run = cosimulate(free, compiled.initial, compiled.individuals,
                              compiled.selector, compiled.delivery_actions,
                              compiled.health_actions, mode="replay")
        assert all(cost == 0.0 for _, cost in zero_run.cost_series)
    report("criterion 8: cost staircase is monotone, totals exactly, and "
           "zero costs stay zero")


def test_criterion_09_coupling_residual(acute, chronic):
    for compiled in (acute, chronic):
        observed = observe(lambda: compiled.run(mode="replay"))
        starts = [row for row in observed.result.trace
                  if (row.net, row.kind) == ("delivery", "start")]
        assert len(starts) == len(compiled.delivery_actions)
        assert assert_coupled_and_conserved(
            compiled.individuals, compiled.selector, observed) > 0
    report("criterion 9: induced firing reproduces engagements exactly on "
           "every step")


def test_criterion_10_monte_carlo_calibration(chronic):
    net = chronic.individuals[0].net
    resection = [ev.name for ev in net.events].index("Resect tumor")
    branches = {net.state_index("gross-total resection"),
                net.state_index("near-total resection"),
                net.state_index("sub-total resection")}
    rng = np.random.default_rng(1010)
    counts = {}
    n = 100_000
    started = time.perf_counter()
    for _ in range(n):
        state = sample_branch(net, resection, rng)
        counts[state] = counts.get(state, 0) + 1
    elapsed = time.perf_counter() - started
    assert set(counts) == branches
    for state in branches:
        assert abs(counts[state] / n - 1 / 3) < 0.01
    assert elapsed < 10.0
    report(f"criterion 10: resection branches each within 0.01 of one "
           f"third over {n} samples ({elapsed:.2f} s)")


def test_criterion_11_determinism(tmp_path, chronic_doc, acute_doc):
    for doc, name in ((chronic_doc, "chronic"), (acute_doc, "acute")):
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        simulate_to_dir(doc, mode="sample", seed=42, out_dir=first)
        simulate_to_dir(doc, mode="sample", seed=42, out_dir=second)
        for file in ("trace.csv", "delivery.csv", "outcomes.csv",
                     "summary.txt"):
            assert filecmp.cmp(first / file, second / file, shallow=False), \
                f"{name}/{file} differs between identical runs"
    report("criterion 11: identical scenario, flags, and seed give "
           "byte-identical outputs")
