"""Self-tests of the benchmark: cohort generator, tracer, output checks.

Run from the repository root:

    PYTHONPATH=src python -m pytest carebench -q
"""

import json
from pathlib import Path

import pytest

from carenets import cli, scenario

import cohort
import tracer
from run import Tally, run_pass
from workloads import (CHRONIC_COST, CHRONIC_EVENTS, AcuteMonteCarlo,
                       CohortChronic, FixturesCli, Op)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "carenets" / "fixtures"
CHRONIC = FIXTURES / "chronic_neuro_oncology.json"
ACUTE = FIXTURES / "acute_acl.json"


def small_cohort(tmp_path, n=3, seed=11):
    return cohort.write_cohort(CHRONIC, tmp_path / "cohort.json", n, seed)


def test_cohort_validates_and_yields_exact_totals(tmp_path):
    path = small_cohort(tmp_path)
    report = scenario.validate_file(path)
    assert [r.status for r in report.results] == ["pass"] * len(
        scenario.CHECKS)

    compiled = scenario.compile_scenario(scenario.load_scenario(path))
    result = compiled.run(mode="replay")
    assert len(result.trace) == CHRONIC_EVENTS * 3
    assert result.cost_series[-1][1] == CHRONIC_COST * 3
    assert result.final_marking.place_tokens.tolist() == [3, 0]
    assert result.final_marking.busy_tokens.sum() == 0
    single = scenario.compile_scenario(scenario.load_scenario(CHRONIC))
    expected = single.run(mode="replay").outcome_series[-1][2]
    finals = {}
    for _, individual, outcome in result.outcome_series:
        finals[individual] = outcome
    assert sorted(finals) == ["patient-0000", "patient-0001", "patient-0002"]
    assert set(finals.values()) == {expected}
    labels = [t.label for t in compiled.net.transitions]
    assert sorted(json.loads(path.read_text())["transition_capacities"]) \
        == sorted(labels)


def test_cohort_is_a_function_of_the_seed():
    fixture = json.loads(CHRONIC.read_text())
    assert cohort.build_cohort(fixture, 5, 3) == \
        cohort.build_cohort(fixture, 5, 3)
    assert cohort.build_cohort(fixture, 5, 3) != \
        cohort.build_cohort(fixture, 5, 4)
    times = [e["time"] for e in cohort.build_cohort(fixture, 50, 3)[
        "schedule"]]
    assert times == sorted(times)
    assert all(t * cohort.OFFSET_STEP == int(t * cohort.OFFSET_STEP)
               for t in times)


def test_tracer_restores_every_binding(tmp_path):
    before = tracer.bindings()
    with tracer.Tracer() as spans:
        assert all(vars(owner)[attr] is not raw
                   for owner, attr, raw in before)
        assert cli.main(["simulate", str(ACUTE), "--mode", "sample",
                         "--runs", "4", "--out", str(tmp_path / "out")]) == 0
    after = tracer.bindings()
    assert [(o, a) for o, a, _ in before] == [(o, a) for o, a, _ in after]
    assert all(raw is again for (_, _, raw), (_, _, again)
               in zip(before, after))
    assert spans.spans


def test_replicate_spans_nest_under_the_pool(tmp_path):
    with tracer.Tracer() as spans:
        cli.main(["simulate", str(ACUTE), "--mode", "sample", "--runs", "8",
                  "--out", str(tmp_path / "out")])
    (pool,) = [s for s in spans.spans if s.name == "reports.simulate_to_dir"]
    replicates = [s for s in spans.spans
                  if s.name == "scenario.CompiledScenario.run"]
    assert len(replicates) == 8
    assert all(s.parent == pool.id for s in replicates)
    assert all(pool.start <= s.start and s.end <= pool.end
               for s in replicates)
    selfs = tracer.self_times(spans.spans)
    assert 0 <= selfs[pool.id] <= pool.duration


def test_traced_acute_replay_counts(tmp_path):
    bench = FixturesCli(ROOT, tmp_path, seed=1)
    bench.setup()
    ops = [Op(kind, "acute") for kind in ("validate", "dof", "simulate",
                                          "run")]
    tally = Tally()
    with tracer.Tracer() as spans:
        seconds = run_pass(bench, ops, tally, record=False, tracer=spans)
    assert tally.failed == 0
    m = tracer.layer_metrics(spans.spans, ops, 1, [seconds], [seconds],
                             tally.sizes)
    assert m["coordination.events"] == 70
    assert m["coordination.coupling_checks"] == 30
    assert m["delivery.step_calls"] == 2 * 30
    assert [m[f"scenario.compile_passes.{kind}"]
            for kind in ("validate", "dof", "simulate")] == [1, 2, 2]
    assert [m[f"structure.build_calls.{kind}"]
            for kind in ("validate", "dof", "simulate")] == [1, 2, 2]
    assert m["reports.files_written"] == 4


@pytest.mark.parametrize("workload", [FixturesCli, AcuteMonteCarlo])
def test_workload_checks_pass_on_the_program(tmp_path, workload):
    bench = workload(ROOT, tmp_path, seed=5)
    bench.prepare()
    bench.setup()
    tally = Tally()
    ops = bench.cycle()
    run_pass(bench, ops, tally, record=True)
    assert (tally.attempted, tally.failed) == (len(ops), 0)
    assert not any((tmp_path / "out").iterdir())


def test_cohort_checks_pass_and_catch_a_wrong_total(tmp_path):
    bench = CohortChronic(ROOT, tmp_path, seed=2, n=4)
    bench.prepare()
    bench.setup()
    tally = Tally()
    run_pass(bench, bench.cycle(), tally, record=True)
    assert tally.failed == 0
    bench.n = 5
    result = bench.compiled["cohort"].run(mode="replay")
    assert bench.check(Op("run", "cohort"), None, result)[0]
