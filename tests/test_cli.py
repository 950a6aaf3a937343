import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carenets.cli import main
from carenets.scenario import compile_scenario, load_scenario

from helpers import ACUTE, CHRONIC


def read(path):
    return path.read_text(encoding="utf-8")


class TestValidateCommand:
    def test_passing_scenario_exits_zero(self, capsys):
        assert main(["validate", str(ACUTE)]) == 0
        out = capsys.readouterr().out
        assert "PASS  knowledge-block-mask" in out
        assert "FAIL" not in out

    def test_failing_scenario_exits_one(self, tmp_path, capsys):
        data = json.loads(read(CHRONIC))
        data["knowledge_base"].append(
            ["Perform surgical resection", "patient"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  knowledge-block-mask" in capsys.readouterr().out


# Documents that json.loads cannot read: (text, message, the checks that
# may fail). Python releases before 3.10.7 have no limit on the digits of
# an int, so there the long literal parses and fails the schema.
UNPARSABLE = {
    "deep-nesting": ("[" * 200_000 + "]" * 200_000,
                     "arrays or objects nest too deeply to parse",
                     ("parse",)),
    "long-integer": ('{"schema_version": ' + "1" * 5001 + "}",
                     "an integer literal has too many digits to parse",
                     ("parse", "schema")),
}


@pytest.mark.parametrize("text, message, checks", UNPARSABLE.values(),
                         ids=UNPARSABLE.keys())
def test_unparsable_document_fails_without_traceback(tmp_path, capsys, text,
                                                     message, checks):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL  ")]
    assert failed[0] in [f"FAIL  {check}" for check in checks]
    unparsed = failed[0] == "FAIL  parse"
    if unparsed:
        assert lines[:2] == ["FAIL  parse", f"      {path}: {message}"]
    out = tmp_path / "out"
    for command in (["dof", str(path)],
                    ["simulate", str(path), "--out", str(out)]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not unparsed or f"[parse] {path}: {message}" in err
    assert not out.exists()


class TestDofCommand:
    def test_acute_listing(self, capsys):
        assert main(["dof", str(ACUTE)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "structural degrees of freedom: 36"
        assert len(lines) == 37

    def test_chronic_listing(self, capsys):
        assert main(["dof", str(CHRONIC)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "structural degrees of freedom: 7"

    def test_empty_knowledge_base(self, tmp_path, capsys):
        doc = {
            "schema_version": 1, "name": "empty",
            "resources": [{"name": "ward", "class": "transformation"}],
            "processes": [], "knowledge_base": [],
            "initial_tokens": {}, "individuals": [], "schedule": [],
            "assumed_values": {},
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["dof", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["structural degrees of freedom: 0"]


class TestSimulateCommand:
    def test_replay_writes_reports(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", str(ACUTE), "--out", str(out)]) == 0
        for name in ("trace.csv", "delivery.csv", "outcomes.csv",
                     "summary.txt"):
            assert (out / name).exists()
        header = read(out / "delivery.csv").splitlines()[0]
        assert header.startswith("time,event_index,psi,kind,place:")
        assert header.endswith("cumulative_cost")

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_infeasible_schedule_cleans_partial_outputs(self, tmp_path,
                                                        capsys):
        data = json.loads(read(CHRONIC))
        # start the resection before the patient ever enters the clinic
        data["schedule"].insert(0, {
            "time": 0.0, "individual": "patient",
            "process": "Perform surgical resection",
            "resource": "neurosurgery"})
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", str(path), "--out", str(out)])
        assert code == 1
        assert not any(out.glob("*.csv")) if out.exists() else True

    def test_output_path_that_is_a_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep me", encoding="utf-8")
        assert main(["simulate", str(CHRONIC), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert read(out) == "keep me"

    @pytest.mark.parametrize("flags", [["--mode", "sample", "--seed", "-1"],
                                       ["--runs", "0"], ["--runs", "-3"]])
    def test_out_of_range_count_exits_two(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", str(ACUTE), "--out", str(out), *flags])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flags[-2]}: must be at least" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_text_utf8_cannot_encode_is_rejected_at_load(self, tmp_path,
                                                         capsys):
        # a valid JSON escape for a lone surrogate, as an individual id
        path = tmp_path / "surrogate.json"
        path.write_text(read(ACUTE).replace('"adam"', '"pa\\ud800tient"'),
                        encoding="utf-8")
        message = ("individuals[0].id: 'pa\\ud800tient' is not text that "
                   "UTF-8 can encode")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  schema" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[schema] {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_runs_flag_merges_statistics(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["simulate", str(CHRONIC), "--mode", "sample",
                     "--seed", "3", "--out", str(out), "--runs", "4"]) == 0
        runs = read(out / "runs.csv").splitlines()
        assert runs[0] == "run,seed,final_cost,final_outcome:patient"
        assert len(runs) == 5
        assert (out / "run_000" / "trace.csv").exists()
        summary = read(out / "summary.txt")
        assert "mean final outcome for patient" in summary

    def test_sample_mode_is_reproducible(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for target in (first, second):
            assert main(["simulate", str(CHRONIC), "--mode", "sample",
                         "--seed", "11", "--out", str(target)]) == 0
        for name in ("trace.csv", "delivery.csv", "outcomes.csv",
                     "summary.txt"):
            assert read(first / name) == read(second / name)


def spread_acute(tmp_path, consumes):
    """The acute fixture with adam's mass spread over two states, and
    ``Rupture ACL`` consuming ``consumes``."""
    data = json.loads(read(ACUTE))
    (adam,) = data["individuals"]
    del adam["initial_state"]
    adam["initial_marking"] = {"healthy": 0.5, "ruptured ACL": 0.5}
    (rupture,) = [event for event in adam["health_events"]
                  if event["name"] == "Rupture ACL"]
    rupture["consumes"] = consumes
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("mode", ["replay", "sample"])
class TestSpreadMarking:
    """Every health firing moves one unit of mass, so a marking spread
    over several states fires the events whose weights it covers."""

    def test_covered_weights_fire(self, tmp_path, mode):
        path = spread_acute(tmp_path, {"healthy": 0.5, "ruptured ACL": 0.5})
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--mode", mode,
                     "--out", str(out)]) == 0
        assert len(read(out / "trace.csv").splitlines()) == 1 + 70
        result = compile_scenario(load_scenario(path)).run(mode=mode)
        assert result.final_health["adam"].total_mass == pytest.approx(1.0)

    def test_uncovered_weight_fails_at_the_event(self, tmp_path, capsys,
                                                  mode):
        path = spread_acute(tmp_path, "healthy")
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--mode", mode,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: at t=0.0, health:adam 'Rupture ACL', individual 'adam': "
            "none of the scheduled health events ['Rupture ACL'] is "
            "enabled\n")
        assert not out.exists()


def _write(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestFiniteArithmetic:
    """Costs are non-negative and times only grow, so a run fails cleanly
    when its clock or cumulative cost overflows, and writes nothing."""

    @pytest.mark.parametrize("flags", [[], ["--mode", "sample", "--runs",
                                            "3"]])
    def test_cost_overflow_exits_one_without_reports(self, tmp_path, capsys,
                                                     flags):
        data = json.loads(read(ACUTE))
        data["assumed_values"]["costs"] = {"default": 1e308}
        path = _write(tmp_path, data)
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == (
            "error: at t=4.25, delivery 'Go from outside clinic to reception "
            "@ patient': the cumulative cost has left the finite floats\n")
        assert not out.exists()

    def test_clock_overflow_exits_one_without_reports(self, tmp_path,
                                                      capsys):
        # a second individual whose rupture starts at 1e308 and lasts
        # 1e308, so it completes at inf
        data = json.loads(read(ACUTE))
        (adam,) = data["individuals"]
        data["individuals"].append(dict(adam, id="eve"))
        assumed = data["assumed_values"]
        for table in ("health_state_values", "health_event_durations"):
            assumed[table]["eve"] = dict(assumed[table]["adam"])
        assumed["health_event_durations"]["eve"]["Rupture ACL"] = 1e308
        data["schedule"].append({"time": 1e308, "individual": "eve",
                                 "event": "Rupture ACL"})
        out = tmp_path / "out"
        assert main(["simulate", str(_write(tmp_path, data)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: at t=inf, health:eve 'Rupture ACL': the clock has left "
            "the finite floats\n")
        assert not out.exists()

    def test_mean_of_costs_near_the_largest_float(self, tmp_path):
        # each run's cost is finite; their sum is not
        data = json.loads(read(ACUTE))
        data["assumed_values"]["costs"] = {
            "default": 0.0, "Treat acute symptoms @ emergency room": 1.7e308}
        out = tmp_path / "mc"
        assert main(["simulate", str(_write(tmp_path, data)), "--mode",
                     "sample", "--runs", "2", "--out", str(out)]) == 0
        summary = read(out / "summary.txt").splitlines()
        assert summary[4].removeprefix("mean ") == \
            summary[5].removeprefix("min ")


_EXTREME = st.sampled_from([0.0, 5e-324, 1.0, 1e308])


@st.composite
def extreme_documents(draw):
    """A bundled fixture whose durations, costs and health-event durations
    (each table kept, set to one value, or set entry by entry), and
    optionally schedule times, are drawn from 0, the smallest subnormal,
    1 and 1e308, so equal times are common."""
    data = json.loads(read(draw(st.sampled_from([ACUTE, CHRONIC]))))
    assumed = data["assumed_values"]
    for table in (assumed["durations"], assumed["costs"],
                  *assumed["health_event_durations"].values()):
        how = draw(st.sampled_from(["keep", "one", "each"]))
        if how == "one":
            table.update(dict.fromkeys(table, draw(_EXTREME)))
        elif how == "each":
            table.update({key: draw(_EXTREME) for key in table})
    if draw(st.booleans()):
        schedule = data["schedule"]
        times = draw(st.lists(_EXTREME, min_size=len(schedule),
                              max_size=len(schedule)))
        for entry, time in zip(schedule, sorted(times)):
            entry["time"] = time
    return data


@pytest.mark.parametrize("flags", [[], ["--mode", "sample", "--seed", "1",
                                        "--runs", "2"]])
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=extreme_documents())
def test_extreme_values_run_or_fail_cleanly(tmp_path, capsys, flags, data):
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = main(["simulate", str(_write(tmp_path, data)), "--out", str(out),
                 *flags])
    err = capsys.readouterr().err
    if code == 0:
        assert (out / "summary.txt").exists()
    else:
        assert code == 1 and err.startswith("error: "), err
        assert not out.exists()
