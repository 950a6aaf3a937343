import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carenets.cli import main
from carenets.errors import ScenarioError
from carenets.scenario import (compile_scenario, load_scenario,
                               load_scenario_data, validate_file)

from helpers import ACUTE, CHRONIC


def acute_data():
    return json.loads(ACUTE.read_text(encoding="utf-8"))


def chronic_data():
    return json.loads(CHRONIC.read_text(encoding="utf-8"))


class TestLoading:
    def test_acute_counts(self, acute):
        assert acute.model.n_buffers == 6
        assert acute.model.dof_count == 36
        assert set(r.name for r in acute.model.buffers) == {
            "outside clinic", "reception", "emergency room", "imaging",
            "physical therapy", "orthopedic surgery"}

    def test_chronic_counts(self, chronic):
        assert chronic.model.dof_count == 7
        assert set(chronic.net.place_names) == \
            {"healthcare clinic", "outside clinic"}

    def test_acute_transport_split(self, acute):
        transports = [p for p in acute.model.processes if p.is_transport]
        assert len(transports) == 22
        outside = acute.model.resource_by_name("outside clinic").id
        crossing = [p for p in transports
                    if outside in (p.origin, p.destination)]
        assert len(crossing) == 2

    def test_dangling_schedule_reference(self):
        data = acute_data()
        data["schedule"].append({"time": 300.0, "individual": "adam",
                                 "event": "Sprout wings"})
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert any("Sprout wings" in message
                   for _, message in err.value.failures)

    def test_all_failures_reported_together(self):
        data = acute_data()
        data["schedule"].append({"time": 300.0, "individual": "adam",
                                 "event": "Sprout wings"})
        data["schedule"].append({"time": 301.0, "individual": "nobody",
                                 "event": "Rupture ACL"})
        del data["assumed_values"]["health_state_values"]["adam"]["healthy"]
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        text = str(err.value)
        assert "Sprout wings" in text
        assert "nobody" in text
        assert "healthy" in text

    def test_parse_error_carries_position(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"schema_version": 1,', encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(bad)
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_unknown_keys_flagged(self):
        data = chronic_data()
        data["surprise"] = 1
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert any("surprise" in message
                   for _, message in err.value.failures)

    def test_scheduling_induced_event_rejected(self):
        data = chronic_data()
        data["schedule"].append({"time": 900.0, "individual": "patient",
                                 "event": "Resect tumor"})
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert any("cannot be scheduled" in message
                   for _, message in err.value.failures)


def _initial_marking_not_a_number(data):
    individual = data["individuals"][0]
    del individual["initial_state"]
    individual["initial_marking"] = {"healthy": "all of it"}


def _set_first_assumed(table, value):
    def mutate(data):
        entries = data["assumed_values"][table]
        entries[next(iter(entries))] = value
    return mutate


def _set_first_time(value):
    def mutate(data):
        data["schedule"][0]["time"] = value
    return mutate


DEFECTS = {
    "initial-marking-not-a-number": _initial_marking_not_a_number,
    "resources-not-a-list": lambda data: data.update(resources=5),
    "notes-not-a-list": lambda data: data.update(notes=7),
    "nan-duration": _set_first_assumed("durations", math.nan),
    "inf-cost": _set_first_assumed("costs", math.inf),
    "negative-time": _set_first_time(-1.0),
    "boolean-time": _set_first_time(True),
    "schedule-entry-not-an-object": lambda data: data["schedule"].append(5),
}


class TestDefectiveDocuments:
    @pytest.mark.parametrize("mutate", DEFECTS.values(), ids=DEFECTS.keys())
    def test_rejected_with_scenario_error(self, mutate, tmp_path, capsys):
        data = acute_data()
        mutate(data)
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert [check for check, _ in err.value.failures] == ["schema"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["dof", str(path)]) == 2
        assert main(["validate", str(path)]) == 1
        assert "FAIL  schema" in capsys.readouterr().out

    def test_failure_outside_listed_checks_fails_validate(self, tmp_path):
        data = acute_data()
        data["processes"].append(copy.deepcopy(data["processes"][0]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        report = validate_file(path)
        assert not report.ok
        failed = {r.check: r.messages for r in report.results
                  if r.status == "fail"}
        assert failed == {check: (message,)
                          for check, message in err.value.failures}

    def test_induced_event_with_two_realizers_rejected(self, tmp_path,
                                                       capsys):
        # Fᵀu_L would count the event under both processes while S·e
        # counts only the engaged one, so no run could pass the coupling
        # check.
        data = chronic_data()
        (resect,) = [ev for ev in data["individuals"][0]["health_events"]
                     if ev["name"] == "Resect tumor"]
        resect["realized_by"].append(
            "Perform radiation & chemotherapy treatment")
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert [check for check, _ in err.value.failures] == \
            ["feasibility-tags"]
        assert "'Resect tumor' is realized by 2" in str(err.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  feasibility-tags" in capsys.readouterr().out
        assert main(["dof", str(path)]) == 2
        assert main(["simulate", str(path), "--out",
                     str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_file_not_utf8_is_a_parse_failure(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert [check for check, _ in err.value.failures] == ["parse"]


JUNK = [None, True, False, 0, 2, -1, 2 ** 70, 1.5, -0.5, math.nan,
        math.inf, -math.inf, "", "healthy", "outside clinic", "patient",
        [], [None], ["healthy", 1], {}, {"healthy": None},
        {"healthy": math.nan}]


@st.composite
def mutated_documents(draw):
    """A fixture with a few keys dropped, list items repeated, or values
    swapped for junk."""
    data = draw(st.sampled_from([acute_data, chronic_data]))()
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = data
        for _ in range(draw(st.integers(1, 6))):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = list(node) if isinstance(node, dict) \
                else list(range(len(node)))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is None:
            continue
        action = draw(st.sampled_from(["drop", "repeat", "junk"]))
        if action == "drop":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.append(copy.deepcopy(node))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return data


@settings(derandomize=True, max_examples=300, deadline=None,
          database=None)
@given(mutated_documents())
def test_loader_raises_only_scenario_error(data):
    try:
        load_scenario_data(data)
    except ScenarioError:
        pass


class TestRoundTrip:
    @pytest.mark.parametrize("path", [ACUTE, CHRONIC],
                             ids=["acute", "chronic"])
    def test_load_serialize_load(self, path):
        first = load_scenario(path)
        second = load_scenario_data(json.loads(json.dumps(first.data)))
        assert first == second

    def test_serialized_form_is_json(self, chronic_doc):
        text = json.dumps(chronic_doc.data, allow_nan=False)
        assert load_scenario_data(json.loads(text)) == chronic_doc


class TestValidateFile:
    def test_fixtures_fully_pass(self):
        for path in (ACUTE, CHRONIC):
            report = validate_file(path)
            assert report.ok, report.lines()

    def test_block_mask_failure_reported(self, tmp_path):
        data = chronic_data()
        data["knowledge_base"].append(
            ["Perform surgical resection", "patient"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        report = validate_file(path)
        failed = {r.check for r in report.results if r.status == "fail"}
        assert "knowledge-block-mask" in failed

    def test_normalization_failure_reported(self, tmp_path):
        data = chronic_data()
        event = data["individuals"][0]["health_events"][0]
        event["produces"] = {"occipital tumor present": 0.9}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        report = validate_file(path)
        failed = {r.check for r in report.results if r.status == "fail"}
        assert "health-event-normalization" in failed

    def test_initial_mass_failure_reported(self, tmp_path):
        data = chronic_data()
        data["individuals"][0]["initial_marking"] = {"healthy": 0.4}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        report = validate_file(path)
        failed = {r.check for r in report.results if r.status == "fail"}
        assert "initial-mass" in failed

    def test_parse_failure_skips_the_rest(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        report = validate_file(path)
        by_check = {r.check: r.status for r in report.results}
        assert by_check["parse"] == "fail"
        assert by_check["schedule-references"] == "skipped"


class TestCompile:
    def test_delivery_actions_resolve_dofs(self, chronic):
        assert len(chronic.delivery_actions) == 23
        labels = {chronic.net.transitions[a.psi].label
                  for a in chronic.delivery_actions}
        assert "Enter clinic @ patient" in labels

    def test_outcomes_resolved_to_state_indices(self, chronic):
        net = chronic.individuals[0].net
        outcomes = {a.outcome for a in chronic.delivery_actions
                    if a.outcome is not None}
        assert net.state_index("near-total resection") in outcomes
        assert net.state_index("stable disease") in outcomes

    def test_missing_duration_is_reported(self):
        data = chronic_data()
        del data["assumed_values"]["durations"]["Enter clinic @ patient"]
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert any("Enter clinic" in message and check == "durations"
                   for check, message in err.value.failures)

    def test_default_duration_fills_gaps(self):
        data = chronic_data()
        del data["assumed_values"]["durations"]["Enter clinic @ patient"]
        data["assumed_values"]["durations"]["default"] = 0.125
        doc = load_scenario_data(data)
        compiled = compile_scenario(doc)
        enter = next(i for i, t in enumerate(compiled.net.transitions)
                     if t.label == "Enter clinic @ patient")
        assert compiled.net.durations[enter] == 0.125
