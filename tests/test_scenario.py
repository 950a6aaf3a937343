import copy
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carenets import coordination, scenario
from carenets.cli import main
from carenets.coordination import candidate_table
from carenets.errors import ScenarioError
from carenets.scenario import (CHECKS, compile_scenario, load_scenario,
                               load_scenario_data, validate_file)

from helpers import ACUTE, CHRONIC, CLONE_OFFSETS, chronic_clones


def acute_data():
    return json.loads(ACUTE.read_text(encoding="utf-8"))


def chronic_data():
    return json.loads(CHRONIC.read_text(encoding="utf-8"))


# The chronic fixture's clinic buffers: all but "outside clinic".
CLINIC = ["neurosurgery", "oncology", "care team", "imaging", "pathology"]


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
        (outside,) = [r.id for r in acute.model.resources
                      if r.name == "outside clinic"]
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

    def test_failure_outside_listed_checks_fails_validate(self, tmp_path,
                                                          monkeypatch):
        # No document fails outside CHECKS (see
        # test_corpus_records_only_listed_checks), so a stand-in loader
        # raises such a failure.
        def load(path):
            raise ScenarioError([("unlisted", "a failure outside CHECKS")])

        monkeypatch.setattr(scenario, "load_scenario", load)
        report = validate_file(tmp_path / "any.json")
        assert not report.ok
        failed = {r.check: r.messages for r in report.results
                  if r.status == "fail"}
        assert failed == {"unlisted": ("a failure outside CHECKS",)}
        assert report.lines()[-2:] == ["FAIL  unlisted",
                                       "      a failure outside CHECKS"]

    @pytest.mark.parametrize("section, noun, skipped", [
        ("resources", "resource", "processes"),
        ("processes", "process", "knowledge-block-mask")])
    def test_duplicate_name_fails_under_its_section(self, section, noun,
                                                    skipped, tmp_path,
                                                    capsys):
        data = acute_data()
        data[section].append(copy.deepcopy(data[section][0]))
        name = data[section][0]["name"]
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert err.value.failures == [
            (section, f"duplicate {noun} name {name!r}")]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL  {section}" in out and f"SKIP  {skipped}" in out
        assert "structure" not in out

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

    def test_duplicate_health_event_name_rejected(self, tmp_path, capsys):
        # Schedule entries, weights and durations name events, so two
        # events of one name would be one name for two events.
        data = chronic_data()
        events = data["individuals"][0]["health_events"]
        events.append(copy.deepcopy(events[0]))
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert err.value.failures == [
            ("health-states", "individual 'patient': duplicate health "
                              "events")]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  health-states" in capsys.readouterr().out
        assert main(["dof", str(path)]) == 2

    @pytest.mark.parametrize("load", [acute_data, chronic_data])
    def test_duplicate_health_state_fails_once(self, load, tmp_path, capsys):
        # The individual's net still builds, so schedule entries naming
        # the individual add no follow-on failures.
        data = load()
        individual = data["individuals"][0]
        individual["health_states"].append(individual["health_states"][0])
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert err.value.failures == [
            ("health-states", f"individual {individual['id']!r}: duplicate "
                              f"health states")]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  health-states" in capsys.readouterr().out

    @pytest.mark.parametrize("endpoint", ["origin", "destination"])
    def test_missing_transport_endpoint_fails_once(self, endpoint):
        data = chronic_data()
        (enter,) = [p for p in data["processes"]
                    if p["name"] == "Enter clinic"]
        del enter[endpoint]
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert err.value.failures == [
            ("transport-endpoints", "transport process 'Enter clinic' needs "
                                    "an origin and a destination buffer")]

    @pytest.mark.parametrize("endpoint, name", [("origin", "patient"),
                                                ("destination", "nowhere")])
    def test_transport_endpoint_naming_a_non_buffer_fails_once(self, endpoint,
                                                               name):
        data = chronic_data()
        (enter,) = [p for p in data["processes"]
                    if p["name"] == "Enter clinic"]
        enter[endpoint] = name
        assert failures_of(data) == [
            ("transport-endpoints", f"transport process 'Enter clinic' "
                                    f"{endpoint} {name!r} is not a buffer")]

    def test_every_transport_process_lacking_an_endpoint_fails_once(self):
        data = acute_data()
        first, second, third = [p for p in data["processes"]
                                if p["class"] == "transportation"][:3]
        del first["origin"], second["destination"]
        del third["origin"], third["destination"]
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        assert err.value.failures == [
            ("transport-endpoints", f"transport process {p['name']!r} needs "
                                    f"an origin and a destination buffer")
            for p in (first, second, third)]

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


def _mutate(data, rng: random.Random) -> None:
    """Apply one to three moves: drop a key or item, repeat a list item,
    add an unknown key, swap a value for junk, or point a schedule entry
    at a name nothing declares."""
    for _ in range(rng.randint(1, 3)):
        action = rng.choice(["drop", "repeat", "unknown", "junk", "dangle"])
        if action == "dangle":
            entry = rng.choice(data["schedule"])
            if isinstance(entry, dict):
                key = rng.choice(sorted(entry))
                entry[key] = rng.choice(["nobody", "Sprout wings", "wings"])
            continue
        parent, key, node = None, None, data
        for _ in range(rng.randint(1, 6)):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = list(node) if isinstance(node, dict) \
                else list(range(len(node)))
            parent, key = node, rng.choice(keys)
            node = parent[key]
        if parent is None:
            continue
        if action == "drop":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.append(copy.deepcopy(node))
        elif action == "unknown" and isinstance(parent, dict):
            parent["surprise"] = copy.deepcopy(rng.choice(JUNK))
        else:
            parent[key] = copy.deepcopy(rng.choice(JUNK))


def _repeats_an_event_name(data) -> bool:
    """Whether some individual declares two health events of one name,
    which the loader rejects (see TestDefectiveDocuments)."""
    individuals = data.get("individuals")
    for ind in individuals if isinstance(individuals, list) else ():
        events = ind.get("health_events") if isinstance(ind, dict) else None
        names = [ev.get("name") for ev in events
                 if isinstance(ev, dict) and isinstance(ev.get("name"), str)
                 ] if isinstance(events, list) else []
        if len(set(names)) != len(names):
            return True
    return False


PINNED_PER_FIXTURE = 300


def pinned_corpus() -> list:
    """Seeded mutations of both fixtures, the same on every run."""
    docs = []
    for load in (acute_data, chronic_data):
        for seed in range(PINNED_PER_FIXTURE):
            data = load()
            _mutate(data, random.Random(seed))
            if not _repeats_an_event_name(data):
                docs.append(data)
    return docs


def failures_of(data) -> list:
    try:
        load_scenario_data(data)
    except ScenarioError as exc:
        return exc.failures
    return []


def outcome_of(data):
    """The failure list of a rejected document, else its normalized data."""
    try:
        return load_scenario_data(data).data
    except ScenarioError as exc:
        return exc.failures


# SHA-256 of the JSON-dumped outcomes of pinned_corpus(): every message,
# its path and its order, and the normalized data of every accepted
# document, must stay as they were. Recorded before the schema was
# compiled into checkers; re-recorded when a duplicate health state
# stopped dropping its individual, which changed one entry (chronic
# seed 28) by removing its 27 follow-on "unknown individual" failures;
# re-recorded when every failure moved under a listed check and a failed
# health net stopped failing the schedule entries naming its individual,
# which changed 16 entries: 13 moved their one "structure" failure (11
# duplicate resource names to "resources", one duplicate process name to
# "processes", one chronic abstraction failure to
# "aggregation-partition"), and 3 lost their follow-on "unknown
# individual" failures (acute seed 92: 31; chronic seeds 251 and 260: 27
# each); re-recorded when a transport endpoint naming a non-buffer moved
# from "cross-references" to "transport-endpoints" and stopped failing a
# second time there, which changed entries 16, 36, 62, 152, 221 and 335:
# 120 messages moved check, and entries 36, 62, 152 and 335 each lost
# one "needs an origin and a destination buffer" failure.
PINNED_DIGEST = ("f4c2e80c74624d474c117d692df4f1de"
                 "fd93c3893f214bc80c799bc633564b4f")


def test_pinned_failure_lists_unchanged():
    outcomes = [outcome_of(data) for data in pinned_corpus()]
    failures = [listed for listed in outcomes if isinstance(listed, list)]
    assert len(outcomes) // 2 < len(failures) < len(outcomes)
    assert any(message.startswith("schedule[")
               for listed in failures for check, message in listed
               if check == "schedule-references")
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == PINNED_DIGEST


def test_corpus_records_only_listed_checks():
    recorded = {check for data in pinned_corpus()
                for check, _ in failures_of(data)}
    assert recorded <= set(CHECKS)


def _set(path, value):
    def mutate(data):
        *head, last = path
        node = data
        for key in head:
            node = node[key]
        node[last] = value
    return mutate


def _drop(path):
    def mutate(data):
        *head, last = path
        node = data
        for key in head:
            node = node[key]
        del node[last]
    return mutate


_RESECT = ("individuals", 0, "health_events", 2)
_CLASSES = ("['decision', 'measurement', 'transformation', "
            "'transportation'], got 'wizard'")

# One exact failure per message form the schema produces.
MESSAGES = {
    "scalar": (_set(("schedule", 0, "time"), -1),
               "schedule[0].time: expected a finite number >= 0, got -1"),
    "one-of": (_set(("resources", 0, "class"), "wizard"),
               f"resources[0].class: expected one of {_CLASSES}"),
    "list": (_set(("notes",), 7), "notes: expected a list, got 7"),
    "list-item": (_set(("individuals", 0, "health_states", 1), None),
                  "individuals[0].health_states[1]: expected a string, "
                  "got null"),
    "document": (lambda data: [],
                 "document: expected an object, got a list"),
    "missing": (_drop(("name",)),
                "document: missing required key 'name'"),
    "unknown": (lambda data: data.update(surprise=1, also=2),
                "document: unknown keys ['also', 'surprise']"),
    "entry-unknown": (_set(("schedule", 2, "optional"), True),
                      "schedule[2]: unknown keys ['optional']"),
    "entry-object": (_set(("schedule", 5), 5),
                     "schedule[5]: expected an object, got 5"),
    "needs-one-of": (_drop(("individuals", 0, "initial_state")),
                     "individuals[0]: needs one of ['initial_state', "
                     "'initial_marking']"),
    "branch-list": (_set((*_RESECT, "produces"), []),
                    "individuals[0].health_events[2].produces: branch "
                    "list must name states"),
    "weights-type": (_set((*_RESECT, "consumes"), 3),
                     "individuals[0].health_events[2].consumes: expected "
                     "a state, a list of states, or a mapping, got 3"),
    "weight": (_set((*_RESECT, "consumes"), {"symptomatic tumor": "x"}),
               "individuals[0].health_events[2].consumes.symptomatic "
               "tumor: expected a finite number, got 'x'"),
    "null-weight": (_set((*_RESECT, "consumes"),
                         {"symptomatic tumor": None}),
                    "individuals[0].health_events[2].consumes.symptomatic "
                    "tumor: expected a finite number, got null"),
    "map-value": (_set(("assumed_values", "health_state_values", "patient",
                        "healthy"), True),
                  "assumed_values.health_state_values.patient.healthy: "
                  "expected a finite number, got true"),
    # a lone surrogate (a JSON "\ud800" escape) that UTF-8 cannot encode
    "surrogate": (_set(("title",), "a\ud800"),
                  "title: 'a\\ud800' is not text that UTF-8 can encode"),
    "surrogate-pair": (_set(("knowledge_base", 0), ["x\udc00", "y"]),
                       "knowledge_base[0]: 'x\\udc00' is not text that "
                       "UTF-8 can encode"),
    "surrogate-state": (_set((*_RESECT, "consumes"), "s\ud800"),
                        "individuals[0].health_events[2].consumes: "
                        "'s\\ud800' is not text that UTF-8 can encode"),
    "surrogate-branch": (_set((*_RESECT, "produces"), ["healthy", "\udfff"]),
                         "individuals[0].health_events[2].produces: "
                         "'\\udfff' is not text that UTF-8 can encode"),
    "surrogate-key": (_set(("assumed_values", "health_state_values",
                            "patient", "\ud800"), 1.0),
                      "assumed_values.health_state_values.patient: key "
                      "'\\ud800' is not text that UTF-8 can encode"),
}


@pytest.mark.parametrize("mutate, message", MESSAGES.values(),
                         ids=MESSAGES.keys())
def test_schema_message(mutate, message):
    data = chronic_data()
    replaced = mutate(data)
    if replaced is not None:
        data = replaced
    assert failures_of(data) == [("schema", message)]


def _aggregated(outside, clinic):
    """The chronic fixture with an explicit two-place aggregation."""
    def mutate(data):
        del data["chronic_abstraction"]
        data["aggregation"] = [{"name": "outside", "members": outside},
                               {"name": "clinic", "members": clinic}]
        data["initial_tokens"] = {"outside": 1}
    return mutate


def _default_cost(data):
    costs = data["assumed_values"]["costs"]
    del costs["Enter clinic @ patient"], costs["Exit clinic @ patient"]
    costs["default"] = -1.0


_ENTER = "'Enter clinic @ patient'"

# The exact failures of defects the schema accepts and compiling rejects.
COMPILE_MESSAGES = {
    "capacity-unknown": (
        _set(("transition_capacities",), {"bogus @ nowhere": 2}),
        [("capacities", "capacity names unknown capability "
                        "'bogus @ nowhere'")]),
    "capacity-zero": (
        _set(("transition_capacities",), {"Enter clinic @ patient": 0}),
        [("capacities", f"capacity for {_ENTER} must be at least 1")]),
    "duration-negative": (
        _set(("assumed_values", "durations", "Enter clinic @ patient"), -1.0),
        [("durations", f"duration for {_ENTER} is negative")]),
    # one failure per capability that takes the default
    "cost-default-negative": (
        _default_cost,
        [("costs", f"cost for {_ENTER} is negative"),
         ("costs", "cost for 'Exit clinic @ patient' is negative")]),
    "outcome-unknown": (
        _set(("schedule", 11, "outcome"), "nowhere"),
        [("schedule-references",
          "schedule[11]: unknown outcome state 'nowhere'")]),
    "clinic-buffer-unknown": (
        lambda data: data.update(clinic_buffers=[*CLINIC, "nowhere"]),
        [("cross-references",
          "clinic_buffers names unknown buffer 'nowhere'")]),
    "clinic-buffer-only-unknown": (
        lambda data: data.update(clinic_buffers=["nowhere"]),
        [("cross-references",
          "clinic_buffers names unknown buffer 'nowhere'"),
         ("aggregation-partition", "clinic buffer set is empty")]),
    "aggregation-unknown": (
        _aggregated(["outside clinic"], [*CLINIC, "nowhere"]),
        [("cross-references",
          "aggregation names unknown buffer 'nowhere'")]),
    "aggregation-buffer-twice": (
        _aggregated(["outside clinic", "neurosurgery"], CLINIC),
        [("aggregation-partition",
          "buffer column 0 belongs to aggregates 0 and 1")]),
    # reported in aggregate order, not in the order of a set
    "aggregation-buffer-twice-later": (
        _aggregated(["outside clinic"], [*CLINIC, "outside clinic"]),
        [("aggregation-partition",
          "buffer column 5 belongs to aggregates 0 and 1")]),
    "aggregation-buffer-in-none": (
        _aggregated(["outside clinic"], CLINIC[1:]),
        [("aggregation-partition",
          "buffer columns [0] belong to no aggregate")]),
}


@pytest.mark.parametrize("mutate, failures", COMPILE_MESSAGES.values(),
                         ids=COMPILE_MESSAGES.keys())
def test_compile_message(mutate, failures):
    data = chronic_data()
    mutate(data)
    assert failures_of(data) == failures


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

    @staticmethod
    def statuses(data, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return {r.check: r.status for r in validate_file(path).results}

    def test_schema_failure_skips_every_later_check(self, tmp_path):
        data = acute_data()
        data["individuals"][0]["id"] = "pa\ud800tient"
        statuses = self.statuses(data, tmp_path)
        assert statuses["parse"] == "pass"
        assert statuses["schema"] == "fail"
        assert {statuses[c] for c in CHECKS[2:]} == {"skipped"}
        assert main(["validate", str(tmp_path / "bad.json")]) == 1

    def test_structural_failure_skips_what_needs_the_model(self, tmp_path,
                                                           capsys):
        data = acute_data()
        transport = [p for p in data["processes"]
                     if p["class"] == "transportation"]
        del transport[0]["origin"]
        statuses = self.statuses(data, tmp_path)
        assert statuses["transport-endpoints"] == "fail"
        # build checks before the failing one ran; those after did not
        assert statuses["knowledge-block-mask"] == "pass"
        assert statuses["resource-class-consistency"] == "skipped"
        after = CHECKS[CHECKS.index("constraints"):]
        assert {statuses[c] for c in after} == {"skipped"}
        assert main(["validate", str(tmp_path / "bad.json")]) == 1
        out = capsys.readouterr().out
        assert "SKIP  durations" in out and "PASS  durations" not in out

    @pytest.mark.parametrize("table, key, value, failure", [
        ("health_state_values", "healthy", 2.0,
         ("health-values", "state values must lie in [0, 1]")),
        ("health_event_durations", "Reconstruct ACL", -1.0,
         ("durations", "event 'Reconstruct ACL' has negative duration"))])
    def test_failed_health_net_fails_once(self, table, key, value, failure,
                                          tmp_path):
        # the 31 schedule entries naming adam are skipped, not failed
        data = acute_data()
        data["assumed_values"][table]["adam"][key] = value
        with pytest.raises(ScenarioError) as err:
            load_scenario_data(data)
        check, message = failure
        assert err.value.failures == [(check, f"individual 'adam': {message}")]
        statuses = self.statuses(data, tmp_path)
        assert statuses["initial-mass"] == "skipped"
        assert statuses["schedule-references"] == "skipped"

    def test_duplicate_id_after_failed_health_net(self):
        data = acute_data()
        data["assumed_values"]["health_state_values"]["adam"]["healthy"] = 2.0
        data["individuals"].append(copy.deepcopy(data["individuals"][0]))
        assert failures_of(data) == [
            ("health-values", "individual 'adam': state values must lie in "
                              "[0, 1]"),
            ("health-states", "duplicate individual id 'adam'")]

    def test_initial_marking_on_unknown_state_fails_mass_check(self):
        data = acute_data()
        individual = data["individuals"][0]
        individual["initial_marking"] = {"nowhere": 1.0}
        assert failures_of(data) == [
            ("initial-mass", "unknown health state 'nowhere'")]

    @pytest.mark.parametrize("clinic, message", [
        ([], "clinic buffer set is empty"),
        (["neurosurgery", "oncology", "care team", "imaging", "pathology",
          "outside clinic"],
         "model has no 'outside clinic' buffer outside the clinic"),
        (["neurosurgery", "oncology", "imaging", "pathology"],
         "no transport capability enters or exits the clinic")])
    def test_chronic_abstraction_failure_is_a_partition_failure(
            self, clinic, message, tmp_path):
        data = chronic_data()
        data["clinic_buffers"] = clinic
        assert failures_of(data) == [("aggregation-partition", message)]
        statuses = self.statuses(data, tmp_path)
        assert statuses["aggregation-partition"] == "fail"
        assert statuses["durations"] == "skipped"

    def test_compile_failure_skips_projection_identity(self, tmp_path):
        data = acute_data()
        data["assumed_values"]["durations"]["bogus @ nothing"] = 1.0
        statuses = self.statuses(data, tmp_path)
        assert statuses["durations"] == "fail"
        assert statuses["projection-identity"] == "skipped"
        assert {s for c, s in statuses.items()
                if c not in ("durations", "projection-identity")} == {"pass"}


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


class TestAggregation:
    """The two ways to aggregate buffers: an explicit ``aggregation``, or
    ``chronic_abstraction`` with optional ``clinic_buffers``."""

    @staticmethod
    def run(data):
        compiled = compile_scenario(load_scenario_data(data))
        return compiled, compiled.run()

    def test_explicit_aggregation(self):
        data = chronic_data()
        del data["chronic_abstraction"]
        data["aggregation"] = [
            {"name": "outside", "members": ["outside clinic"]},
            {"name": "clinic", "members": CLINIC}]
        data["initial_tokens"] = {"outside": 1}
        compiled, result = self.run(data)
        assert compiled.net.place_names == ("outside", "clinic")
        assert len(result.trace) == 58
        assert result.cost_series[-1][1] == 45_250.0

    def test_clinic_buffers_naming_the_default_clinic(self, chronic):
        data = chronic_data()
        data["clinic_buffers"] = CLINIC
        compiled, result = self.run(data)
        assert compiled.net.place_names == chronic.net.place_names
        assert compiled.net.transitions == chronic.net.transitions
        for name in ("m_minus", "m_plus", "durations", "costs",
                     "capacities"):
            assert np.array_equal(getattr(compiled.net, name),
                                  getattr(chronic.net, name))
        expected = chronic.run()
        assert result.trace == expected.trace
        assert result.cost_series == expected.cost_series

    def test_clinic_buffers_need_the_abstraction(self):
        data = chronic_data()
        data["chronic_abstraction"] = False
        data["clinic_buffers"] = CLINIC
        assert failures_of(data) == [
            ("aggregation-partition",
             "clinic_buffers needs chronic_abstraction: true")]

    @pytest.mark.parametrize("rename, name", [(False, "site"),
                                              (True, "healthcare clinic")])
    def test_duplicate_aggregate_name_rejected(self, rename, name, tmp_path,
                                               capsys):
        # Places are looked up by name, so a repeated name would send
        # initial tokens to the last aggregate of that name.
        data = chronic_data()
        if rename:
            # the abstraction names the outside aggregate after its one
            # buffer, here the clinic aggregate's name
            data = json.loads(json.dumps(data).replace(
                '"outside clinic"', f'"{name}"'))
            data["clinic_buffers"] = CLINIC
        else:
            _aggregated(["outside clinic"], CLINIC)(data)
            for aggregate in data["aggregation"]:
                aggregate["name"] = name
            data["initial_tokens"] = {name: 1}
        assert failures_of(data) == [
            ("aggregation-partition", f"duplicate aggregate name {name!r}")]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  aggregation-partition" in capsys.readouterr().out
        assert main(["dof", str(path)]) == 2

    def test_aggregation_excludes_the_abstraction(self):
        data = chronic_data()
        data["aggregation"] = [{"name": "all", "members": [
            *CLINIC, "outside clinic"]}]
        assert failures_of(data) == [
            ("aggregation-partition",
             "aggregation cannot be combined with chronic_abstraction: "
             "true")]


def _clone_tables(data, k):
    """Clone ``k``'s state values, event durations and branch weights."""
    assumed = data["assumed_values"]
    return (assumed["health_state_values"][f"patient-{k}"],
            assumed["health_event_durations"][f"patient-{k}"],
            assumed["health_event_weights"][f"patient-{k}"])


def _reweight(data):
    weights = _clone_tables(data, 2)[2]
    weights["Treat residual disease after gross-total resection"] = {
        "complete response": 0.4, "partial response": 0.2,
        "stable disease": 0.2, "progressive disease": 0.2}


def _revalue(data):
    _clone_tables(data, 2)[0]["healthy"] = 0.95


def _reschedule(data):
    _clone_tables(data, 2)[1]["Resect tumor"] = 0.25


def _realize_elsewhere(data):
    resect = data["individuals"][2]["health_events"][2]
    resect["realized_by"] = ["Perform radiation & chemotherapy treatment"]


def _reorder(data):
    data["individuals"][2]["health_states"].reverse()


class TestSharedNets:
    """Individuals whose health nets have the same content share one
    net and feasibility matrix; each keeps its own marking."""

    def test_clones_share_one_net(self):
        compiled = compile_scenario(load_scenario_data(
            chronic_clones(CLONE_OFFSETS)))
        inds = compiled.individuals
        assert len(inds) == len(CLONE_OFFSETS)
        assert len({id(ind.net) for ind in inds}) == 1
        assert len({id(ind.feasibility) for ind in inds}) == 1
        assert len({id(ind.initial) for ind in inds}) == len(inds)

    @pytest.mark.parametrize("mutate", [_reweight, _revalue, _reschedule,
                                        _realize_elsewhere, _reorder])
    def test_one_difference_gets_its_own_net(self, mutate):
        data = chronic_clones(CLONE_OFFSETS)
        mutate(data)
        inds = compile_scenario(load_scenario_data(data)).individuals
        others = [ind for k, ind in enumerate(inds) if k != 2]
        assert len({id(ind.net) for ind in others}) == 1
        assert inds[2].net is not others[0].net
        assert inds[2].feasibility is not others[0].feasibility

    @pytest.mark.parametrize("defect, check, message", [
        (lambda tables: tables[0].pop("healthy"), "health-values",
         "no value declared for state 'healthy'"),
        (lambda tables: tables[0].update(healthy=2.0), "health-values",
         "state values must lie in [0, 1]"),
        (lambda tables: tables[1].update({"Resect tumor": -1.0}),
         "durations", "event 'Resect tumor' has negative duration"),
    ], ids=["missing value", "value out of range", "negative duration"])
    def test_each_clone_reports_a_shared_defect(self, defect, check,
                                                message):
        data = chronic_clones(CLONE_OFFSETS)
        for k in range(len(CLONE_OFFSETS)):
            defect(_clone_tables(data, k))
        assert failures_of(data) == [
            (check, f"individual 'patient-{k}': {message}")
            for k in range(len(CLONE_OFFSETS))]

    def test_shared_arrays_are_read_only(self):
        (ind, *_) = compile_scenario(load_scenario_data(
            chronic_clones(CLONE_OFFSETS))).individuals
        for array in (ind.net.m_minus, ind.net.m_plus, ind.net.values,
                      ind.feasibility):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("mutate, tables", [(None, 1), (_revalue, 2)])
    def test_candidate_table_once_per_matrix(self, monkeypatch, mutate,
                                             tables):
        data = chronic_clones(CLONE_OFFSETS)
        if mutate:
            mutate(data)
        compiled = compile_scenario(load_scenario_data(data))
        calls = []

        def counted(feasibility):
            calls.append(feasibility)
            return candidate_table(feasibility)

        monkeypatch.setattr(coordination, "candidate_table", counted)
        compiled.run(mode="replay")
        assert len(calls) == tables
