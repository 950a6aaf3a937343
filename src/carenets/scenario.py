"""Scenario documents: load, validate, compile, and run simulations.

A scenario is a single JSON document describing the delivery system
(resources, processes, knowledge base, constraints), the individuals with
their health nets, and a timed schedule of delivery and spontaneous
health events. Numeric inputs that are modeling assumptions rather than
structural facts (durations, costs, state values, branch weights not
fixed by the case) live together in a clearly marked ``assumed_values``
section.

Loading checks the parsed JSON against one declarative schema
(:data:`SCHEMA`), then compiles the normalized data, and reports every
failure found, not just the first one. The schema is compiled once, at
import, into checker closures; the path of a failing value (such as
``schedule[12].time``) is formatted only when a failure is recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import coordination, health
from .coordination import (DeliveryAction, HealthAction, Individual,
                           RunResult, cosimulate)
from .delivery import DeliveryNet, Marking
from .errors import ScenarioError, ValidationError
from .health import HealthEvent, HealthEventKind, HealthMarking, HealthNet
from .structure import (BUILD_CHECKS, Aggregation, BoolMatrix, Resource,
                        ResourceClass, Process, StructuralModel,
                        apply_chronic_abstraction,
                        transport_endpoint_failures)

SCHEMA_VERSION = 1
DEFAULT_KEY = "default"

#: Validation categories in report order.
CHECKS = (
    "parse", "schema", "resources", "processes", "cross-references",
    "knowledge-block-mask", "resource-class-consistency",
    "transport-endpoints", "constraints", "aggregation-partition",
    "durations", "costs", "capacities", "initial-tokens",
    "incidence-column-sums", "projection-identity", "health-states",
    "health-event-normalization", "health-values", "initial-mass",
    "feasibility-tags", "schedule-references", "schedule-order",
)


def _after(check: str) -> tuple[str, ...]:
    """The checks :data:`CHECKS` lists after ``check``: those a failure
    that stops loading once ``check`` has run keeps from running."""
    return CHECKS[CHECKS.index(check) + 1:]


def dof_key(process: str, resource: str) -> str:
    """Key addressing one degree of freedom in duration/cost tables."""
    return f"{process} @ {resource}"


class _Collector:
    """Accumulates (check, message) validation failures and the checks
    that a failure kept from running."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []
        self.skipped: list[str] = []

    def add(self, check: str, message: str) -> None:
        self.failures.append((check, message))

    def grab(self, exc: ValidationError) -> None:
        self.failures.append((exc.check, str(exc)))

    def skip(self, checks: tuple[str, ...]) -> None:
        self.skipped.extend(checks)

    def error(self) -> ScenarioError:
        return ScenarioError(self.failures, self.skipped)

    def __bool__(self) -> bool:
        return bool(self.failures)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------
#
# A schema node is one of:
#   - a scalar name from _SCALARS, or "weights" / "branches" for what a
#     health event consumes / produces (see _weights);
#   - a set of strings, one of which the value must be;
#   - [node]: a list whose items match node;
#   - {"*": node}: an object mapping any name to a value matching node;
#   - {key: node, ...}: an object with exactly these keys, where "key?"
#     marks an optional key and "$any_of" lists keys of which at least one
#     must appear (compile says which wins when several do);
#   - (key, node_a, node_b): node_a for an object holding key, else node_b.
#
# _checker compiles SCHEMA once, at import, into nested checker closures.
# A container normalizes its scalar items itself rather than through a
# checker per item, and passes each container item its path as a
# (parent path, key) pair; _where formats a path only when a failure is
# recorded.
#
# "title", "notes", "note" and "human" are annotations for readers of the
# document: the schema checks their type and nothing reads them.

_CLASS_NAMES = {c.value: c for c in ResourceClass}
_CLASSES = set(_CLASS_NAMES)
_EVENT_KINDS = {k.value: k for k in HealthEventKind}
_ENTRY = {"time": "time", "individual": "string", "outcome?": "string",
          "note?": "string"}

SCHEMA = {
    "schema_version": "count",
    "name": "string",
    "title?": "string",
    "notes?": ["string"],
    "resources?": [{"name": "string", "class": _CLASSES,
                    "human?": "boolean", "note?": "string"}],
    "processes?": [{"name": "string", "class": _CLASSES,
                    "origin?": "string", "destination?": "string",
                    "note?": "string"}],
    "knowledge_base?": ["pair"],
    "constraints?": ["pair"],
    "chronic_abstraction?": "boolean",
    "clinic_buffers?": ["string"],
    "aggregation?": [{"name": "string", "members": ["string"]}],
    "initial_tokens?": {"*": "count"},
    "transition_capacities?": {"*": "count"},
    "individuals?": [{
        "id": "string",
        "health_states": ["string"],
        "health_events?": [{
            "name": "string", "kind": set(_EVENT_KINDS),
            "consumes": "weights", "produces": "branches",
            "realized_by?": ["string"], "note?": "string"}],
        "initial_state?": "string",
        "initial_marking?": {"*": "number"},
        "$any_of": ("initial_state", "initial_marking"),
        "note?": "string"}],
    "schedule?": [(
        "process",
        {**_ENTRY, "process": "string", "resource": "string"},
        {**_ENTRY, "event?": "string", "event_group?": "names",
         "$any_of": ("event", "event_group"), "optional?": "boolean"})],
    "assumed_values?": {
        "note?": "string",
        "durations?": {"*": "number"},
        "costs?": {"*": "number"},
        "health_state_values?": {"*": {"*": "number"}},
        "health_event_weights?": {"*": {"*": {"*": "number"}}},
        "health_event_durations?": {"*": {"*": "number"}},
    },
}


_BAD = object()


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _BAD
    try:
        value = float(value)
    except OverflowError:
        return _BAD
    return value if math.isfinite(value) else _BAD


def _time(value):
    value = _number(value)
    return _BAD if value is _BAD or value < 0 else value


def _count(value):
    whole = isinstance(value, int) and not isinstance(value, bool)
    return value if whole and -2 ** 63 <= value < 2 ** 63 else _BAD


def _string(value):
    """``value`` if it is a string that UTF-8 can encode, else _BAD. A JSON
    ``\\ud800`` escape can put a lone surrogate in a string, and UTF-8
    cannot encode one."""
    if not isinstance(value, str):
        return _BAD
    if value.isascii():
        return value
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return _BAD
    return value


def _names(value, size=None):
    ok = (isinstance(value, list) and value
          and all(_string(x) is not _BAD for x in value)
          and size in (None, len(value)))
    return value if ok else _BAD


#: Scalar name -> (normalize a value or return _BAD, what a valid one is).
_SCALARS = {
    "string": (_string, "a string"),
    "boolean": (lambda v: v if isinstance(v, bool) else _BAD,
                "true or false"),
    "count": (_count, "a whole number"),
    "number": (_number, "a finite number"),
    # a branch weight; null defers it to the assumed-values section
    "deferred": (lambda v: None if v is None else _number(v),
                 "a finite number"),
    "time": (_time, "a finite number >= 0"),
    "pair": (lambda v: _names(v, size=2), "a [process, resource] pair"),
    "names": (_names, "a nonempty list of names"),
}


def _where(path) -> str:
    """Format a path of nested (parent, key) pairs, list indices as
    ``[i]`` and keys dotted: ``schedule[12].time``; the root is ``""``."""
    if not path:
        return ""
    parent, key = path
    head = _where(parent)
    if isinstance(key, int):
        return f"{head}[{key}]"
    return f"{head}.{key}" if head else key


def _shown(value) -> str:
    """How a rejected JSON value is named in a failure message."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    return repr(value)


def _expected(col: _Collector, path, what: str, value) -> None:
    unencodable = _unencodable(value)
    if unencodable is not None:
        _not_utf8(col, path, unencodable)
        return
    col.add("schema", f"{_where(path) or 'document'}: expected {what}, got "
                      f"{_shown(value)}")


def _unencodable(value) -> str | None:
    """The string, or first string of a list, that UTF-8 cannot encode."""
    items = value if isinstance(value, list) else [value]
    return next((item for item in items if isinstance(item, str)
                 and _string(item) is _BAD), None)


def _not_utf8(col: _Collector, path, text: str, key: bool = False) -> None:
    col.add("schema", f"{_where(path) or 'document'}: {'key ' if key else ''}"
                      f"{text!r} is not text that UTF-8 can encode")


def _encodable_keys(value: dict, path, col: _Collector) -> dict:
    """``value`` without the keys UTF-8 cannot encode, each reported, so
    that no failure path holds one."""
    kept = {}
    for key, item in value.items():
        if isinstance(key, str) and _string(key) is _BAD:
            _not_utf8(col, path, key, key=True)
        else:
            kept[key] = item
    return kept


def _child(node):
    """(normalize, expected, None) for a scalar node, checked inline by
    its container; (None, None, checker) for any other node."""
    if isinstance(node, set):
        return ((lambda v: v if isinstance(v, str) and v in node else _BAD),
                f"one of {sorted(node)}", None)
    if isinstance(node, str) and node in _SCALARS:
        return (*_SCALARS[node], None)
    return None, None, _checker(node)


def _weights(weight_node: str):
    """Checker normalizing what a health event consumes or produces to a
    mapping of state to weight: a state name weighs one, a list of states
    splits equally over the branches, and a mapping gives each weight,
    checked against ``weight_node``."""
    weight_map = _mapping(weight_node)

    def check(value, path, col):
        if isinstance(value, str):
            if _string(value) is _BAD:
                _not_utf8(col, path, value)
            return {value: 1.0}
        if isinstance(value, list):
            if _names(value) is _BAD:
                unencodable = _unencodable(value)
                if unencodable is not None:
                    _not_utf8(col, path, unencodable)
                else:
                    col.add("schema",
                            f"{_where(path)}: branch list must name states")
                return None
            return dict.fromkeys(value, 1.0 / len(value))
        if isinstance(value, dict):
            return weight_map(value, path, col)
        _expected(col, path, "a state, a list of states, or a mapping",
                  value)
        return None
    return check


def _list(item_node):
    normalize, what, item_check = _child(item_node)

    def check(value, path, col):
        if not isinstance(value, list):
            _expected(col, path, "a list", value)
            return None
        if item_check is not None:
            return [item_check(item, (path, i), col)
                    for i, item in enumerate(value)]
        out = list(map(normalize, value))
        for i, norm in enumerate(out):
            if norm is _BAD:
                _expected(col, (path, i), what, value[i])
        return out
    return check


def _mapping(item_node):
    normalize, what, item_check = _child(item_node)

    def check(value, path, col):
        if not isinstance(value, dict):
            _expected(col, path, "an object", value)
            return None
        if not all(isinstance(key, str) and key.isascii() for key in value):
            value = _encodable_keys(value, path, col)
        if item_check is not None:
            return {key: item_check(item, (path, key), col)
                    for key, item in value.items()}
        out = {}
        for key, item in value.items():
            out[key] = norm = normalize(item)
            if norm is _BAD:
                _expected(col, (path, key), what, item)
        return out
    return check


def _fields(node: dict):
    """(fields, names, any_of) of an object node, where each field is
    (key, required, normalize, expected, checker) as _child gives them."""
    fields = tuple((key.rstrip("?"), key[-1] != "?", *_child(sub))
                   for key, sub in node.items() if key != "$any_of")
    return (fields, frozenset(field[0] for field in fields),
            node.get("$any_of", ()))


def _object(node: dict, switch: str | None = None,
            alternative: dict | None = None):
    """Checker for an object node; with ``switch``, an object holding
    that key is checked against ``alternative`` instead."""
    plain = _fields(node)
    other = _fields(alternative) if switch is not None else plain

    def check(value, path, col):
        if not isinstance(value, dict):
            _expected(col, path, "an object", value)
            return None
        fields, names, any_of = other if switch in value else plain
        out = {}
        for key, required, normalize, what, sub in fields:
            if key in value:
                item = value[key]
                if sub is not None:
                    out[key] = sub(item, (path, key), col)
                    continue
                out[key] = norm = normalize(item)
                if norm is _BAD:
                    _expected(col, (path, key), what, item)
            elif required:
                col.add("schema", f"{_where(path) or 'document'}: missing "
                                  f"required key {key!r}")
        if not names.issuperset(value):
            unknown = [key for key in value if key not in names]
            col.add("schema", f"{_where(path) or 'document'}: unknown keys "
                              f"{sorted(unknown)}")
        if any_of and not any(key in value for key in any_of):
            col.add("schema",
                    f"{_where(path)}: needs one of {list(any_of)}")
        return out
    return check


def _checker(node):
    """Compile a container schema node into ``check(value, path, col)``,
    which returns ``value`` normalized and adds every failure to ``col``
    under check ``schema``; the result is only meaningful when none was
    added."""
    if node == "weights":
        return _weights("number")
    if node == "branches":
        return _weights("deferred")
    if isinstance(node, list):
        return _list(node[0])
    if isinstance(node, tuple):
        switch, with_key, without = node
        return _object(without, switch, with_key)
    if "*" in node:
        return _mapping(node["*"])
    return _object(node)


_ROOT = _checker(SCHEMA)


@dataclass(frozen=True)
class ScenarioDocument:
    """A scenario that passed the schema, as normalized JSON data: every
    number a float except counts, and consumes/produces as mappings."""

    data: dict[str, Any]

    @property
    def name(self) -> str:
        return self.data["name"]


# ---------------------------------------------------------------------------
# Document -> executable objects
# ---------------------------------------------------------------------------

@dataclass
class CompiledScenario:
    doc: ScenarioDocument
    model: StructuralModel
    net: DeliveryNet
    initial: Marking
    individuals: tuple[Individual, ...]
    selector: np.ndarray
    delivery_actions: tuple[DeliveryAction, ...]
    health_actions: tuple[HealthAction, ...]

    def run(self, mode: str = "replay", seed: int | None = 0) -> RunResult:
        return cosimulate(self.net, self.initial, self.individuals,
                          self.selector, self.delivery_actions,
                          self.health_actions, mode=mode, seed=seed)


def _build_model(data: dict, col: _Collector) -> StructuralModel | None:
    def by_rank(specs):
        # stable, so declaration order breaks ties within a class
        return sorted(specs, key=lambda s: _CLASS_NAMES[s["class"]].rank)

    resources = [Resource(i, spec["name"], _CLASS_NAMES[spec["class"]])
                 for i, spec in enumerate(by_rank(data.get("resources", [])))]
    res_index = {r.name: r.id for r in resources}
    buffer_index = {r.name: r.id for r in resources if r.is_buffer}

    processes = []
    lacking = []  # transport processes the document gives no endpoint
    for new_id, spec in enumerate(by_rank(data.get("processes", []))):
        cls = _CLASS_NAMES[spec["class"]]
        origin = destination = None
        if cls is ResourceClass.TRANSPORTATION:
            # StructuralModel.build reports a missing endpoint
            if "origin" not in spec or "destination" not in spec:
                lacking.append(new_id)
            for label in ("origin", "destination"):
                end = spec.get(label)
                if end is not None and end not in buffer_index:
                    col.add("transport-endpoints",
                            f"transport process {spec['name']!r} {label} "
                            f"{end!r} is not a buffer")
            origin = buffer_index.get(spec.get("origin"))
            destination = buffer_index.get(spec.get("destination"))
        processes.append(Process(new_id, spec["name"], cls,
                                 origin=origin, destination=destination))
    proc_index = {p.name: p.id for p in processes}

    def resolve(pairs, label):
        resolved = []
        for pname, rname in pairs:
            if pname not in proc_index:
                col.add("cross-references",
                        f"{label} names unknown process {pname!r}")
            elif rname not in res_index:
                col.add("cross-references",
                        f"{label} names unknown resource {rname!r}")
            else:
                resolved.append((proc_index[pname], res_index[rname]))
        return resolved

    knowledge = resolve(data.get("knowledge_base", []), "knowledge base")
    constraints = resolve(data.get("constraints", []), "constraints")
    try:
        model = StructuralModel.build(resources, processes, knowledge,
                                      constraints)
    except ValidationError as exc:
        if exc.check == "transport-endpoints":
            # build names only the first process without two buffer
            # endpoints: name each one the document gives none instead
            # (one naming a non-buffer is already reported above)
            for message in transport_endpoint_failures(
                    [processes[w] for w in lacking], resources):
                col.add(exc.check, message)
        else:
            col.grab(exc)
        if exc.check in BUILD_CHECKS:
            col.skip(BUILD_CHECKS[BUILD_CHECKS.index(exc.check) + 1:])
        return None

    abstraction = data.get("chronic_abstraction", False)
    if "clinic_buffers" in data and not abstraction:
        col.add("aggregation-partition",
                "clinic_buffers needs chronic_abstraction: true")
        return None
    if "aggregation" in data and abstraction:
        col.add("aggregation-partition",
                "aggregation cannot be combined with chronic_abstraction: "
                "true")
        return None
    if abstraction:
        clinic = None
        if "clinic_buffers" in data:
            clinic = []
            for name in data["clinic_buffers"]:
                if name not in buffer_index:
                    col.add("cross-references",
                            f"clinic_buffers names unknown buffer {name!r}")
                else:
                    clinic.append(buffer_index[name])
        try:
            model = apply_chronic_abstraction(model, clinic)
        except ValidationError as exc:
            col.grab(exc)
            return None
    elif "aggregation" in data:
        pairs = []
        names = []
        for i, agg in enumerate(data["aggregation"]):
            names.append(agg["name"])
            for member in agg["members"]:
                if member not in buffer_index:
                    col.add("cross-references",
                            f"aggregation names unknown buffer {member!r}")
                else:
                    pairs.append((i, buffer_index[member]))
        try:
            aggregation = Aggregation(
                tuple(names),
                BoolMatrix.from_pairs((len(names), model.n_buffers), pairs))
            model = StructuralModel.build(model.resources, model.processes,
                                          model.knowledge, model.constraints,
                                          aggregation)
        except ValidationError as exc:
            col.grab(exc)
            return None
    return model


def _per_dof(model: StructuralModel, table: dict[str, float], what: str,
             col: _Collector) -> np.ndarray:
    default = table.get(DEFAULT_KEY)
    out = np.zeros(model.dof_count)
    known = {DEFAULT_KEY}
    for psi, (w, v) in enumerate(model.dof_list):
        key = dof_key(model.processes[w].name, model.resources[v].name)
        known.add(key)
        value = table.get(key, default)
        if value is None:
            col.add(what, f"no {what.rstrip('s')} declared for {key!r} and "
                          f"no default given")
        elif value < 0:
            col.add(what, f"{what.rstrip('s')} for {key!r} is negative")
        else:
            out[psi] = value
    for key in table:
        if key not in known:
            col.add(what, f"{what} table names unknown capability {key!r}")
    return out


def _net_tables(ind: dict, assumed: dict) -> tuple[dict, dict, dict]:
    """The individual's entries in ``assumed_values``: state values, event
    durations and deferred branch weights."""
    return tuple(assumed.get(section, {}).get(ind["id"], {})
                 for section in ("health_state_values",
                                 "health_event_durations",
                                 "health_event_weights"))


def _build_health_net(ind: dict, assumed: dict,
                      col: _Collector) -> HealthNet | None:
    where = f"individual {ind['id']!r}"
    declared, durations, weights = _net_tables(ind, assumed)
    states = ind["health_states"]
    # HealthNet rejects repeated names too; these messages say whose
    ok = len(set(states)) == len(states)
    if not ok:
        col.add("health-states", f"{where}: duplicate health states")
    index = {s: i for i, s in enumerate(states)}
    specs = ind.get("health_events", [])
    if len({spec["name"] for spec in specs}) != len(specs):
        col.add("health-states", f"{where}: duplicate health events")
        ok = False

    values = np.zeros(len(states))
    for i, state in enumerate(states):
        if state not in declared:
            col.add("health-values",
                    f"{where}: no value declared for state {state!r}")
        else:
            values[i] = declared[state]
    for state in declared:
        if state not in index:
            col.add("health-values",
                    f"{where}: value declared for unknown state {state!r}")

    m_minus = np.zeros((len(states), len(specs)))
    m_plus = np.zeros((len(states), len(specs)))
    events = []
    for j, spec in enumerate(specs):
        for state, weight in spec["consumes"].items():
            if state not in index:
                col.add("health-states",
                        f"{where}: event {spec['name']!r} consumes unknown "
                        f"state {state!r}")
                ok = False
            else:
                m_minus[index[state], j] = weight
        deferred = weights.get(spec["name"], {})
        for state, weight in spec["produces"].items():
            if state not in index:
                col.add("health-states",
                        f"{where}: event {spec['name']!r} produces unknown "
                        f"state {state!r}")
                ok = False
                continue
            if weight is None:
                if state not in deferred:
                    col.add("health-event-normalization",
                            f"{where}: event {spec['name']!r} defers the "
                            f"weight of branch {state!r} to assumed_values "
                            f"but none is declared")
                    ok = False
                    continue
                weight = deferred[state]
            m_plus[index[state], j] = weight
        duration = durations.get(spec["name"], durations.get(DEFAULT_KEY, 0.0))
        events.append(HealthEvent(
            j, spec["name"], _EVENT_KINDS[spec["kind"]],
            realized_by=tuple(spec.get("realized_by", ())),
            duration=duration))
    if not ok:
        return None
    try:
        return HealthNet(tuple(states), tuple(events), m_minus, m_plus,
                         values)
    except ValidationError as exc:
        col.add(exc.check, f"{where}: {exc}")
        return None


def _compile(doc: ScenarioDocument, col: _Collector) -> CompiledScenario | None:
    data = doc.data
    model = _build_model(data, col)
    if model is None:
        col.skip(_after("aggregation-partition"))
        return None

    assumed = data.get("assumed_values", {})
    durations = _per_dof(model, assumed.get("durations", {}), "durations",
                         col)
    costs = _per_dof(model, assumed.get("costs", {}), "costs", col)

    capacities = np.ones(model.dof_count, dtype=int)
    dof_keys = {dof_key(model.processes[w].name, model.resources[v].name): i
                for i, (w, v) in enumerate(model.dof_list)}
    for key, cap in data.get("transition_capacities", {}).items():
        if key not in dof_keys:
            col.add("capacities", f"capacity names unknown capability "
                                  f"{key!r}")
        elif cap < 1:
            col.add("capacities", f"capacity for {key!r} must be at least 1")
        else:
            capacities[dof_keys[key]] = cap

    try:
        net = DeliveryNet.from_model(model, durations, costs, capacities)
    except ValidationError as exc:
        col.grab(exc)
        col.skip(_after("capacities"))
        return None

    place_index = {name: i for i, name in enumerate(net.place_names)}
    tokens = np.zeros(net.n_places, dtype=int)
    for name, count in data.get("initial_tokens", {}).items():
        if name not in place_index:
            col.add("initial-tokens",
                    f"initial tokens name unknown place {name!r}")
        elif count < 0:
            col.add("initial-tokens", f"token count for {name!r} is "
                                      f"negative")
        else:
            tokens[place_index[name]] = count
    initial = Marking.initial(net, tokens)

    transform_names = [p.name for p in model.transformation_processes]
    selector = coordination.build_transform_selector(model)

    individuals = []
    # id -> (health net, event name -> event index), or None for an
    # individual whose health net failed to build
    nets: dict[str, tuple[HealthNet, dict[str, int]] | None] = {}
    # Individuals whose nets have the same content share one net, event
    # index and feasibility matrix: tuple(health_states) -> [(content,
    # (net, event index, feasibility))], the content compared with ==.
    # Only nets that built with no failure are kept, so a failing net is
    # built, and reported, once per individual.
    shared: dict[tuple, list[tuple[tuple, tuple]]] = {}
    for ind in data.get("individuals", []):
        if ind["id"] in nets:
            col.add("health-states", f"duplicate individual id {ind['id']!r}")
            continue
        content = (ind.get("health_events", []), *_net_tables(ind, assumed))
        bucket = shared.setdefault(tuple(ind["health_states"]), [])
        built = next((entry for key, entry in bucket if key == content), None)
        if built is None:
            failures = len(col.failures)
            hnet = _build_health_net(ind, assumed, col)
            if hnet is None:
                # the checks that need the net do not run for this
                # individual
                nets[ind["id"]] = None
                col.skip(("initial-mass", "feasibility-tags",
                          "schedule-references"))
                continue
            clean = len(col.failures) == failures
            event_index = {ev.name: ev.index for ev in hnet.events}
        else:
            hnet, event_index, feas = built
        nets[ind["id"]] = hnet, event_index
        masses = (ind["initial_marking"] if "initial_marking" in ind
                  else {ind["initial_state"]: 1.0})
        try:
            marking = HealthMarking.from_distribution(hnet, masses)
            health.check_unit_mass(marking)
        except ValidationError as exc:
            # a mass on an unknown state fails the mass check too
            col.add("initial-mass", str(exc))
            marking = HealthMarking.point(hnet, 0)
        if built is None:
            try:
                feas = coordination.build_feasibility(hnet, transform_names)
            except ValidationError as exc:
                col.grab(exc)
                continue
            if clean:
                # a write through one individual would reach its clones
                for array in (hnet.m_minus, hnet.m_plus, hnet.values, feas):
                    array.flags.writeable = False
                bucket.append((content, (hnet, event_index, feas)))
        individuals.append(Individual(ind["id"], hnet, marking, feas))

    delivery_actions = []
    health_actions = []
    last_time = None
    for i, entry in enumerate(data.get("schedule", [])):
        time = entry["time"]
        if last_time is not None and time < last_time:
            col.add("schedule-order",
                    f"schedule[{i}]: time {time} precedes the previous "
                    f"entry at {last_time}")
        last_time = time
        if entry["individual"] not in nets:
            col.add("schedule-references",
                    f"schedule[{i}]: unknown individual "
                    f"{entry['individual']!r}")
            continue
        if nets[entry["individual"]] is None:
            continue
        hnet, event_index = nets[entry["individual"]]
        outcome = None
        if "outcome" in entry:
            try:
                outcome = hnet.state_index(entry["outcome"])
            except ValidationError:
                col.add("schedule-references",
                        f"schedule[{i}]: unknown outcome state "
                        f"{entry['outcome']!r}")
                continue
        if "process" in entry:
            key = dof_key(entry["process"], entry["resource"])
            if key not in dof_keys:
                col.add("schedule-references",
                        f"schedule[{i}]: {key!r} is not an available "
                        f"capability")
                continue
            delivery_actions.append(DeliveryAction(
                time, dof_keys[key], entry["individual"], outcome))
        else:
            events = []
            ok = True
            names = ([entry["event"]] if "event" in entry
                     else entry["event_group"])
            for name in names:
                index = event_index.get(name)
                if index is None:
                    col.add("schedule-references",
                            f"schedule[{i}]: unknown health event {name!r}")
                    ok = False
                elif not hnet.events[index].is_stochastic:
                    col.add("schedule-references",
                            f"schedule[{i}]: health event {name!r} is "
                            f"induced by the delivery system and cannot be "
                            f"scheduled directly")
                    ok = False
                else:
                    events.append(index)
            if ok:
                health_actions.append(HealthAction(
                    time, entry["individual"], tuple(events), outcome,
                    entry.get("optional", False)))

    if col:
        return None
    return CompiledScenario(doc, model, net, initial, tuple(individuals),
                            selector, tuple(delivery_actions),
                            tuple(health_actions))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def load_scenario_data(data: Any) -> ScenarioDocument:
    """Schema-check and compile already-parsed JSON data.

    Raises :class:`ScenarioError` carrying every failure found.
    """
    col = _Collector()
    doc = ScenarioDocument(_ROOT(data, (), col))
    if not col and doc.data["schema_version"] != SCHEMA_VERSION:
        col.add("schema", f"unsupported schema_version "
                          f"{doc.data['schema_version']}; this engine reads "
                          f"version {SCHEMA_VERSION}")
    if col:
        col.skip(_after("schema"))
        raise col.error()
    compiled = _compile(doc, col)
    if compiled is None:
        col.skip(("projection-identity",))
    else:
        model = compiled.model
        ones = model.projection.apply(model.concept.vec_dense())
        if not np.array_equal(ones, np.ones(model.dof_count, dtype=int)):
            col.add("projection-identity",
                    "projecting the vectorized concept matrix does not give "
                    "all ones")
    if col:
        raise col.error()
    return doc


def load_scenario(path: str | Path) -> ScenarioDocument:
    """Read, parse, schema-check and compile a scenario file.

    Raises :class:`ScenarioError` carrying every failure found, or a
    parse failure with its line and column.
    """
    def failed(message: str) -> ScenarioError:
        return ScenarioError([("parse", message)], _after("parse"))

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise failed(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise failed(f"{path}: byte {exc.start} is not UTF-8") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise failed(f"{path}: line {exc.lineno} column {exc.colno}: "
                     f"{exc.msg}") from exc
    return load_scenario_data(data)


def compile_scenario(doc: ScenarioDocument) -> CompiledScenario:
    """Compile a validated document into executable simulation objects."""
    col = _Collector()
    compiled = _compile(doc, col)
    if col or compiled is None:
        raise col.error()
    return compiled


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str              # "pass", "fail", or "skipped"
    messages: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}
            out.append(f"{mark[r.status]}  {r.check}")
            out.extend(f"      {m}" for m in r.messages)
        return out


def validate_file(path: str | Path) -> ValidationReport:
    """Run every check :func:`load_scenario` runs and report each one.

    A failure outside :data:`CHECKS` is reported after them, so the
    report fails exactly when loading would. A check that an earlier
    failure kept from running is reported as skipped, not passed.
    """
    try:
        load_scenario(path)
        failures, skipped = [], ()
    except ScenarioError as exc:
        failures, skipped = exc.failures, exc.skipped
    failed: dict[str, list[str]] = {}
    for check, message in failures:
        failed.setdefault(check, []).append(message)
    results = []
    for check in CHECKS + tuple(c for c in failed if c not in CHECKS):
        if check in failed:
            results.append(CheckResult(check, "fail",
                                       tuple(failed[check])))
        elif check in skipped:
            results.append(CheckResult(check, "skipped"))
        else:
            results.append(CheckResult(check, "pass"))
    return ValidationReport(tuple(results))
