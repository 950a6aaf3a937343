"""Scenario documents: load, validate, compile, and run simulations.

A scenario is a single JSON document describing the delivery system
(resources, processes, knowledge base, constraints), the individuals with
their health nets, and a timed schedule of delivery and spontaneous
health events. Numeric inputs that are modeling assumptions rather than
structural facts (durations, costs, state values, branch weights not
fixed by the case) live together in a clearly marked ``assumed_values``
section.

Loading checks the parsed JSON against one declarative schema
(:data:`SCHEMA`) in place, then compiles that same data, and reports
every failure found, not just the first one. The schema is compiled once, at
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
                           RunResult, Table, cosimulate)
from .delivery import DeliveryNet, Marking
from .errors import ScenarioError, ValidationError
from .health import HealthEvent, HealthEventKind, HealthMarking, HealthNet
from .structure import (Aggregation, BoolMatrix, Resource, ResourceClass,
                        Process, StructuralModel, apply_chronic_abstraction,
                        dof_key, enumerate_dof)

SCHEMA_VERSION = 1
DEFAULT_KEY = "default"

#: Validation categories in the order loading runs them, which is the
#: order ``validate`` reports them in.
CHECKS = (
    "parse", "schema", "cross-references", "resources", "processes",
    "knowledge-block-mask", "transport-endpoints",
    "resource-class-consistency", "constraints", "aggregation-partition",
    "projection-identity", "durations", "costs", "capacities",
    "incidence-column-sums", "initial-tokens", "health-states",
    "health-event-normalization", "health-values", "feasibility-tags",
    "initial-mass", "schedule-references", "schedule-order",
)


def _after(check: str) -> tuple[str, ...]:
    """The checks :data:`CHECKS` lists after ``check``: those a failure
    that stops loading once ``check`` has run keeps from running. Where
    a check it does not list stands is not known, so a stop there skips
    every check after the schema."""
    if check not in CHECKS:
        check = "schema"
    return CHECKS[CHECKS.index(check) + 1:]


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
#     must appear (compile says which wins when several do, or rejects
#     them);
#   - (key, node_a, node_b): node_a for an object holding key, else node_b.
#
# _checker compiles SCHEMA once, at import, into nested checker closures.
# A checker only records failures: it changes and copies nothing. A
# container checks its scalar items itself rather than through a checker
# per item, and passes each container item its path as a
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


def _number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _time(value) -> bool:
    return _number(value) and value >= 0


def _count(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and -2 ** 63 <= value < 2 ** 63)


def _string(value) -> bool:
    """Whether ``value`` is a string that UTF-8 can encode. A JSON
    ``\\ud800`` escape can put a lone surrogate in a string, and UTF-8
    cannot encode one."""
    if not isinstance(value, str):
        return False
    if value.isascii():
        return True
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _names(value, size=None) -> bool:
    return (isinstance(value, list) and len(value) > 0
            and all(map(_string, value)) and size in (None, len(value)))


#: Scalar name -> (whether a value is valid, what a valid one is).
_SCALARS = {
    "string": (_string, "a string"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "count": (_count, "a whole number"),
    "number": (_number, "a finite number"),
    # a branch weight; null defers it to the assumed-values section
    "deferred": (lambda v: v is None or _number(v), "a finite number"),
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
                 and not _string(item)), None)


def _not_utf8(col: _Collector, path, text: str, key: bool = False) -> None:
    col.add("schema", f"{_where(path) or 'document'}: {'key ' if key else ''}"
                      f"{text!r} is not text that UTF-8 can encode")


def _encodable_keys(value: dict, path, col: _Collector) -> dict:
    """``value`` without the keys UTF-8 cannot encode, each reported, so
    that no failure path holds one."""
    kept = {}
    for key, item in value.items():
        if isinstance(key, str) and not _string(key):
            _not_utf8(col, path, key, key=True)
        else:
            kept[key] = item
    return kept


def _child(node):
    """(valid, expected, None) for a scalar node, checked inline by its
    container; (None, None, checker) for any other node."""
    if isinstance(node, set):
        return ((lambda v: isinstance(v, str) and v in node),
                f"one of {sorted(node)}", None)
    if isinstance(node, str) and node in _SCALARS:
        return (*_SCALARS[node], None)
    return None, None, _checker(node)


def _weights(weight_node: str):
    """Checker for what a health event consumes or produces: a state name,
    a list of distinct states, or a mapping of state to a weight that matches
    ``weight_node`` (:func:`_weight_map` reads each form)."""
    weight_map = _mapping(weight_node)

    def check(value, path, col):
        if isinstance(value, str):
            if not _string(value):
                _not_utf8(col, path, value)
        elif isinstance(value, list):
            if not _names(value):
                unencodable = _unencodable(value)
                if unencodable is not None:
                    _not_utf8(col, path, unencodable)
                else:
                    col.add("schema",
                            f"{_where(path)}: branch list must name states")
            elif len(set(value)) != len(value):
                # _weight_map gives each listed state an equal share
                state = next(s for i, s in enumerate(value) if s in value[:i])
                col.add("schema", f"{_where(path)}: branch list names "
                                  f"{state!r} twice")
        elif isinstance(value, dict):
            weight_map(value, path, col)
        else:
            _expected(col, path, "a state, a list of states, or a mapping",
                      value)
    return check


def _list(item_node):
    valid, what, item_check = _child(item_node)

    def check(value, path, col):
        if not isinstance(value, list):
            _expected(col, path, "a list", value)
        elif item_check is not None:
            for i, item in enumerate(value):
                item_check(item, (path, i), col)
        else:
            for i, item in enumerate(value):
                if not valid(item):
                    _expected(col, (path, i), what, item)
    return check


def _mapping(item_node):
    valid, what, item_check = _child(item_node)

    def check(value, path, col):
        if not isinstance(value, dict):
            _expected(col, path, "an object", value)
            return
        if not all(isinstance(key, str) and key.isascii() for key in value):
            value = _encodable_keys(value, path, col)
        if item_check is not None:
            for key, item in value.items():
                item_check(item, (path, key), col)
        else:
            for key, item in value.items():
                if not valid(item):
                    _expected(col, (path, key), what, item)
    return check


def _fields(node: dict):
    """(fields, names, any_of) of an object node, where each field is
    (key, required, valid, expected, checker) as _child gives them."""
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
            return
        fields, names, any_of = other if switch in value else plain
        for key, required, valid, what, sub in fields:
            if key in value:
                item = value[key]
                if sub is not None:
                    sub(item, (path, key), col)
                elif not valid(item):
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
    return check


def _checker(node):
    """Compile a container schema node into ``check(value, path, col)``,
    which adds every failure of ``value`` to ``col`` under check
    ``schema`` and changes nothing."""
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
    """A scenario that passed the schema: ``data`` is the parsed JSON
    itself, not a copy, so callers must not mutate it after loading."""

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
    # the schedule, one tuple per field
    delivery_actions: Table
    health_actions: Table

    def run(self, mode: str = "replay", seed: int | None = 0) -> RunResult:
        return cosimulate(self.net, self.initial, self.individuals,
                          self.selector, self.delivery_actions,
                          self.health_actions, mode=mode, seed=seed)


def _build_model(data: dict, col: _Collector) -> StructuralModel | None:
    def by_rank(specs):
        # stable, so declaration order breaks ties within a class
        return sorted(specs, key=lambda s: _CLASS_NAMES[s["class"]].rank)

    resources = [Resource(spec["name"], _CLASS_NAMES[spec["class"]])
                 for spec in by_rank(data.get("resources", []))]
    res_index = {r.name: v for v, r in enumerate(resources)}
    # by_rank puts the buffers first, so a buffer's index is its resource's
    buffer_index = {r.name: v for v, r in enumerate(resources) if r.is_buffer}

    processes = []
    for spec in by_rank(data.get("processes", [])):
        cls = _CLASS_NAMES[spec["class"]]
        # an endpoint naming no buffer becomes -1, which no buffer has, so
        # StructuralModel.build rejects it on any class of process
        ends = [buffer_index.get(spec[label], -1) if label in spec else None
                for label in ("origin", "destination")]
        if cls is not ResourceClass.TRANSPORTATION:
            if ends != [None, None]:
                col.add("transport-endpoints",
                        f"non-transport process {spec['name']!r} must not "
                        f"carry transport endpoints")
        else:
            for label, end in zip(("origin", "destination"), ends):
                if end == -1:
                    col.add("transport-endpoints",
                            f"transport process {spec['name']!r} {label} "
                            f"{spec[label]!r} is not a buffer")
            if None in ends:
                col.add("transport-endpoints",
                        f"transport process {spec['name']!r} needs an origin "
                        f"and a destination buffer")
        processes.append(Process(spec["name"], cls, *ends))
    proc_index = {p.name: w for w, p in enumerate(processes)}

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

    def buffers(names, label):
        for name in names:
            if name not in buffer_index:
                col.add("cross-references",
                        f"{label} names unknown buffer {name!r}")
        return [buffer_index[name] for name in names if name in buffer_index]

    knowledge = resolve(data.get("knowledge_base", []), "knowledge base")
    constraints = resolve(data.get("constraints", []), "constraints")
    abstraction = data.get("chronic_abstraction", False)
    clinic = None
    if abstraction and "clinic_buffers" in data:
        clinic = buffers(data["clinic_buffers"], "clinic_buffers")
    if not abstraction and "aggregation" in data:
        names = tuple(agg["name"] for agg in data["aggregation"])
        members = [(i, b) for i, agg in enumerate(data["aggregation"])
                   for b in buffers(agg["members"], "aggregation")]
    # each capability key names one cell of the concept matrix
    cells = enumerate_dof(BoolMatrix((len(processes), len(resources)),
                                     frozenset(knowledge) - set(constraints)))
    keys: dict[str, tuple[str, str]] = {}
    for w, v in cells:
        pair = processes[w].name, resources[v].name
        first = keys.setdefault(dof_key(*pair), pair)
        if first != pair:  # the names join into a key already taken
            col.add("cross-references",
                    f"{first[0]!r} at {first[1]!r} and {pair[0]!r} at "
                    f"{pair[1]!r} share the capability key {dof_key(*pair)!r}")

    try:
        model = StructuralModel.build(resources, processes, knowledge,
                                      constraints)
        if "clinic_buffers" in data and not abstraction:
            raise ValidationError(
                "clinic_buffers needs chronic_abstraction: true",
                check="aggregation-partition")
        if "aggregation" in data and abstraction:
            raise ValidationError(
                "aggregation cannot be combined with chronic_abstraction: "
                "true", check="aggregation-partition")
        if abstraction:
            model = apply_chronic_abstraction(model, clinic)
        elif "aggregation" in data:
            aggregation = Aggregation(names, BoolMatrix.from_pairs(
                (len(names), model.n_buffers), members))
            model = StructuralModel.build(model.resources, model.processes,
                                          model.knowledge, model.constraints,
                                          aggregation)
    except ValidationError as exc:
        # the process loop above names every endpoint defect; build's stop
        # at the first one is recorded only when nothing else failed, so a
        # disagreement between the two rules still rejects the document
        if exc.check != "transport-endpoints" or not col:
            col.grab(exc)
        # and so a stop at a listed check before build's own endpoint
        # check does not skip it
        skipped = _after(exc.check)
        if exc.check in CHECKS:
            skipped = tuple(check for check in skipped
                            if check != "transport-endpoints")
        col.skip(skipped)
        return None
    return model


def _per_dof(dof_keys: dict[str, int], size: int, table: dict[str, float],
             what: str, col: _Collector) -> np.ndarray:
    default = table.get(DEFAULT_KEY)
    out = np.zeros(size)
    for key, psi in dof_keys.items():
        value = table.get(key, default)
        if value is None:
            col.add(what, f"no {what.rstrip('s')} declared for {key!r} and "
                          f"no default given")
        elif value < 0:
            col.add(what, f"{what.rstrip('s')} for {key!r} is negative")
        else:
            out[psi] = value
    for key in table:
        if key != DEFAULT_KEY and key not in dof_keys:
            col.add(what, f"{what} table names unknown capability {key!r}")
    return out


#: The per-individual sections of ``assumed_values``, each with the check
#: that reports a name in it that matches nothing.
_NET_TABLES = {"health_state_values": "health-values",
               "health_event_durations": "durations",
               "health_event_weights": "health-event-normalization"}


def _net_tables(ind: dict, assumed: dict) -> tuple[dict, dict, dict]:
    """The individual's entries in ``assumed_values``: state values, event
    durations and deferred branch weights."""
    return tuple(assumed.get(section, {}).get(ind["id"], {})
                 for section in _NET_TABLES)


def _weight_map(value) -> dict:
    """What a health event consumes or produces, as a mapping of state to
    weight: a state name weighs one, a list of states splits equally over
    the branches, and a mapping gives each weight (None defers it)."""
    if isinstance(value, str):
        return {value: 1.0}
    if isinstance(value, list):
        return dict.fromkeys(value, 1.0 / len(value))
    return value


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
    branches = [_weight_map(spec["produces"]) for spec in specs]
    for j, spec in enumerate(specs):
        for state, weight in _weight_map(spec["consumes"]).items():
            if state not in index:
                col.add("health-states",
                        f"{where}: event {spec['name']!r} consumes unknown "
                        f"state {state!r}")
                ok = False
            else:
                m_minus[index[state], j] = weight
        deferred = weights.get(spec["name"], {})
        for state, weight in branches[j].items():
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
            spec["name"], _EVENT_KINDS[spec["kind"]],
            realized_by=tuple(spec.get("realized_by", ())),
            duration=float(duration)))
    produces = {spec["name"]: out for spec, out in zip(specs, branches)}
    for name in durations:
        if name != DEFAULT_KEY and name not in produces:
            col.add("durations",
                    f"{where}: duration declared for unknown event {name!r}")
    for name, branches in weights.items():
        if name not in produces:
            col.add("health-event-normalization",
                    f"{where}: weights declared for unknown event {name!r}")
            continue
        for state in branches:
            if produces[name].get(state, 0) is not None:
                col.add("health-event-normalization",
                        f"{where}: event {name!r} does not defer the weight "
                        f"of branch {state!r}")
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
        return None
    ones = model.projection.apply(model.concept.vec_dense())
    if not np.array_equal(ones, np.ones(model.dof_count, dtype=int)):
        col.add("projection-identity", "projecting the vectorized concept "
                                       "matrix does not give all ones")

    assumed = data.get("assumed_values", {})
    dof_keys = {dof_key(p.name, r.name): psi
                for psi, p, r in model.dof_table()}
    durations, costs = (
        _per_dof(dof_keys, model.dof_count, assumed.get(what, {}), what, col)
        for what in ("durations", "costs"))

    capacities = np.ones(model.dof_count, dtype=int)
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
        col.skip(_after(exc.check))
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
    try:
        initial = Marking.initial(net, tokens)
    except ValidationError as exc:  # a total that int64 cannot hold
        col.grab(exc)
        initial = None

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
                col.skip(("feasibility-tags", "initial-mass",
                          "schedule-references"))
                continue
            clean = len(col.failures) == failures
            event_index = {ev.name: e for e, ev in enumerate(hnet.events)}
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

    for section, check in _NET_TABLES.items():
        for ind_id in assumed.get(section, {}):
            if ind_id not in nets:
                col.add(check, f"{section} names unknown individual "
                               f"{ind_id!r}")

    # The schedule goes into columns of atoms, one per field, so no object
    # is built per entry. Entries naming the same events share one tuple.
    delivery_columns = tuple([] for _ in DeliveryAction._fields)
    health_columns = tuple([] for _ in HealthAction._fields)
    (add_delivery_time, add_psi, add_delivery_individual,
     add_delivery_outcome) = (column.append for column in delivery_columns)
    (add_health_time, add_health_individual, add_events, add_health_outcome,
     add_optional) = (column.append for column in health_columns)
    event_groups: dict[tuple[int, ...], tuple[int, ...]] = {}
    last_time = None
    for i, entry in enumerate(data.get("schedule", [])):
        time = float(entry["time"])
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
            if (outcome is not None
                    and entry["process"] not in transform_names):
                # only a transformation starts a health event, whose
                # branch the outcome names; the kernel ignores any other
                col.add("schedule-references",
                        f"schedule[{i}]: {key!r} realizes no health event, "
                        f"so it takes no outcome")
                continue
            add_delivery_time(time)
            add_psi(dof_keys[key])
            add_delivery_individual(entry["individual"])
            add_delivery_outcome(outcome)
        elif "event" in entry and "event_group" in entry:
            col.add("schedule-references", f"schedule[{i}]: names both an "
                                           f"event and an event_group")
        else:
            events = []
            ok = True
            names = ([entry["event"]] if "event" in entry
                     else entry["event_group"])
            for k, name in enumerate(names):
                index = event_index.get(name)
                if name in names[:k]:
                    col.add("schedule-references",
                            f"schedule[{i}]: event group names {name!r} "
                            f"twice")
                    ok = False
                elif index is None:
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
                events = tuple(events)
                add_health_time(time)
                add_health_individual(entry["individual"])
                add_events(event_groups.setdefault(events, events))
                add_health_outcome(outcome)
                add_optional(entry.get("optional", False))

    if col:
        return None
    return CompiledScenario(
        doc, model, net, initial, tuple(individuals), selector,
        Table(DeliveryAction, map(tuple, delivery_columns)),
        Table(HealthAction, map(tuple, health_columns)))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def load_scenario_data(data: Any) -> ScenarioDocument:
    """Schema-check and compile already-parsed JSON data.

    The returned document wraps ``data`` itself: loading neither copies
    nor changes it, and callers must not mutate it after loading, since
    compiling the document reads it again. Raises :class:`ScenarioError`
    carrying every failure found.
    """
    col = _Collector()
    _ROOT(data, (), col)
    if not col and data["schema_version"] != SCHEMA_VERSION:
        col.add("schema", f"unsupported schema_version "
                          f"{data['schema_version']}; this engine reads "
                          f"version {SCHEMA_VERSION}")
    if col:
        col.skip(_after("schema"))
        raise col.error()
    doc = ScenarioDocument(data)
    _compile(doc, col)
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
