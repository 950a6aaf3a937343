"""Span tracing of the program from outside: wrappers rebound where called.

The program has no tracing of its own, so :class:`Tracer` rebinds the
public functions of each module to wrappers that record one span per call
(id, name, start, end, parent, operation, detail) in memory. Each name is
rebound where it is looked up at call time: ``coordination`` imports
``step`` by name and ``scenario`` imports ``HealthNet`` and ``cosimulate``
by name, while ``health.*`` is called through the module. Leaving the
``with`` block restores every original binding.

Wrappers are safe under the thread pool behind ``simulate --runs``: each
thread keeps its own stack of open spans, and a span opened on a pool
thread with an empty stack takes the innermost open span of the thread
that entered the tracer as its parent. ``list.append`` and ``next`` on an
``itertools.count`` are atomic under the interpreter lock, so no lock is
taken per call.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

from carenets import cli, coordination, delivery, health, reports, scenario
from carenets import structure

MODULES = ("cli", "scenario", "structure", "delivery", "health",
           "coordination", "reports")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    detail: object

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def _run_counts(args, kwargs, result):
    return len(result.trace), len(result.coupling_checks)


# (owner, attribute, span name, detail recorded from the call).
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "load_scenario", "scenario.load_scenario", None),
    (cli, "compile_scenario", "scenario.compile_scenario", None),
    (cli, "validate_file", "scenario.validate_file", None),
    (cli, "simulate_to_dir", "reports.simulate_to_dir", None),
    (reports, "compile_scenario", "scenario.compile_scenario", None),
    (scenario, "load_scenario_data", "scenario.load_scenario_data", None),
    (scenario, "apply_chronic_abstraction",
     "structure.apply_chronic_abstraction", None),
    (structure.StructuralModel, "build", "structure.StructuralModel.build",
     None),
    (delivery.DeliveryNet, "from_model", "delivery.DeliveryNet.from_model",
     None),
    (scenario, "HealthNet", "health.HealthNet", None),
    (coordination, "build_feasibility", "coordination.build_feasibility",
     None),
    (scenario.CompiledScenario, "run", "scenario.CompiledScenario.run",
     None),
    (scenario, "cosimulate", "coordination.cosimulate", _run_counts),
    (coordination, "step", "delivery.step", None),
    (coordination, "system_firing", "coordination.system_firing", None),
    (coordination, "induce_health_firing",
     "coordination.induce_health_firing", None),
    (health, "fuzzy_step", "health.fuzzy_step", None),
    (health, "apply_completion", "health.apply_completion", None),
    (health, "resolve_output", "health.resolve_output", None),
    (health, "is_enabled", "health.is_enabled", None),
    (reports, "write_run", "reports.write_run", None),
    (reports, "write_trace_csv", "reports.write_trace_csv", None),
    (reports, "write_delivery_csv", "reports.write_delivery_csv", None),
    (reports, "write_outcomes_csv", "reports.write_outcomes_csv", None),
    (reports, "write_summary", "reports.write_summary", None),
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_us", "us_per_event")):
        return "us"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("speedup"):
        return "x"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def bindings() -> list[tuple[object, str, object]]:
    """Current raw binding of every traced name, plus ``scenario.json``
    whose ``loads`` is traced as ``scenario.parse``."""
    found = [(owner, attr, vars(owner)[attr])
             for owner, attr, _, _ in TARGETS]
    found.append((scenario, "json", vars(scenario)["json"]))
    return found


class Tracer:
    """Context manager that traces the program while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, detail):
        spans, ids, root = self.spans, self._ids, self._root_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (root[-1] if root else 0)
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = (detail(args, kwargs, result)
                        if detail is not None and result is not None
                        else None)
                spans.append(Span(span_id, name, start, end, parent,
                                  self.op, info))
        return traced

    def __enter__(self) -> "Tracer":
        self._local.stack = self._root_stack
        self._saved = bindings()
        for owner, attr, name, detail in TARGETS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, detail))
            else:
                wrapped = self._wrap(raw, name, detail)
            setattr(owner, attr, wrapped)
        original_json = vars(scenario)["json"]
        scenario.json = types.SimpleNamespace(
            loads=self._wrap(original_json.loads, "scenario.parse", None),
            JSONDecodeError=original_json.JSONDecodeError)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children on pool threads may overlap)."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = span.duration - covered
    return out


def layer_metrics(spans: list[Span], ops: list, passes: int,
                  traced_pass_s: list[float],
                  untraced_pass_s: list[float],
                  output_sizes: list[tuple[int, int]]) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    ``ops[i]`` is the operation of one pass that spans with ``op == i``
    belong to; ``output_sizes`` holds (files, bytes) per simulate command.
    Times are means per call unless named per compile pass; ``_calls``
    counts are per co-simulation run; command counts are per command.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s.duration for s in by_name[name])

    def mean_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    def mean_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    runs = calls("coordination.cosimulate")
    compiles = calls("delivery.DeliveryNet.from_model")
    events = sum(s.detail[0] for s in by_name["coordination.cosimulate"])
    checks = sum(s.detail[1] for s in by_name["coordination.cosimulate"])
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    m = {
        "scenario.parse_ms": mean_ms("scenario.parse"),
        "scenario.load_ms": mean_ms("scenario.load_scenario_data"),
        "scenario.compile_ms": mean_ms("scenario.compile_scenario"),
        "scenario.validate_ms": mean_ms("scenario.validate_file"),
    }
    commands = defaultdict(int)
    for op in ops:
        commands[op.kind] += 1
    for kind in ("validate", "dof", "simulate"):
        n = commands[kind] * passes
        for metric, name in (("scenario.compile_passes",
                              "delivery.DeliveryNet.from_model"),
                             ("structure.build_calls",
                              "structure.StructuralModel.build")):
            m[f"{metric}.{kind}"] = sum(
                1 for s in by_name[name] if ops[s.op].kind == kind) / n

    outer_structure = 0.0
    for s in spans:
        parent = by_id.get(s.parent)
        if s.module == "structure" and (parent is None
                                        or parent.module != "structure"):
            outer_structure += s.duration
    per_compile = 1e3 / compiles if compiles else 0.0
    m["structure.build_ms"] = outer_structure * per_compile
    m["delivery.net_build_ms"] = mean_ms("delivery.DeliveryNet.from_model")
    m["health.net_build_ms"] = total("health.HealthNet") * per_compile
    m["coordination.feasibility_ms"] = (
        total("coordination.build_feasibility") * per_compile)

    m["coordination.run_ms"] = mean_ms("coordination.cosimulate")
    m["coordination.events"] = events / runs
    m["coordination.coupling_checks"] = checks / runs
    m["coordination.us_per_event"] = (
        1e6 * total("coordination.cosimulate") / events)
    m["coordination.self_us_per_event"] = 1e6 * sum(
        selfs[s.id] for s in by_name["coordination.cosimulate"]) / events
    for metric, name in (("delivery.step", "delivery.step"),
                         ("health.fuzzy_step", "health.fuzzy_step"),
                         ("health.apply_completion",
                          "health.apply_completion"),
                         ("health.resolve_output", "health.resolve_output"),
                         ("health.is_enabled", "health.is_enabled"),
                         ("coordination.induce",
                          "coordination.induce_health_firing"),
                         ("coordination.system_firing",
                          "coordination.system_firing")):
        m[f"{metric}_calls"] = calls(name) / runs
        m[f"{metric}_us"] = mean_us(name)

    m["reports.write_ms"] = mean_ms("reports.write_run")
    for part in ("trace", "delivery", "outcomes"):
        m[f"reports.write_{part}_ms"] = mean_ms(f"reports.write_{part}_csv")
    m["reports.write_summary_ms"] = mean_ms("reports.write_summary")
    m["reports.files_written"] = statistics.fmean(
        f for f, _ in output_sizes)
    m["reports.bytes_written"] = statistics.fmean(
        b for _, b in output_sizes)

    sequential = defaultdict(list)
    for s in by_name["scenario.CompiledScenario.run"]:
        if ops[s.op].kind == "run" and s.parent == 0:
            sequential[ops[s.op].case].append(s.duration)
    walls, speedups = [], []
    for pool in by_name["reports.simulate_to_dir"]:
        replicates = [s for s in by_name["scenario.CompiledScenario.run"]
                      if s.parent == pool.id]
        wall = (max(s.end for s in replicates)
                - min(s.start for s in replicates))
        walls.append(wall)
        one = statistics.median(sequential[ops[pool.op].case])
        speedups.append(len(replicates) * one / wall)
    m["reports.pool_wall_ms"] = 1e3 * statistics.fmean(walls)
    m["reports.pool_speedup"] = statistics.fmean(speedups)

    module_self = defaultdict(float)
    for span in spans:
        module_self[span.module] += selfs[span.id]
    all_self = sum(module_self.values())
    for module in MODULES:
        m[f"{module}.self_ms"] = 1e3 * module_self[module] / passes
        m[f"{module}.self_pct"] = 100.0 * module_self[module] / all_self

    traced = statistics.median(traced_pass_s)
    untraced = statistics.median(untraced_pass_s)
    m["trace.spans"] = len(spans) / passes
    m["trace.overhead_ms"] = 1e3 * (traced - untraced)
    m["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return m
