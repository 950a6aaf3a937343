"""Run outputs: synchronized trace, delivery trajectory, outcome series.

All outputs are UTF-8 CSV with a header row and dot decimal separators,
in csv.writer's dialect (CRLF line ends, a field quoted only when it
needs to be), plus a plain-text run summary. Output content is a pure
function of the scenario, flags, and seed; nothing time-of-day dependent
is written.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Sequence

from .coordination import RunResult
from .scenario import CompiledScenario, ScenarioDocument, compile_scenario


def _fmt(value) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _quote(field: str) -> str:
    """``field`` as csv.writer writes it within a row: quoted, with ``"``
    doubled, only when it holds a comma, a quote or a line break."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((field, ""))
    return buffer.getvalue()[:-3]  # the trailing empty field and CRLF


class _Memo(dict):
    """Dict that fills a missing key with ``convert(key)``, so each
    distinct time, value or name is formatted once per file."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def write_trace_csv(path: Path, result: RunResult) -> None:
    times, names = _Memo(_fmt), _Memo(_quote)
    rows = ["time,net,event_label,psi_or_event_index,kind\r\n"]
    rows += [f"{times[time]},{names[net]},{names[label]},{index},{kind}\r\n"
             for time, net, label, index, kind in result.trace]
    path.write_text("".join(rows), encoding="utf-8", newline="")


def write_delivery_csv(path: Path, result: RunResult,
                       place_names: Sequence[str]) -> None:
    times = _Memo(_fmt)
    # each distinct token vector joined once, keyed by its raw bytes
    joined: dict[bytes, str] = {}
    places = "".join(f"{_quote(f'place:{name}')}," for name in place_names)
    rows = [f"time,event_index,psi,kind,{places}cumulative_cost\r\n"]
    for index, (time, psi, kind, marking, cost) in enumerate(
            result.delivery_trajectory):
        key = marking.place_tokens.tobytes()
        tokens = joined.get(key)
        if tokens is None:
            tokens = joined[key] = "".join(
                f"{int(c)}," for c in marking.place_tokens)
        rows.append(f"{times[time]},{index},{'' if psi is None else psi},"
                    f"{kind},{tokens}{times[cost]}\r\n")
    path.write_text("".join(rows), encoding="utf-8", newline="")


def write_outcomes_csv(path: Path, result: RunResult) -> None:
    values, ids = _Memo(_fmt), _Memo(_quote)
    rows = ["time,individual_id,outcome\r\n"]
    rows += [f"{values[time]},{ids[individual]},{values[outcome]}\r\n"
             for time, individual, outcome in result.outcome_series]
    path.write_text("".join(rows), encoding="utf-8", newline="")


def write_summary(path: Path, compiled: CompiledScenario, result: RunResult,
                  mode: str, seed: int | None) -> None:
    lines = [
        f"scenario: {compiled.doc.name}",
        f"mode: {mode}",
        f"seed: {seed}",
        f"places: {len(compiled.net.place_names)}",
        f"transitions: {compiled.net.n_transitions}",
        f"individuals: {len(compiled.individuals)}",
        f"events applied: {len(result.trace)}",
        f"delivery completions: "
        f"{sum(p.kind == 'complete' for p in result.delivery_trajectory)}",
        f"skipped optional health actions: {result.skipped_actions}",
        f"final cost: {_fmt(result.delivery_trajectory[-1].cost)}",
    ]
    for i, name in enumerate(compiled.net.place_names):
        lines.append(f"final tokens at {name}: "
                     f"{int(result.final_marking.place_tokens[i])}")
    final_outcomes = final_outcome_by_individual(result)
    for ind in compiled.individuals:
        lines.append(f"final outcome for {ind.id}: "
                     f"{_fmt(final_outcomes[ind.id])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def final_outcome_by_individual(result: RunResult) -> dict[str, float]:
    return {individual: outcome
            for _, individual, outcome in result.outcome_series}


def write_run(out_dir: Path, compiled: CompiledScenario, result: RunResult,
              mode: str, seed: int | None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", result)
    write_delivery_csv(out_dir / "delivery.csv", result,
                       compiled.net.place_names)
    write_outcomes_csv(out_dir / "outcomes.csv", result)
    write_summary(out_dir / "summary.txt", compiled, result, mode, seed)


def simulate_to_dir(doc: ScenarioDocument, mode: str, seed: int,
                    out_dir: str | Path, runs: int = 1) -> Path:
    """Run a scenario and write its report files under ``out_dir``.

    With ``runs`` greater than one, independent runs seeded ``seed``,
    ``seed + 1``, ... execute one after another, each writing into its own
    subdirectory, and their summary statistics merge into a top-level runs
    table. If a run or a write fails, whatever the exception, the report
    files written so far are removed, and so is every directory that did
    not exist before.
    """
    out_dir = Path(out_dir)
    compiled = compile_scenario(doc)
    touched: list[tuple[Path, bool]] = []

    def claim(directory: Path) -> Path:
        touched.append((directory, directory.is_dir()))
        return directory

    try:
        if runs <= 1:
            result = compiled.run(mode=mode, seed=seed)
            write_run(claim(out_dir), compiled, result, mode, seed)
            return out_dir

        results = [compiled.run(mode=mode, seed=seed + k)
                   for k in range(runs)]
        claim(out_dir)
        rows = []
        for k, result in enumerate(results):
            write_run(claim(out_dir / f"run_{k:03d}"), compiled, result,
                      mode, seed + k)
            rows.append((k, seed + k, result.delivery_trajectory[-1].cost,
                         final_outcome_by_individual(result)))

        ids = [ind.id for ind in compiled.individuals]
        with (out_dir / "runs.csv").open("w", encoding="utf-8",
                                         newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["run", "seed", "final_cost"]
                            + [f"final_outcome:{i}" for i in ids])
            for k, run_seed, cost, outcomes in rows:
                writer.writerow([k, run_seed, _fmt(cost)]
                                + [_fmt(outcomes[i]) for i in ids])
        lines = [f"scenario: {compiled.doc.name}", f"mode: {mode}",
                 f"runs: {runs}", f"base seed: {seed}",
                 *_stats("final cost", [row[2] for row in rows])]
        for ind_id in ids:
            lines += _stats(f"final outcome for {ind_id}",
                            [row[3][ind_id] for row in rows])
        (out_dir / "summary.txt").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
        return out_dir
    except BaseException:
        _cleanup(touched)
        raise


def _stats(label: str, values: list[float]) -> list[str]:
    """Mean, min and max summary lines. Only when the sum of the finite
    values overflows, as costs near the largest float can, is the mean
    taken term by term."""
    total = sum(values)
    mean = (total / len(values) if math.isfinite(total)
            else sum(value / len(values) for value in values))
    return [f"{kind} {label}: {_fmt(value)}" for kind, value in
            (("mean", mean), ("min", min(values)), ("max", max(values)))]


def _cleanup(touched: list[tuple[Path, bool]]) -> None:
    """Remove the report files from each (directory, existed before the
    run) pair, innermost first, and each directory the run created."""
    names = ["trace.csv", "delivery.csv", "outcomes.csv", "summary.txt",
             "runs.csv"]
    for directory, existed in reversed(touched):
        if not directory.is_dir():
            continue
        for name in names:
            (directory / name).unlink(missing_ok=True)
        if not existed:
            try:
                directory.rmdir()
            except OSError:
                pass
