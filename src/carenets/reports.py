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
from .errors import ValidationError
from .scenario import CompiledScenario, ScenarioDocument, compile_scenario

#: The report files of one run, and the table a ``--runs`` directory adds;
#: a failed run removes each of them.
TRACE, DELIVERY, OUTCOMES, SUMMARY, RUNS = REPORT_FILES = (
    "trace.csv", "delivery.csv", "outcomes.csv", "summary.txt", "runs.csv")


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
             for time, net, label, index, kind in zip(*result.trace.columns)]
    path.write_text("".join(rows), encoding="utf-8", newline="")


def write_delivery_csv(path: Path, result: RunResult,
                       place_names: Sequence[str]) -> None:
    times = _Memo(_fmt)
    # each distinct token vector joined once, keyed by its raw bytes
    joined: dict[bytes, str] = {}
    places = "".join(f"{_quote(f'place:{name}')}," for name in place_names)
    rows = [f"time,event_index,psi,kind,{places}cumulative_cost\r\n"]
    for index, (time, psi, kind, place_tokens, cost) in enumerate(
            zip(*result.delivery_trajectory.columns)):
        key = place_tokens.tobytes()
        tokens = joined.get(key)
        if tokens is None:
            tokens = joined[key] = "".join(f"{int(c)}," for c in place_tokens)
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
    trajectory = result.delivery_trajectory
    lines = [
        f"scenario: {compiled.doc.name}",
        f"mode: {mode}",
        f"seed: {seed}",
        f"places: {len(compiled.net.place_names)}",
        f"transitions: {compiled.net.n_transitions}",
        f"individuals: {len(compiled.individuals)}",
        f"events applied: {len(result.trace)}",
        f"delivery completions: "
        f"{trajectory.column('kind').count('complete')}",
        f"skipped optional health actions: {result.skipped_actions}",
        f"final cost: {_fmt(trajectory.column('cost')[-1])}",
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
    write_trace_csv(out_dir / TRACE, result)
    write_delivery_csv(out_dir / DELIVERY, result, compiled.net.place_names)
    write_outcomes_csv(out_dir / OUTCOMES, result)
    write_summary(out_dir / SUMMARY, compiled, result, mode, seed)


def simulate_to_dir(doc: ScenarioDocument, mode: str, seed: int,
                    out_dir: str | Path, runs: int = 1) -> Path:
    """Run a scenario ``runs`` times, seeded ``seed``, ``seed + 1``, ...,
    and write each run as it finishes: into ``out_dir`` for one run, else
    into ``run_000``, ``run_001``, ... under it, with a top-level runs
    table and summary. Only a run's summary row outlives its write, so
    memory does not grow with ``runs``. A ``runs`` below 1 raises
    :class:`ValidationError` before anything runs. If a run or a write
    fails, whatever the exception, the report files are removed from each
    directory that this call had started writing into, and so is every
    directory that did not exist before; report files left by an earlier
    run in a directory not yet written into stay.
    """
    if runs < 1:
        raise ValidationError(f"runs must be at least 1, got {runs}")
    out_dir = Path(out_dir)
    compiled = compile_scenario(doc)
    # (directory, existed before), outermost first: the missing ancestors
    # that write_run creates, then out_dir
    touched = [(parent, False) for parent in reversed(out_dir.parents)
               if not parent.is_dir()]
    touched.append((out_dir, out_dir.is_dir()))
    written: set[Path] = set()  # the directories writing has started in
    try:
        rows = []
        for k in range(runs):
            run_dir = out_dir if runs == 1 else out_dir / f"run_{k:03d}"
            touched.append((run_dir, run_dir.is_dir()))
            result = compiled.run(mode=mode, seed=seed + k)
            written.add(run_dir)
            write_run(run_dir, compiled, result, mode, seed + k)
            rows.append((k, seed + k,
                         result.delivery_trajectory.column("cost")[-1],
                         final_outcome_by_individual(result)))
            del result  # one result alive at a time
        if runs == 1:
            return out_dir

        ids = [ind.id for ind in compiled.individuals]
        written.add(out_dir)
        with (out_dir / RUNS).open("w", encoding="utf-8",
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
        (out_dir / SUMMARY).write_text("\n".join(lines) + "\n",
                                       encoding="utf-8")
        return out_dir
    except BaseException:
        _cleanup(touched, written)
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


def _cleanup(touched: list[tuple[Path, bool]], written: set[Path]) -> None:
    """Remove the report files from each directory in ``written``, and
    each directory of the (directory, existed before the run) pairs that
    the run created, innermost first."""
    for directory, existed in reversed(touched):
        if not directory.is_dir():
            continue
        if directory in written:
            for name in REPORT_FILES:
                (directory / name).unlink(missing_ok=True)
        if not existed:
            try:
                directory.rmdir()
            except OSError:
                pass
