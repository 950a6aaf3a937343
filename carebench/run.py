"""carenets benchmark: one workload, closed loop, in process, one thread.

Run from the repository root:

    python3 carebench/run.py --workload cohort-chronic --seed 1 \\
        --seconds 20 --trace 0

It imports the program from ``src/`` beside this directory, makes the
workload's inputs from ``--seed``, then for ``--seconds`` seconds
repeats a cycle of the workload's operations, one at a time, each cycle
preceded by one timed set-up (load then compile), and checks each
operation's output outside the timed call. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes over one cycle of operations and
reports per-layer metrics from the spans (see ``tracer.py``), which it
also writes to ``.carebench/spans-<workload>.csv``. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch
files go under ``.carebench/`` in the repository root and are removed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".carebench"
WORKLOAD_NAMES = ("cohort-chronic", "acute-montecarlo", "fixtures-cli")

P90_TAIL = 10          # samples a p90 needs beyond it to be reported


def load_program():
    """Import carenets from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "carenets" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"carebench: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import carenets
    if Path(carenets.__file__).resolve() != package.resolve():
        raise SystemExit(f"carebench: imported carenets from "
                         f"{carenets.__file__}, not {package}")
    import numpy
    return carenets, numpy


class Tally:
    """Operation counts, failures and latency samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = {}
        self.events_per_s: list[float] = []
        self.sizes: list[tuple[int, int]] = []

    def fail(self, op, message: str) -> None:
        self.failed += 1
        print(f"FAILED {op.kind} {op.case}: {message}", file=sys.stderr)


def run_pass(workload, ops, tally: Tally, record: bool,
             tracer=None) -> float:
    """Run ``ops`` one after another; return the summed timed seconds."""
    spent = 0.0
    for index, op in enumerate(ops):
        tally.attempted += 1
        argv = None if op.kind == "run" else workload.argv(op)
        if tracer is not None:
            tracer.op = index
        started = perf_counter()
        try:
            outcome = workload.execute(op, argv)
        except Exception:
            tally.fail(op, traceback.format_exc())
            continue
        elapsed = perf_counter() - started
        spent += elapsed
        if record:
            tally.latency.setdefault(op.kind, []).append(elapsed)
            if op.kind == "run":
                tally.events_per_s.append(len(outcome.trace) / elapsed)
        try:
            failures, size = workload.check(op, argv, outcome)
        except Exception:
            failures, size = [traceback.format_exc()], None
        if failures:
            tally.fail(op, "; ".join(failures))
        if size is not None:
            tally.sizes.append(size)
    return spent


def p90(samples: list[float]) -> float | None:
    if len(samples) * 0.1 < P90_TAIL:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def end_to_end(workload, tally: Tally, setup: list[float]) -> dict:
    """Medians over the operations that returned, whether or not their
    output passed its check; failures show in ``failed``."""
    ms = {kind: [1e3 * t for t in tally.latency.get(kind, [])]
          for kind in ("validate", "dof", "simulate")}
    for kind, samples in (*ms.items(), ("run", tally.events_per_s)):
        if not samples:
            raise SystemExit(f"carebench: no {kind} operation returned; "
                             f"nothing to time")
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "validate_ms_p50": (statistics.median(ms["validate"]), "ms",
                            len(ms["validate"])),
        "dof_ms_p50": (statistics.median(ms["dof"]), "ms", len(ms["dof"])),
        "simulate_ms_p50": (statistics.median(ms["simulate"]), "ms",
                            len(ms["simulate"])),
        "events_per_s": (statistics.median(tally.events_per_s), "events/s",
                         len(tally.events_per_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB", 1),
    }
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<20} {value:>14.4f} {unit:<9} n={n}")
    for kind, samples in ms.items():
        tail = p90(samples)
        if tail is not None:
            print(f"{kind + '_ms_p90':<20} {tail:>14.4f} {'ms':<9} "
                  f"n={len(samples)} (not gated)")
    runs = max(case.runs for case in workload.cases.values())
    if runs > 1:
        rate = runs / (metrics["simulate_ms_p50"][0] / 1e3)
        print(f"{'replicates_per_s':<20} {rate:>14.4f} {'runs/s':<9} "
              f"(= {runs} / simulate_ms_p50)")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}


def traced(workload, tally: Tally, seconds: float, spans_path: Path) -> dict:
    import tracer as tracing

    ops = workload.cycle()
    run_pass(workload, ops, tally, record=False)            # warm-up
    spans = tracing.Tracer()
    plain, with_spans, sizes = [], [], []
    deadline = perf_counter() + seconds
    while not with_spans or perf_counter() < deadline:
        plain.append(run_pass(workload, ops, tally, record=False))
        before = len(tally.sizes)
        with spans:
            with_spans.append(run_pass(workload, ops, tally, record=False,
                                       tracer=spans))
        sizes += tally.sizes[before:]
    metrics = tracing.layer_metrics(spans.spans, ops, len(with_spans),
                                    with_spans, plain, sizes)
    with spans_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(tracing.Span._fields)
        writer.writerows(spans.spans)
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.4f} {tracing.unit(name)}")
    print(f"traced passes: {len(with_spans)}, untraced passes: "
          f"{len(plain)}, spans written to "
          f"{spans_path.relative_to(ROOT)}")
    return {name: {"value": value, "unit": tracing.unit(name)}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    carenets, numpy = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    print("environment: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "carenets": carenets.__version__,
        "platform": platform.platform()}))

    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        workload.prepare()
        workload.setup()
        tally = Tally()
        if args.trace:
            metrics = traced(workload, tally, args.seconds,
                             SCRATCH / f"spans-{args.workload}.csv")
        else:
            setup = []
            deadline = perf_counter() + args.seconds
            while perf_counter() < deadline:
                # One timed set-up per cycle spreads its samples over the
                # whole run, like those of every other operation.
                started = perf_counter()
                workload.setup()
                setup.append(perf_counter() - started)
                run_pass(workload, workload.cycle(), tally, record=True)
            metrics = end_to_end(workload, tally, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"failed_ratio {tally.failed / tally.attempted:.4f} share "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
