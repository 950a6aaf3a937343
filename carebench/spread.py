"""Run the benchmark over several seeds and report each metric's spread.

    python3 carebench/spread.py --workload fixtures-cli --seeds 1-10 \\
        [--seconds 20] [--trace 0] [--out results.json]

Runs ``run.py`` once per seed, one run at a time, from the repository
root. For every metric it prints the median and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the bound ``BENCHMARK.json`` gives it.
``--out`` saves the raw results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        summary[name] = {"unit": first["unit"], **summarize(values)}
        bound = bounds.get(name)
        limit = f"bound {bound}" if bound is not None else ""
        s = summary[name]
        print(f"{name:<40} median {s['median']:>14.4f} {s['unit']:<9} "
              f"spread {s['spread']:.4f} {limit}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "trace": args.trace, "runs": runs, "summary": summary},
            indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
