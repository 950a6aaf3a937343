"""Command-line interface: validate scenarios, list capabilities, simulate."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CareNetsError, ScenarioError
from .reports import simulate_to_dir
from .scenario import compile_scenario, load_scenario, validate_file


def _cmd_validate(args) -> int:
    report = validate_file(args.scenario)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_dof(args) -> int:
    doc = load_scenario(args.scenario)
    compiled = compile_scenario(doc)
    rows = [(psi, process.name, resource.name, process.cls.value)
            for psi, process, resource in compiled.model.dof_table()]
    widths = [max((len(str(r[i])) for r in rows), default=1)
              for i in range(4)]
    for psi, process, resource, cls in rows:
        print(f"{psi:>{widths[0]}}  {process:<{widths[1]}}  "
              f"{resource:<{widths[2]}}  {cls}")
    print(f"structural degrees of freedom: {len(rows)}")
    return 0


def _cmd_simulate(args) -> int:
    doc = load_scenario(args.scenario)
    simulate_to_dir(doc, mode=args.mode, seed=args.seed,
                    out_dir=args.out, runs=args.runs)
    print(f"wrote run outputs to {args.out}")
    return 0


def _count(minimum: int):
    """Argument type: an integer no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carenets",
        description="Simulate a care delivery system synchronized with "
                    "per-individual health nets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check every structural invariant of a scenario")
    p_validate.add_argument("scenario", type=Path)
    p_validate.set_defaults(func=_cmd_validate)

    p_dof = sub.add_parser(
        "dof", help="list the scenario's structural degrees of freedom")
    p_dof.add_argument("scenario", type=Path)
    p_dof.set_defaults(func=_cmd_dof)

    p_sim = sub.add_parser("simulate", help="run a scenario and write "
                                            "trace, cost, and outcome files")
    p_sim.add_argument("scenario", type=Path)
    p_sim.add_argument("--mode", choices=("replay", "sample"),
                       default="replay",
                       help="replay declared outcomes or sample branches")
    p_sim.add_argument("--seed", type=_count(0), default=0,
                       help="generator seed for sample mode (>= 0)")
    p_sim.add_argument("--out", type=Path, required=True,
                       help="directory for the run outputs")
    p_sim.add_argument("--runs", type=_count(1), default=1,
                       help="number of independent seeded runs (>= 1)")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (CareNetsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
