"""The benchmark's workloads: inputs made from the seed, the operations
run on them, and the check every operation's output must pass.

Every workload drives the same three commands through ``cli.main``
(``validate``, ``dof``, ``simulate``) plus untraced ``CompiledScenario.run``
calls, so each end-to-end metric exists on each workload; what differs is
the scenario document and the ``simulate`` flags.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from carenets import cli, reports, scenario

import cohort

COHORT_N = 400
CHRONIC_EVENTS = 58       # trace rows of one chronic replay
CHRONIC_COST = 45_250.0   # final cost of one chronic replay
ACUTE_EVENTS = 70         # trace rows of one acute run
ACUTE_COST = 7_305.0      # final cost of one acute run, replayed or sampled
REPLICATES = 128          # --runs of the Monte Carlo workload
RUN_OPS_PER_CYCLE = 8     # single replicates timed per Monte Carlo cycle


@dataclass(frozen=True)
class Case:
    """One scenario file the workload drives and how it is simulated."""

    name: str
    path: Path
    mode: str
    seed: int
    runs: int
    dof: int


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a CLI command or an untraced run."""

    kind: str          # "validate", "dof", "simulate" or "run"
    case: str
    seed: int = 0      # generator seed of a "run" operation


def summary_fields(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


def trace_rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def tree_digest(directory: Path) -> tuple[str, int, int]:
    """Hash of every file under ``directory`` with its relative path,
    plus the number of files and bytes."""
    digest = hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
        files += 1
        size += len(data)
    return digest.hexdigest(), files, size


def completions(rows, label: str) -> int:
    return sum(1 for row in rows if row["event_label"] == label
               and row["net"] == "delivery" and row["kind"] == "complete")


class Workload:
    """Base class: subclasses define ``cases``, ``cycle`` and the checks."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.fixtures = root / "src" / "carenets" / "fixtures"
        self.rng = random.Random(seed)
        self.cases: dict[str, Case] = {}
        self.compiled: dict[str, scenario.CompiledScenario] = {}
        self._digests: dict[str, str] = {}
        self._outputs = 0

    # -- inputs and set-up ------------------------------------------------

    def prepare(self) -> None:
        """Write the inputs and compute reference outputs (untimed)."""

    def setup(self) -> None:
        """The timed set-up: load then compile every case's document."""
        for name, case in self.cases.items():
            doc = scenario.load_scenario(case.path)
            self.compiled[name] = scenario.compile_scenario(doc)

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    # -- operations -------------------------------------------------------

    def argv(self, op: Op) -> list[str]:
        case = self.cases[op.case]
        if op.kind != "simulate":
            return [op.kind, str(case.path)]
        self._outputs += 1
        out = self.work / "out" / str(self._outputs)
        argv = ["simulate", str(case.path), "--mode", case.mode,
                "--seed", str(case.seed), "--out", str(out)]
        if case.runs > 1:
            argv += ["--runs", str(case.runs)]
        return argv

    def execute(self, op: Op, argv: list[str] | None):
        """Run one operation; this call alone is timed."""
        if op.kind == "run":
            return self.compiled[op.case].run(
                mode=self.cases[op.case].mode, seed=op.seed)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    def check(self, op: Op, argv, outcome) -> tuple[list[str], tuple | None]:
        """Check one operation's output (untimed). Returns the failures
        and, for ``simulate``, the (files, bytes) it wrote."""
        case = self.cases[op.case]
        if op.kind == "run":
            return self.check_run(case, outcome), None
        code, text = outcome
        if code != 0:
            return [f"{op.kind} {case.name} exited {code}"], None
        lines = text.splitlines()
        if op.kind == "validate":
            expected = [f"PASS  {check}" for check in scenario.CHECKS]
            if lines != expected:
                return [f"validate {case.name} did not pass every check"], \
                    None
            return [], None
        if op.kind == "dof":
            expected = f"structural degrees of freedom: {case.dof}"
            if not lines or lines[-1] != expected:
                return [f"dof {case.name} did not report {case.dof}"], None
            return [], None
        out = Path(argv[argv.index("--out") + 1])
        try:
            failures = self.check_output(case, out)
            digest, files, size = tree_digest(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        first = self._digests.setdefault(case.name, digest)
        if digest != first:
            failures.append(f"simulate {case.name} outputs differ between "
                            f"operations of one run")
        return failures, (files, size)

    def check_run(self, case: Case, result) -> list[str]:
        raise NotImplementedError

    def check_output(self, case: Case, out: Path) -> list[str]:
        raise NotImplementedError


class CohortChronic(Workload):
    name = "cohort-chronic"

    def __init__(self, root, work, seed, n: int = COHORT_N):
        super().__init__(root, work, seed)
        self.n = n
        path = work / f"cohort-{n}-seed{seed}.json"
        self.cases = {"cohort": Case("cohort", path, "replay", 0, 1, 7)}

    def prepare(self) -> None:
        fixture = self.fixtures / "chronic_neuro_oncology.json"
        cohort.write_cohort(fixture, self.cases["cohort"].path, self.n,
                            self.seed)
        single = scenario.load_scenario(fixture)
        result = scenario.compile_scenario(single).run(mode="replay")
        (self.outcome,) = reports.final_outcome_by_individual(
            result).values()
        reference = self.work / "reference"
        reports.simulate_to_dir(single, "replay", 0, reference)
        fields = summary_fields(reference / "summary.txt")
        (self.outcome_text,) = [value for key, value in fields.items()
                                if key.startswith("final outcome for ")]
        shutil.rmtree(reference)

    def cycle(self) -> list[Op]:
        return [Op(kind, "cohort")
                for kind in ("validate", "dof", "simulate", "run")]

    def check_run(self, case, result) -> list[str]:
        n = self.n
        failures = []
        if len(result.trace) != CHRONIC_EVENTS * n:
            failures.append(f"trace has {len(result.trace)} rows")
        if result.cost_series[-1][1] != CHRONIC_COST * n:
            failures.append(f"final cost {result.cost_series[-1][1]}")
        places = dict(zip(self.compiled["cohort"].net.place_names,
                          result.final_marking.place_tokens.tolist()))
        if places != {"outside clinic": n, "healthcare clinic": 0} \
                or result.final_marking.busy_tokens.sum() != 0:
            failures.append(f"final marking {places}")
        outcomes = reports.final_outcome_by_individual(result)
        if len(outcomes) != n or \
                any(v != self.outcome for v in outcomes.values()):
            failures.append("a clone's final outcome differs from the "
                            "single patient's")
        return failures

    def check_output(self, case, out) -> list[str]:
        n = self.n
        failures = []
        rows = trace_rows(out / "trace.csv")
        if len(rows) != CHRONIC_EVENTS * n:
            failures.append(f"trace.csv has {len(rows)} rows")
        fields = summary_fields(out / "summary.txt")
        if float(fields.get("final cost", "nan")) != CHRONIC_COST * n:
            failures.append(f"final cost {fields.get('final cost')}")
        if fields.get("final tokens at outside clinic") != str(n) or \
                fields.get("final tokens at healthcare clinic") != "0":
            failures.append("final tokens are not all outside the clinic")
        outcomes = [value for key, value in fields.items()
                    if key.startswith("final outcome for ")]
        if len(outcomes) != n or \
                any(v != self.outcome_text for v in outcomes):
            failures.append("a clone's final outcome differs from the "
                            "single patient's")
        return failures


class AcuteMonteCarlo(Workload):
    name = "acute-montecarlo"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        path = self.fixtures / "acute_acl.json"
        self.cases = {"acute": Case("acute", path, "sample", seed,
                                    REPLICATES, 36)}
        self._replicate = 0

    def prepare(self) -> None:
        case = self.cases["acute"]
        doc = scenario.load_scenario(case.path)
        self.references = {}
        for k in (0, REPLICATES - 1):
            reference = self.work / f"reference-{k}"
            reports.simulate_to_dir(doc, "sample", case.seed + k, reference)
            self.references[k] = (reference / "summary.txt").read_bytes()
            shutil.rmtree(reference)

    def cycle(self) -> list[Op]:
        ops = [Op("validate", "acute"), Op("dof", "acute"),
               Op("simulate", "acute")]
        for _ in range(RUN_OPS_PER_CYCLE):
            k = self._replicate % REPLICATES
            self._replicate += 1
            ops.append(Op("run", "acute", self.seed + k))
        return ops

    def check_run(self, case, result) -> list[str]:
        failures = []
        if len(result.trace) != ACUTE_EVENTS:
            failures.append(f"trace has {len(result.trace)} rows")
        if result.final_marking.total != 1 or \
                result.final_marking.busy_tokens.sum() != 0:
            failures.append("the patient's token is lost or busy")
        if result.cost_series[-1][1] != ACUTE_COST:
            failures.append(f"final cost {result.cost_series[-1][1]}")
        return failures

    def check_output(self, case, out) -> list[str]:
        failures = []
        with (out / "runs.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if [int(row["seed"]) for row in rows] != \
                [case.seed + k for k in range(REPLICATES)]:
            failures.append("runs.csv does not list seeds base..base+127")
        if any(float(row["final_cost"]) != ACUTE_COST for row in rows):
            failures.append("runs.csv has a wrong final cost")
        for k, expected in self.references.items():
            if (out / f"run_{k:03d}" / "summary.txt").read_bytes() != \
                    expected:
                failures.append(f"replicate {k} differs from a sequential "
                                f"run with seed {case.seed + k}")
        reports_written = sum(1 for p in out.glob("run_*/*") if p.is_file())
        if reports_written != 4 * REPLICATES:
            failures.append(f"{reports_written} replicate report files")
        return failures


class FixturesCli(Workload):
    name = "fixtures-cli"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.cases = {
            "acute": Case("acute", self.fixtures / "acute_acl.json",
                          "replay", 0, 1, 36),
            "chronic": Case("chronic",
                            self.fixtures / "chronic_neuro_oncology.json",
                            "replay", 0, 1, 7),
        }

    def cycle(self) -> list[Op]:
        ops = [Op(kind, case) for kind in ("validate", "dof", "simulate",
                                           "run")
               for case in self.cases]
        self.rng.shuffle(ops)
        return ops

    def check_run(self, case, result) -> list[str]:
        rows = [{"net": r.net, "event_label": r.label, "kind": r.kind}
                for r in result.trace]
        return self._check(case, rows, {
            "final tokens at outside clinic":
                str(int(result.final_marking.place_tokens[
                    self.compiled[case.name].net.place_names.index(
                        "outside clinic")])),
            "final outcome": repr(result.outcome_series[-1][2]),
            "final cost": repr(result.cost_series[-1][1]),
        })

    def check_output(self, case, out) -> list[str]:
        fields = summary_fields(out / "summary.txt")
        (outcome,) = [value for key, value in fields.items()
                      if key.startswith("final outcome for ")]
        fields["final outcome"] = repr(float(outcome))
        fields["final cost"] = repr(float(fields["final cost"]))
        return self._check(case, trace_rows(out / "trace.csv"), fields)

    @staticmethod
    def _check(case, rows, fields) -> list[str]:
        """Criterion 7: the acute replay ends healthy outside the clinic;
        the chronic replay makes six clinic visits. Both end at the
        fixture's final cost."""
        failures = []
        cost = ACUTE_COST if case.name == "acute" else CHRONIC_COST
        if fields.get("final cost") != repr(cost):
            failures.append(f"{case.name} final cost {fields['final cost']}")
        if case.name == "acute":
            if len(rows) != ACUTE_EVENTS:
                failures.append(f"acute trace has {len(rows)} rows")
            if fields.get("final tokens at outside clinic") != "1" or \
                    fields.get("final outcome") != "1.0":
                failures.append("acute replay does not end healthy "
                                "outside the clinic")
        else:
            if len(rows) != CHRONIC_EVENTS:
                failures.append(f"chronic trace has {len(rows)} rows")
            for label in ("Enter clinic @ patient", "Exit clinic @ patient"):
                if completions(rows, label) != 6:
                    failures.append(f"chronic replay does not complete "
                                    f"{label!r} six times")
        return failures


WORKLOADS = {w.name: w for w in (CohortChronic, AcuteMonteCarlo,
                                 FixturesCli)}
