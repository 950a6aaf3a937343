import json

import pytest

from carenets.cli import main

from helpers import ACUTE, CHRONIC


def read(path):
    return path.read_text(encoding="utf-8")


class TestValidateCommand:
    def test_passing_scenario_exits_zero(self, capsys):
        assert main(["validate", str(ACUTE)]) == 0
        out = capsys.readouterr().out
        assert "PASS  knowledge-block-mask" in out
        assert "FAIL" not in out

    def test_failing_scenario_exits_one(self, tmp_path, capsys):
        data = json.loads(read(CHRONIC))
        data["knowledge_base"].append(
            ["Perform surgical resection", "patient"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  knowledge-block-mask" in capsys.readouterr().out


class TestDofCommand:
    def test_acute_listing(self, capsys):
        assert main(["dof", str(ACUTE)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "structural degrees of freedom: 36"
        assert len(lines) == 37

    def test_chronic_listing(self, capsys):
        assert main(["dof", str(CHRONIC)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "structural degrees of freedom: 7"

    def test_empty_knowledge_base(self, tmp_path, capsys):
        doc = {
            "schema_version": 1, "name": "empty",
            "resources": [{"name": "ward", "class": "transformation"}],
            "processes": [], "knowledge_base": [],
            "initial_tokens": {}, "individuals": [], "schedule": [],
            "assumed_values": {},
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["dof", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["structural degrees of freedom: 0"]


class TestSimulateCommand:
    def test_replay_writes_reports(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", str(ACUTE), "--out", str(out)]) == 0
        for name in ("trace.csv", "delivery.csv", "outcomes.csv",
                     "summary.txt"):
            assert (out / name).exists()
        header = read(out / "delivery.csv").splitlines()[0]
        assert header.startswith("time,event_index,psi,kind,place:")
        assert header.endswith("cumulative_cost")

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_infeasible_schedule_cleans_partial_outputs(self, tmp_path,
                                                        capsys):
        data = json.loads(read(CHRONIC))
        # start the resection before the patient ever enters the clinic
        data["schedule"].insert(0, {
            "time": 0.0, "individual": "patient",
            "process": "Perform surgical resection",
            "resource": "neurosurgery"})
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", str(path), "--out", str(out)])
        assert code == 1
        assert not any(out.glob("*.csv")) if out.exists() else True

    def test_output_path_that_is_a_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep me", encoding="utf-8")
        assert main(["simulate", str(CHRONIC), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert read(out) == "keep me"

    @pytest.mark.parametrize("flags", [["--mode", "sample", "--seed", "-1"],
                                       ["--runs", "0"], ["--runs", "-3"]])
    def test_out_of_range_count_exits_two(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", str(ACUTE), "--out", str(out), *flags])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flags[-2]}: must be at least" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_text_utf8_cannot_encode_is_rejected_at_load(self, tmp_path,
                                                         capsys):
        # a valid JSON escape for a lone surrogate, as an individual id
        path = tmp_path / "surrogate.json"
        path.write_text(read(ACUTE).replace('"adam"', '"pa\\ud800tient"'),
                        encoding="utf-8")
        message = ("individuals[0].id: 'pa\\ud800tient' is not text that "
                   "UTF-8 can encode")
        assert main(["validate", str(path)]) == 1
        assert "FAIL  schema" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[schema] {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_runs_flag_merges_statistics(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["simulate", str(CHRONIC), "--mode", "sample",
                     "--seed", "3", "--out", str(out), "--runs", "4"]) == 0
        runs = read(out / "runs.csv").splitlines()
        assert runs[0] == "run,seed,final_cost,final_outcome:patient"
        assert len(runs) == 5
        assert (out / "run_000" / "trace.csv").exists()
        summary = read(out / "summary.txt")
        assert "mean final outcome for patient" in summary

    def test_sample_mode_is_reproducible(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for target in (first, second):
            assert main(["simulate", str(CHRONIC), "--mode", "sample",
                         "--seed", "11", "--out", str(target)]) == 0
        for name in ("trace.csv", "delivery.csv", "outcomes.csv",
                     "summary.txt"):
            assert read(first / name) == read(second / name)
