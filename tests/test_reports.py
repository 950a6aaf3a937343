from types import SimpleNamespace

import pytest

from carenets import reports
from carenets.scenario import load_scenario

from helpers import CHRONIC


@pytest.fixture
def write_failure(monkeypatch):
    """Make writing outcomes.csv fail half-way, from call number
    ``failure.at`` on (the first, unless a test moves it)."""
    failure = SimpleNamespace(at=1, calls=0)
    real = reports.write_outcomes_csv

    def write(path, result):
        failure.calls += 1
        if failure.calls < failure.at:
            return real(path, result)
        path.write_text("time,individual_id,outc", encoding="utf-8")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(reports, "write_outcomes_csv", write)
    return failure


def report_files(directory):
    return sorted(p.relative_to(directory).as_posix()
                  for p in directory.rglob("*"))


class TestSimulateToDirCleanup:
    def test_single_run_write_failure_removes_new_directory(
            self, tmp_path, write_failure):
        out = tmp_path / "run"
        with pytest.raises(OSError):
            reports.simulate_to_dir(load_scenario(CHRONIC), "replay", 0, out)
        assert not out.exists()

    def test_single_run_write_failure_keeps_existing_directory(
            self, tmp_path, write_failure):
        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(OSError):
            reports.simulate_to_dir(load_scenario(CHRONIC), "replay", 0, out)
        assert out.is_dir()
        assert report_files(out) == []

    def test_runs_write_failure_removes_every_run(
            self, tmp_path, write_failure):
        write_failure.at = 3
        out = tmp_path / "mc"
        out.mkdir()
        (out / "keep.txt").write_text("mine", encoding="utf-8")
        with pytest.raises(OSError):
            reports.simulate_to_dir(load_scenario(CHRONIC), "sample", 5, out,
                                    runs=4)
        assert report_files(out) == ["keep.txt"]
