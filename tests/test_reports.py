import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carenets import reports
from carenets.cli import main
from carenets.coordination import RunResult, TraceRow
from carenets.delivery import Marking, TrajectoryPoint
from carenets.scenario import compile_scenario, load_scenario

from helpers import (ACUTE, CHRONIC, oracle_write_delivery_csv,
                     oracle_write_outcomes_csv, oracle_write_trace_csv)


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

    @pytest.mark.parametrize("runs", [1, 3])
    def test_any_exception_removes_report_files(self, tmp_path, monkeypatch,
                                                runs):
        def write_summary(*args):
            raise RuntimeError("summary writer failed")

        monkeypatch.setattr(reports, "write_summary", write_summary)
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("mine", encoding="utf-8")
        with pytest.raises(RuntimeError):
            reports.simulate_to_dir(load_scenario(CHRONIC), "sample", 5, out,
                                    runs=runs)
        assert report_files(out) == ["keep.txt"]
        with pytest.raises(RuntimeError):
            reports.simulate_to_dir(load_scenario(CHRONIC), "sample", 5,
                                    tmp_path / "new", runs=runs)
        assert not (tmp_path / "new").exists()


# Strings that csv.writer quotes (comma, quote, CR, LF) or passes through
# (space, tab, non-ASCII), mixed with any other encodable character.
_TEXT = st.text(st.sampled_from(',"\r\n \tAé中;') | st.characters(
    blacklist_categories=("Cs",)), max_size=6)
# Integral, fractional and large values, and both zeros.
_FLOAT = st.one_of(
    st.integers(0, 10 ** 6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 0.1 + 0.2, 2.5e-7, 1e16, 1e20, 1e300]))


@st.composite
def run_results(draw):
    """A RunResult with the fields the CSV writers read, and its place
    names."""
    ids = draw(st.lists(_TEXT, min_size=1, max_size=3))
    labels = draw(st.lists(_TEXT, min_size=1, max_size=4))
    nets = ["delivery"] + [f"health:{i}" for i in ids]
    result = RunResult()
    for _ in range(draw(st.integers(0, 12))):
        result.trace.append(TraceRow(
            draw(_FLOAT), draw(st.sampled_from(nets)),
            draw(st.sampled_from(labels)), draw(st.integers(0, 40)),
            draw(st.sampled_from(["start", "complete"]))))

    places = draw(st.lists(_TEXT, max_size=4))
    tokens = st.lists(st.integers(0, 10 ** 6), min_size=len(places),
                      max_size=len(places))

    def marking():
        return Marking(np.array(draw(tokens), dtype=int),
                       np.zeros(2, dtype=int))

    result.delivery_trajectory.append(
        TrajectoryPoint(0.0, None, "initial", marking(), draw(_FLOAT)))
    for _ in range(draw(st.integers(0, 10))):
        result.delivery_trajectory.append(TrajectoryPoint(
            draw(_FLOAT), draw(st.integers(0, 40)),
            draw(st.sampled_from(["start", "complete"])), marking(),
            draw(_FLOAT)))

    for _ in range(draw(st.integers(0, 10))):
        result.outcome_series.append(
            (draw(_FLOAT), draw(st.sampled_from(ids)), draw(_FLOAT)))
    return result, places


def written(directory, result, places, trace, delivery, outcomes):
    trace(directory / "trace.csv", result)
    delivery(directory / "delivery.csv", result, places)
    outcomes(directory / "outcomes.csv", result)
    return {name: (directory / name).read_bytes()
            for name in ("trace.csv", "delivery.csv", "outcomes.csv")}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_results())
def test_writers_match_the_csv_writer_oracle(tmp_path, drawn):
    result, places = drawn
    (tmp_path / "new").mkdir(exist_ok=True)
    (tmp_path / "oracle").mkdir(exist_ok=True)
    new = written(tmp_path / "new", result, places, reports.write_trace_csv,
                  reports.write_delivery_csv, reports.write_outcomes_csv)
    oracle = written(tmp_path / "oracle", result, places,
                     oracle_write_trace_csv, oracle_write_delivery_csv,
                     oracle_write_outcomes_csv)
    assert new == oracle


def _renamed(node, names):
    """``node`` with every string (value or key) in ``names`` replaced,
    including the process and resource halves of duration and cost keys."""
    if isinstance(node, dict):
        return {_renamed(k, names): _renamed(v, names)
                for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(item, names) for item in node]
    if isinstance(node, str):
        if " @ " in node:
            return " @ ".join(names.get(part, part)
                              for part in node.split(" @ "))
        return names.get(node, node)
    return node


def test_cli_reports_with_quoted_names_match_the_oracle(tmp_path):
    names = {
        "adam": 'ad,"am"\r\nÅ',
        "imaging": 'imag"ing, Ø',
        "Perform X-ray imaging": 'Perform X-ray,\n"imaging" 中',
        "Rupture ACL": 'Rupture\r"ACL",é',
    }
    data = _renamed(json.loads(ACUTE.read_text(encoding="utf-8")), names)
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0

    compiled = compile_scenario(load_scenario(path))
    result = compiled.run(mode="replay", seed=0)
    (tmp_path / "oracle").mkdir()
    oracle = written(tmp_path / "oracle", result, compiled.net.place_names,
                     oracle_write_trace_csv, oracle_write_delivery_csv,
                     oracle_write_outcomes_csv)
    for name, expected in oracle.items():
        assert (out / name).read_bytes() == expected, name
    trace = oracle["trace.csv"].decode("utf-8")
    assert ',"health:ad,""am""\r\nÅ","Rupture\r""ACL"",é",' in trace
    assert '"Perform X-ray,\n""imaging"" 中' in trace
    assert ',"place:imag""ing, Ø",' in oracle["delivery.csv"].decode("utf-8")
