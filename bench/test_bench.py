"""Tests of the benchmark itself, at reduced size.

Run with ``python -m pytest bench``.  They check that BENCHMARK.json and the
harness agree on every metric, that traced work counts repeat exactly, and
that the output gate trips when an expected value is wrong.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _run(name, trace, out_dir=None):
    return harness.run(name, seed=3, seconds=0.0, trace=trace, meter=Speedometer().start(),
                       small=True, children=0, out_dir=out_dir)


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"][:2] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"])
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert e2e == list(harness.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == list(harness.PER_LAYER_RESULT)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    # The driver makes 4 + 22 runs per workload within 3420 s.  A run starts
    # no pass that would overrun run_seconds, and its five set-ups take
    # about 4 s; but a pipeline-default run always makes two passes of two
    # pipelines, which took up to 61 s on a slow host.  Count the 4 extra
    # runs as pipeline runs.
    others = 22 * (len(spec["workloads"]) - 1)
    assert 1 <= spec["run_seconds"] <= 60
    assert others * (spec["run_seconds"] + 5) + (22 + 4) * 61 <= 3420


def test_result_line_has_every_metric_by_name(tmp_path):
    plain = _run("certify-exact", trace=False)
    res = plain["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [n for n, _, _ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())

    traced = _run("certify-exact", trace=True, out_dir=tmp_path)
    res = traced["result"]
    assert res["correct"]
    assert list(res["metrics"]) == [n for n, _, _ in harness.PER_LAYER_RESULT]
    assert (tmp_path / "spans-certify-exact-seed3.npz").is_file()
    summary = json.loads((tmp_path / "trace-certify-exact-seed3.json").read_text())
    assert set(summary["per_layer"]) == {n for n, _, _ in harness.PER_LAYER}


@pytest.mark.parametrize("name", ["certify-exact", "scan-fp"])
def test_traced_counts_repeat_exactly(name):
    first = _run(name, trace=True)
    second = _run(name, trace=True)
    assert first["result"]["correct"] and second["result"]["correct"]
    counts = [{n: out["values"][n] for n in harness.COUNT_METRICS}
              for out in (first, second)]
    assert counts[0] == counts[1]
    busy = "mul_calls" if name == "certify-exact" else "membership_calls"
    assert counts[0][busy] > 0


def test_gate_trips_on_a_wrong_census_count(monkeypatch):
    assert _run("scan-fp", trace=False)["result"]["correct"]
    monkeypatch.setitem(workloads.EXPECTED_CENSUS, (2, 2, 2), 149)
    out = _run("scan-fp", trace=False)
    res = out["result"]
    assert not res["correct"]
    assert res["failed"] == out["detail"]["passes"]  # that census, once per pass
    assert any("count 148 != 149" in e for e in out["errors"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-fp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
