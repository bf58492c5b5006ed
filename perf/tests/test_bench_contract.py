"""The benchmark's own contract, checked on ``--smoke`` runs.

Run with ``python -m pytest perf/tests`` (not part of the tier-1
``testpaths``): the whole module makes one smoke pass over the six workloads,
twice, traced and untraced, in well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DETERMINISTIC_END_TO_END = ("sim_ms_per_op", "pages_per_op")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """Two smoke runs of the default seed: ``{"runs": [...]}`` with both."""
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    done = run("perf/run.py", "--smoke", "--trace", "--runs", "2", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


def by_workload(results: dict, *, trace: bool) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for report in results["runs"]:
        if report["trace"] == trace:
            grouped.setdefault(report["workload"], []).append(report)
    return grouped


def test_benchmark_json_is_within_the_caps(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perf"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_reports_every_end_to_end_metric(spec, smoke):
    untraced = by_workload(smoke, trace=False)
    assert list(untraced) == [workload["name"] for workload in spec["workloads"]]
    for name, reports in untraced.items():
        for report in reports:
            assert report["correct"], report["messages"]
            assert report["failed"] == 0 and report["attempted"] >= 1
            for metric in spec["end_to_end"]:
                assert report["end_to_end"][metric["name"]] > 0, (name, metric["name"])


def test_every_per_layer_metric_is_measured_somewhere(spec, smoke):
    measured: set[str] = set()
    for reports in by_workload(smoke, trace=True).values():
        for report in reports:
            assert report["correct"], report["messages"]
            measured |= set(report["per_layer"])
    assert measured == {metric["name"] for metric in spec["per_layer"]}


def test_simulated_metrics_and_fingerprints_repeat_exactly(smoke):
    for trace in (False, True):
        for name, (first, second) in by_workload(smoke, trace=trace).items():
            assert first["fingerprints"] == second["fingerprints"], name
            if trace:
                assert first["per_layer"].get("index_bytes_per_row") == second[
                    "per_layer"
                ].get("index_bytes_per_row"), name
            else:
                for metric in DETERMINISTIC_END_TO_END:
                    assert first["end_to_end"][metric] == second["end_to_end"][metric]


def test_trace_shares_add_up_to_the_op_time(smoke):
    for name, reports in by_workload(smoke, trace=True).items():
        shares = [
            value
            for metric, value in reports[0]["per_layer"].items()
            if metric.startswith("trace.share.")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.05), name
        assert reports[0]["per_layer"]["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_the_driver_contract(spec, trace):
    done = run(
        "perf/run.py", "--workload", "mixed_ingest", "--seed", "12",
        "--seconds", "0.3", "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)


def test_compare_reports_same_for_a_file_against_itself(smoke, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(smoke))
    done = run("perf/compare.py", str(path), str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = {line.split()[-1] for line in done.stdout.splitlines()[2:-1]}
    assert verdicts <= {"same", "unresolved"}

    worse = json.loads(json.dumps(smoke))
    for report in worse["runs"]:
        if not report["trace"]:
            report["end_to_end"]["pages_per_op"] += 1
    other = tmp_path / "b.json"
    other.write_text(json.dumps(worse))
    done = run("perf/compare.py", str(path), str(other))
    assert done.returncode == 1
    assert "worse" in done.stdout


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run(
        "perf/run.py", "--workload", "cm_lookup", "--seed", "1",
        "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
