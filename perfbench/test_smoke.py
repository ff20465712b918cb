"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from swapforge import verify  # noqa: E402
from workloads import WORKLOADS, PaperSweep, QuditRuns, VerifySuite, sweep_gate  # noqa: E402

FAST_CHECK = "bipartition_closed_forms"


def tiny(name, workdir, seed=3):
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "paper_sweep":
        return PaperSweep(str(workdir), seed, points=11)
    if name == "qudit_runs":
        return QuditRuns(str(workdir), seed, count=6)
    return VerifySuite(str(workdir), seed, checks=(FAST_CHECK,))


def traced_metrics(work):
    tracer, result, output_bytes = run.traced_loop(work, 0.0, verify._CHECKS)
    assert not result.failures
    return run.per_layer(work, tracer, result, output_bytes)


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    """Traced runs nest spans on one stack, as run.py arranges."""
    monkeypatch.setenv("SWAPFORGE_THREADS", "1")


@pytest.fixture(params=["paper_sweep", "qudit_runs", "verify_suite"])
def workload(request):
    return request.param


def test_every_metric_is_reported_with_its_unit(workload, tmp_path):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)

    work = tiny(workload, tmp_path)
    probe = SpeedProbe()
    result = run.timed_loop(work, 0.5, probe)
    assert not result.failures
    end_to_end = run.end_to_end(work, run.op_times(work, result, probe), setup_s=0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.END_TO_END_UNITS[name] for name in end_to_end
    }
    assert all(value > 0 for value in end_to_end.values())

    layers = traced_metrics(tiny(workload, tmp_path / "traced"))
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {name: units[name] for name in layers}


def test_traced_call_counts_repeat_for_one_seed(workload, tmp_path):
    first = traced_metrics(tiny(workload, tmp_path / "a"))
    second = traced_metrics(tiny(workload, tmp_path / "b"))
    calls = [name for name in first if name.endswith(".calls")]
    assert calls and {n: first[n] for n in calls} == {n: second[n] for n in calls}
    if workload == "paper_sweep":
        assert first["engine.apply_element.calls"] > 0


def test_corrupted_sweep_csv_trips_the_gate(tmp_path):
    work = tiny("paper_sweep", tmp_path)
    work.op(0)
    assert work.check(0) is None
    with open(work.csv_path, "rb") as fh:
        csv = fh.read()
    assert sweep_gate(csv, work.points) is None

    lines = csv.decode().splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)  # avg_neg_round2
    lines[5] = ",".join(cells)
    corrupted = ("\n".join(lines) + "\n").encode()
    assert "avg_neg_round2" in sweep_gate(corrupted, work.points)

    with open(work.csv_path, "wb") as fh:
        fh.write(corrupted)
    assert "differ" in work.check(1)


def test_setup_time_is_scaled_by_the_childs_probe(tmp_path):
    scaled, raw = run.measure_setup("import swapforge", str(tmp_path))
    assert scaled > 0 and raw > 0


def test_refuses_a_directory_without_sources(tmp_path):
    bench = os.path.join(tmp_path, "perfbench")
    os.makedirs(bench)
    for name in ("run.py", "workloads.py", "tracer.py", "probe.py"):
        with open(os.path.join(HERE, name), "rb") as src, open(os.path.join(bench, name), "wb") as dst:
            dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
