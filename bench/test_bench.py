"""Smoke test of the benchmark itself, at tiny shapes.

    python3 -m pytest -q bench

Runs every workload untraced and traced with every output check, feeds one
deliberately wrong output to show it counts as failed, and checks that the
benchmark refuses to run without the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run._limit_blas_threads()
run._import_program()

import workloads  # noqa: E402
from xcorr import spectrum  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def _run(name, trace):
    return run.run_workload(name, seed=3, seconds=0, trace=trace, shapes=workloads.TINY)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    line, record, tracer = _run(name, trace=0)
    assert tracer is None
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, record["jobs"]
    assert set(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert all(r["digest"] for r in record["jobs"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_adds_up(name):
    line, record, tracer = _run(name, trace=1)
    assert line["correct"], record["jobs"]
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert set(metrics) == PER_LAYER
    self_times = sum(metrics[f"{layer}.self_s"] for layer in ("panel", "spectrum", "modes", "surrogate",
                                                             "mfdfa", "synth", "cli"))
    assert math.isclose(self_times + metrics["trace.untraced_s"], metrics["trace.wall_s"], rel_tol=1e-9)
    assert all(s.end is not None and s.job for s in tracer.spans)
    busy = {"cli_files": "cli.jobs", "surrogate_ensemble": "surrogate.calls", "calibration": "synth.generate_calls"}
    assert metrics[busy[name]] > 0


def test_times_are_normalized_by_the_host_speed(monkeypatch):
    import time

    import reference

    def slow_probe():  # a host at half the nominal speed
        end = time.perf_counter() + 2 * reference.NOMINAL_S
        while time.perf_counter() < end:
            pass

    monkeypatch.setattr(reference, "probe", slow_probe)
    line, record, _ = _run("calibration", trace=0)
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert record["host_speed"]["samples"] >= 1
    assert record["host_speed"]["host_sensitivity"] == workloads.Calibration.host_sensitivity
    expected = 0.5 ** workloads.Calibration.host_sensitivity * record["measured"]["wall_s"]
    assert math.isclose(metrics["norm_wall_s"], expected, rel_tol=0.1)


def test_slowness_uses_the_window_or_the_nearest_samples():
    import reference

    sampler = reference.Sampler()
    n = 4 * reference.MIN_SAMPLES
    sampler.starts = [float(i) for i in range(n)]
    sampler.ends = [i + (1 if i < n // 2 else 3) * reference.NOMINAL_S for i in range(n)]
    assert math.isclose(sampler.slowness(0.0, n / 2 - 1), 1.0)
    assert math.isclose(sampler.slowness(n / 2, n), 3.0)
    assert math.isclose(sampler.slowness(n - 0.5, n - 0.4), 3.0)  # too few: the last MIN_SAMPLES
    assert math.isclose(sampler.probe_seconds(0.0, 1.5), 2 * reference.NOMINAL_S)
    sampler.ends[3] = 3 + 10 * reference.NOMINAL_S  # a descheduled probe
    assert math.isclose(sampler.slowness(0.0, n / 2 - 1), 1.0)


def test_reference_probe_does_not_call_the_program():
    import ast

    with open(os.path.join(run.BENCH, "reference.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"bisect", "signal", "time"}


def test_tracer_restores_the_program():
    from xcorr import cli, modes, panel

    before = (cli.remove_modes_iterative, modes.eigensignals, panel.ReturnPanel.__post_init__)
    _run("calibration", trace=1)
    assert (cli.remove_modes_iterative, modes.eigensignals, panel.ReturnPanel.__post_init__) == before


def test_wrong_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(spectrum, "overlap_fraction", lambda s, b: 1.5)
    line, record, _ = _run("calibration", trace=0)
    assert not line["correct"]
    assert line["failed"] >= 1
    assert any("overlap fraction" in p for r in record["jobs"] for p in r["problems"])


def test_changed_digest_counts_as_failed(monkeypatch):
    calls = iter(range(10**6))
    original = workloads.dir_digest
    monkeypatch.setattr(workloads, "dir_digest", lambda path: original(path) + str(next(calls)))
    line, record, _ = _run("cli_files", trace=1)
    assert record["rounds"] >= 2
    assert line["failed"] >= 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibration", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fit_recovers_a_known_sensitivity():
    import fit_sensitivity

    jobs = [{"job": name, "traced": False, "ok": True, "slowness": s, "net_s": base * s ** 0.6}
            for s in (1.0, 1.2, 1.5, 2.0) for name, base in (("a", 1.0), ("b", 3.0))]
    sensitivity, per_job = fit_sensitivity.fit([{"workload": "w", "jobs": jobs}])["w"]
    assert math.isclose(sensitivity, 0.6)
    assert math.isclose(per_job["b"][1], 0.75)
