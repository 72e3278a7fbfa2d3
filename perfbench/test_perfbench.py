"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They use ``--smoke``, which runs every job kind of a workload once at tiny
sizes, so the whole file takes well under a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

isorep, workloads = run._import_library()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["jobs_per_pass"] == len(record["jobs"])
    assert {"numpy", "blas", "blas_threads", "nproc", "llc_bytes", "mem_total_bytes"} <= set(record["environment"])


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "grid-commutant", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["commutant.star_commutant_basis.calls"]["value"] >= 1
    assert metrics["commutant.survivor_ratio"]["value"] == 1.0


def test_planted_wrong_answer_counts_as_failure(monkeypatch, capsys):
    def build(workload, seed, smoke=False):
        jobs, warmup = real_build(workload, seed, smoke)
        jobs[-1].expected = {"finite": -1}
        return jobs, warmup

    real_build = workloads.build
    monkeypatch.setattr(workloads, "build", build)
    code = run.main(["--workload", "index-certify", "--seed", "4", "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    record_fail_ratio = result["failed"] / result["attempted"]
    assert 0 < record_fail_ratio < 1
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - record_fail_ratio)


def test_raising_job_counts_as_failure():
    def boom():
        raise ValueError("planted")

    outcome = run.run_pass([workloads.Job("planted", {}, boom, 0)])
    assert outcome["failures"][0]["got"] == "'ValueError: planted'"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_within_a_job_fit_in_its_wall_time(workload):
    jobs, _ = workloads.build(workload, seed=5, smoke=True)
    tracer = tracing.Tracer()
    tracer.install([m for name, m in sys.modules.items() if name.split(".")[0] == "isorep"])
    try:
        outcome = run.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    assert not outcome["failures"]
    assert isorep.index.__name__ == "index" and not hasattr(isorep.index, "__wrapped__")
    per_job = [0.0] * len(jobs)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        assert self_s >= -1e-9
        per_job[span[4]] += self_s
    assert all(per_job[j] <= outcome["latencies"][j] + 1e-9 for j in range(len(jobs)))
    assert sum(per_job) > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "small-certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert '"metrics"' not in proc.stdout


def test_p90_sample_count():
    assert run.p90_tail(101) == 10
    assert run.p90([1.0] * 9 + [5.0, 9.0]) == pytest.approx(5.0)
