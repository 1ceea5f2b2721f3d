"""Self-tests of the benchmark: python -m pytest bench/tests -q (from the repository root)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_generators_are_reproducible(tmp_path):
    first = workloads.cli_requests(11, False, tmp_path)
    assert first == workloads.cli_requests(11, False, tmp_path)
    assert list(first[0]) != list(workloads.cli_requests(12, False, tmp_path)[0])
    assert any(arg.startswith("--x=-") for argv in first[0].values() for arg in argv)
    for make in (workloads.verify_default, workloads.construct_highdeg):
        names = [name for name, _ in make(11, False, tmp_path).ops]
        assert names == [name for name, _ in make(11, False, tmp_path).ops]
        assert sorted(names) == sorted(name for name, _ in make(12, False, tmp_path).ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts():
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "3",
             "--trace", "--tiny"],
            cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        layers = _last_json(proc.stdout)["layers"]
        return {name: layers[name] for name in tracer.COUNT_METRICS}

    first = counts()
    assert first["rational.fraction_ops"] > 0 and first["poly.mul_calls"] > 0
    assert counts() == first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
