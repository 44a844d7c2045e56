"""Smoke tests for the benchmark: the smallest ladder rung (10x10) end to end
through the entry point, timed and traced, plus the run-checking logic. They
check outputs and metric names, never timings.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ladder-10x10",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((run.OUT / f"result-ladder-10x10-seed0-trace{trace}.json").read_text())
    return summary, full


@pytest.fixture(scope="module")
def results():
    return {trace: bench(trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_smallest_rung_reports_every_declared_metric(results, trace, declared):
    summary, _ = results[trace]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 2
    assert list(summary["metrics"]) == [m["name"] for m in DECLARED[declared]]
    for m in DECLARED[declared]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]


def test_smallest_rung_passes_the_output_gate(results):
    (_, timed), (_, traced) = results[0], results[1]
    for full in (timed, traced):
        assert full["problems"] == []
        assert full["error_rate"] == 0
        outputs = full["details"]["outputs"]
        assert outputs["settlements"] == 10 * 10
        assert outputs["events"] == 4 + 3 * 10 + 10 * 10
    # Timed and traced runs produced byte-identical journals and state.
    assert timed["details"]["outputs"] == traced["details"]["outputs"]
    env = timed["environment"]
    assert {"git_revision", "python", "cryptography", "nproc"} <= set(env)
    assert timed["details"]["runs_behind_each_median"] >= 2


def _result(outputs, problems=()):
    return {"outputs": outputs, "problems": list(problems)}


def test_runs_count_every_kind_of_failure():
    runs = run.Runs()
    runs.add("first", lambda: _result({"sha": "a"}))
    runs.add("same", lambda: _result({"sha": "a"}))
    runs.add("differs", lambda: _result({"sha": "b"}))
    runs.add("gate", lambda: _result({"sha": "a"}, ["report not ok"]))

    def crash():
        raise run.WorkerError("worker exited 1")

    runs.add("crash", crash)
    assert (runs.attempted, runs.failed) == (5, 3)
    assert [p.split(":")[0] for p in runs.problems] == ["differs", "gate", "crash"]


def test_refuses_to_run_without_package_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "PACKAGE", ROOT / "no-such-dir" / "datamarket")
    code = run.main(["--workload", "ladder-10x10", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
