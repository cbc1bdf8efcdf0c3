"""Self-test of the benchmark itself.

    python -m pytest bench/tests -q

Checks that generators hand over plain seeded data, that the known-answer
gate counts a wrong verdict and a raised error as failed answers, that the
host speed probe scales by its trimmed mean and leaves probes out of the request
time, that the same seed gives the same digest and the same traced counts, that
BENCHMARK.json names what the runner reports, and that the runner refuses
to run where the library sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def parse_output(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_hand_over_plain_seeded_data(name):
    first = workloads.requests(name, 5, 3)
    assert first == workloads.requests(name, 5, 3)
    assert first != workloads.requests(name, 6, 3)
    assert first != workloads.requests(name, 5, 4)
    for req in first:
        assert json.loads(json.dumps(req.inputs)) == req.inputs
        assert req.kind in workloads.ANSWERS


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(str(tmp_path))


def _cli_verify_request():
    reqs = workloads.requests("steps-pipelines", 5, 0)
    return next(r for r in reqs
                if r.kind == "cli_verify" and r.expect["verdict"] == "PASS")


def test_wrong_expected_verdict_is_a_failure(ctx):
    req = _cli_verify_request()
    assert workloads.attempt(req, ctx).ok
    wrong = dataclasses.replace(req, expect={**req.expect, "verdict": "FAIL"})
    out = workloads.attempt(wrong, ctx)
    assert not out.ok
    assert out.problems == ["verdict='PASS', expected 'FAIL'"]


def test_raised_error_is_a_failed_answer_not_a_crash(ctx, monkeypatch):
    good = _cli_verify_request()
    solve = next(r for r in workloads.requests("steps-pipelines", 5, 0)
                 if r.kind == "solve")
    broken = dataclasses.replace(solve, inputs={**solve.inputs, "h": -1.0})
    wrong = dataclasses.replace(good, expect={**good.expect, "exit": 1})
    monkeypatch.setattr(workloads, "requests",
                        lambda name, seed, r: [broken, wrong, good])
    session = run.Session(workloads, "steps-pipelines", 5, ctx)
    latencies = session.run_round(1)["latencies"]
    assert (session.attempted, session.failed) == (3, 2)
    assert len(latencies) == 3
    assert "ValueError" in session.problems[0]


def test_probe_scales_times_by_host_speed(ctx):
    nominal = probe.NOMINAL_PROBE_S
    assert probe.speed([nominal] * 3) == 1.0
    # one probe in ten stretched by an interrupt does not count
    assert probe.speed([2 * nominal] * 9 + [100.0]) == 0.5
    session = run.Session(workloads, "catalog-sweep", 5, ctx)
    rnd = session.run_round(1, probe=probe)
    assert len(rnd["probes"]) >= len(workloads.requests("catalog-sweep", 5, 1))
    assert sum(rnd["latencies"]) < rnd["work"] < rnd["wall"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest_and_traced_counts(name):
    runs = [parse_output(run_bench("--workload", name, "--seed", "11",
                                   "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    (first, digest_a), (second, digest_b) = runs
    assert digest_a == digest_b
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {n for n, _, _ in tracing.PER_LAYER}
    counts = [n for n, unit, _ in tracing.PER_LAYER if unit == "count"]
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["workload.repeated_input_share"] == \
        second["metrics"]["workload.repeated_input_share"]


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result, _ = parse_output(run_bench("--workload", "steps-pipelines",
                                       "--seed", "3", "--seconds", "1"))
    assert result["correct"] and result["attempted"] >= run.MIN_ANSWERS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "catalog-sweep", "--seed", "1",
                     "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
