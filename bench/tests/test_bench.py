"""Tests of the benchmark itself, at a tiny size."""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SCALE = 0.002  # simulate 20 per scenario, replay 320 rows, assess 400 calls
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "PROBES_PER_REP", 1)
    return tmp_path


def one_rep(name, work, seed=3):
    workload = run.workloads(SCALE)[name]
    workload.prepare(work, seed)
    rep = run.run_rep(workload, work, 0, False, time.perf_counter() + 60)
    assert rep["ok"]
    assert workload.check(rep["dir"]) == 0
    return workload, rep


def rewrite_lines(path, edit):
    lines = path.read_text(encoding="utf-8").split("\n")
    edit(lines)
    path.write_text("\n".join(lines), encoding="utf-8")


def corrupt_risk(lines):
    fields = lines[5].split(",")
    fields[-2] = str(int(fields[-2]) % 25 + 1)
    lines[5] = ",".join(fields)


def test_replay_log_is_deterministic_per_seed():
    assert inputs.replay_log(7, 500).text == inputs.replay_log(7, 500).text
    assert inputs.replay_log(7, 500).text != inputs.replay_log(8, 500).text
    log = inputs.replay_log(7, 5000)
    assert 0.005 < 1 - log.valid.mean() < 0.03
    assert not any(token in log.text.lower() for token in ("nan", "inf"))


def test_assess_readings_are_deterministic_and_distinct():
    a = inputs.assess_readings(7, 1000)
    assert np.array_equal(a, inputs.assess_readings(7, 1000))
    assert not np.array_equal(a, inputs.assess_readings(8, 1000))
    assert len(np.unique(a, axis=0)) == len(a)
    assert np.isfinite(a).all() and (a[:, 0] + a[:, 2] > 0).all()


@pytest.mark.parametrize("output, name", [("out/samples.csv", "simulate_160k"),
                                          ("assessed.csv", "replay_160k")])
def test_checker_catches_corrupted_risk_score(work, output, name):
    workload, rep = one_rep(name, work)
    rewrite_lines(rep["dir"] / output, corrupt_risk)
    assert workload.check(rep["dir"]) == 1


@pytest.mark.parametrize("output, name", [("out/samples.csv", "simulate_160k"),
                                          ("assessed.csv", "replay_160k")])
def test_checker_catches_dropped_row(work, output, name):
    workload, rep = one_rep(name, work)
    rewrite_lines(rep["dir"] / output, lambda lines: lines.pop(7))
    assert workload.check(rep["dir"]) == 1


def test_checker_catches_wrongly_scored_row(work):
    workload, rep = one_rep("replay_160k", work)
    skipped = workload.log.timestamps[int(np.flatnonzero(~workload.log.valid)[0])]
    rewrite_lines(rep["dir"] / "assessed.csv",
                  lambda lines: lines.insert(3, skipped + lines[3][lines[3].index(","):]))
    assert workload.check(rep["dir"]) == 1


def test_checker_catches_corrupted_assess_result(work):
    workload, rep = one_rep("assess_single", work)
    path = rep["dir"] / "assess_results.npy"
    results = np.load(path)
    results[4, 9] += 1  # risk score
    np.save(path, results)
    assert workload.check(rep["dir"]) == 1


def test_differing_digests_fail_the_repetition(work):
    workload, rep = one_rep("replay_160k", work)
    other = dict(rep, digests={"assessed.csv": "0" * 64})
    assert run.count_failures(workload, [rep, other]) == workload.readings


def test_run_figures_combine_over_the_whole_run():
    def rep(busy_s, p50, p99):
        return {"readings": 10, "busy_s": busy_s, "block_p50_us": p50, "block_p99_us": p99,
                "peak_rss_mb": 5.0, "latency_samples": 10 * len(p50)}

    metrics = run.end_to_end([rep(1.0, [1.0, 3.0], [2.0, 6.0]), rep(4.0, [8.0], [10.0])],
                             [0.3, 0.1, 0.2])
    assert metrics["readings_per_s"] == (20 / 5.0, "1/s")
    assert metrics["latency_p50_us"] == (4.0, "us")
    assert metrics["latency_p99_us"] == (6.0, "us")
    assert metrics["setup_s"] == (0.2, "s")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.workloads()))
def test_workload_runs_at_tiny_size(work, name, trace):
    args = argparse.Namespace(workload=name, seed=5, seconds=1, trace=trace)
    result = run.run(args, run.workloads(SCALE)[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * run.workloads(SCALE)[name].readings
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "replay_160k", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
