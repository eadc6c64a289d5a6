import csv
import gc
import hashlib
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hazardrisk.batch
import hazardrisk.cli
from hazardrisk import (EnvironmentReading, SamplerConfig, assess, assess_columns,
                        generate_dataset, joint_probability, load_catalog, normalize_marginals,
                        scenario_samples, scenario_statistics)
from hazardrisk.batch import valid_readings
from hazardrisk.cli import _number, main

ONE_THREAD = hazardrisk.cli._one_thread
from hazardrisk.reporting import SAMPLES_COLUMNS, write_rows, write_scenario_stats

SRC = Path(hazardrisk.__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--seed", "42", "--samples", "100", "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_emits_all_files(self, outdir):
        names = {p.name for p in outdir.iterdir()}
        assert names == {
            "samples.csv",
            "scenario_stats.csv",
            "heatmap.csv",
            "marginals.csv",
            "joint.csv",
            "manifest.json",
        }

    def test_samples_row_count_and_schema(self, outdir):
        rows = read_csv(outdir / "samples.csv")
        assert len(rows) == 1600
        assert list(rows[0].keys()) == SAMPLES_COLUMNS

    def test_samples_risk_is_product(self, outdir):
        for row in read_csv(outdir / "samples.csv"):
            assert int(row["risk_score"]) == int(row["prob_score"]) * int(
                row["severity_score"]
            )

    def test_scenario_stats_sorted_with_extreme_last(self, outdir):
        rows = read_csv(outdir / "scenario_stats.csv")
        assert len(rows) == 16
        means = [float(r["mean_risk"]) for r in rows]
        assert means == sorted(means)
        last = rows[-1]
        assert (last["friction_label"], last["visibility_label"]) == (
            "Icy",
            "Very Dense Fog",
        )
        assert float(last["mean_risk"]) == 25.0

    def test_heatmap_matrix(self, outdir):
        rows = read_csv(outdir / "heatmap.csv")
        assert len(rows) == 5
        for row in rows:
            s = int(row["severity_score"])
            for p in range(1, 6):
                assert int(row[f"prob_{p}"]) == p * s

    def test_manifest_lists_every_output(self, outdir):
        manifest = json.loads((outdir / "manifest.json").read_text())
        listed = {o["path"] for o in manifest["outputs"]}
        assert listed == {p.name for p in outdir.iterdir()}
        assert manifest["config"]["seed"] == 42
        by_path = {o["path"]: o["rows"] for o in manifest["outputs"]}
        assert by_path["samples.csv"] == 1600

    def test_single_sample_run(self, tmp_path):
        assert main(["simulate", "--samples", "1", "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "samples.csv")) == 16

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        flags = ["simulate", "--seed", "7", "--samples", "25"]
        assert main(flags + ["--out", str(out1)]) == 0
        assert main(flags + ["--out", str(out2)]) == 0
        for name in ["samples.csv", "scenario_stats.csv", "heatmap.csv",
                     "marginals.csv", "joint.csv", "manifest.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_invalid_config_exits_64(self, tmp_path, capsys):
        assert main(["simulate", "--samples", "0", "--out", str(tmp_path)]) == 64
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--grade", "nan"], ["--design-speed", "inf"], ["--design-speed", "nan"]]
    )
    def test_nonfinite_flag_exits_64(self, tmp_path, capsys, flags):
        assert main(["simulate", "--samples", "1", "--out", str(tmp_path)] + flags) == 64
        assert "finite" in capsys.readouterr().err

    def test_negative_grade_reached_by_a_draw_exits_64(self, tmp_path, capsys):
        # An Icy draw below 0.1 meets the -0.1 grade before any file is written.
        assert main(["simulate", "--samples", "5", "--grade", "-0.1",
                     "--out", str(tmp_path / "s")]) == 64
        assert capsys.readouterr().err.startswith("error: mu + grade must be > 0")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("sigma_rule", ["1e-9", "nan", "inf"])
    def test_unsamplable_sigma_rule_exits_64(self, tmp_path, capsys, sigma_rule):
        assert main(["simulate", "--samples", "5", "--sigma-rule", sigma_rule,
                     "--out", str(tmp_path)]) == 64
        assert "sigma_rule must be finite and >= 0.01" in capsys.readouterr().err

    def test_three_band_config(self, tmp_path, default_rates_csv):
        # Drop Icy friction and the Clear band from both visibility sets.
        kept = [line for line in default_rates_csv.splitlines()
                if ",Icy," not in line and ",Clear," not in line]
        path = tmp_path / "rates.csv"
        path.write_text("\n".join(kept) + "\n")
        out = tmp_path / "out"
        assert main(["simulate", "--samples", "5", "--config", str(path),
                     "--out", str(out)]) == 0
        assert len(read_csv(out / "scenario_stats.csv")) == 9
        assert len(read_csv(out / "joint.csv")) == 9
        assert len(read_csv(out / "samples.csv")) == 45

    def test_output_does_not_depend_on_block_size(self, tmp_path, monkeypatch):
        flags = ["simulate", "--seed", "5", "--samples", "7", "--grade", "0.01"]
        assert main(flags + ["--out", str(tmp_path / "whole")]) == 0
        # Two and three blocks a scenario.
        for rows in (5, 3):
            monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", rows)
            assert main(flags + ["--out", str(tmp_path / str(rows))]) == 0
            for name in ("samples.csv", "scenario_stats.csv", "manifest.json"):
                whole = (tmp_path / "whole" / name).read_bytes()
                assert (tmp_path / str(rows) / name).read_bytes() == whole, (rows, name)

    def test_peak_memory_does_not_grow_with_the_sample_count(self, tmp_path):
        # 320k samples: holding them all, or their scores, would take 20 MB.
        assert main(["simulate", "--samples", "1", "--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(["simulate", "--samples", "20000", "--out", str(tmp_path / "big")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_negative_seed_exits_64(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "-1", "--samples", "1",
                     "--out", str(tmp_path / "s")]) == 64
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "s").exists()

    def test_memory_failure_in_the_draws_exits_64(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(hazardrisk.sampler, "truncated_normal", no_memory)
        assert main(["simulate", "--samples", "5", "--out", str(tmp_path / "s")]) == 64
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not (tmp_path / "s").exists()

    def test_unwritable_output_exits_2(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        assert main(["simulate", "--samples", "1", "--out", str(target)]) == 2


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (/proc/self/cgroup, the cgroup directory it names, its cpu.max or None, CPUs allowed)
CGROUPS = {
    "quota_of_2": ("0::/job\n", "job", "200000 100000\n", 2),
    "rounded_down": ("0::/job\n", "job", "250000 100000\n", 2),
    "at_least_1": ("0::/job\n", "job", "50000 100000\n", 1),
    "root_cgroup": ("0::/\n", "", "100000 100000\n", 1),
    "v1_lines_first": ("4:memory:/job\n1:cpu:/\n0::/job\n", "job", "300000 100000\n", 3),
    "no_quota": ("0::/job\n", "job", "max 100000\n", None),
    "no_cpu_max": ("0::/job\n", "job", None, None),
    "cgroup_v1_only": ("1:cpu:/job\n", "job", "200000 100000\n", None),
}


@pytest.mark.parametrize("name", CGROUPS)
def test_cgroup_cpus_reads_the_quota_of_its_own_cgroup(tmp_path, name):
    membership, directory, cpu_max, allowed = CGROUPS[name]
    (tmp_path / "cgroup").write_text(membership)
    (tmp_path / "fs" / directory).mkdir(parents=True)
    if cpu_max:
        (tmp_path / "fs" / directory / "cpu.max").write_text(cpu_max)
    assert hazardrisk.cli._cgroup_cpus(str(tmp_path / "cgroup"), str(tmp_path / "fs")) == allowed


def in_a_worker(parent, action):
    """hazardrisk.batch.assess_columns, except that it runs `action` instead
    in any process but `parent`."""
    assess_columns = hazardrisk.batch.assess_columns

    def wrapped(*args):
        if os.getpid() != parent:
            action()
        return assess_columns(*args)

    return wrapped


def forking_run(argv, prelude=""):
    """hazardrisk argv in a fresh interpreter in development mode, where a
    DeprecationWarning is an error (Python 3.12+ warns on a fork while threads
    run: numpy loads after it), after the Python source `prelude`. Two CPUs
    and no quota are reported, so that the run forks on any machine; stdout
    is the number of forks. A child process left after the run exits 1."""
    script = ("import os, sys\n"
              "import hazardrisk.cli\n"
              + prelude +
              "forks, fork = [], os.fork\n"
              "os.fork = lambda: forks.append(1) or fork()\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "hazardrisk.cli._cgroup_cpus = lambda: None\n"
              "code = hazardrisk.cli.main(sys.argv[1:])\n"
              "print(len(forks))\n"
              "try:\n"
              "    os.waitpid(-1, os.WNOHANG)\n"
              "    code = 'error: a child process is left'\n"
              "except ChildProcessError:\n"
              "    pass\n"
              "sys.exit(code)\n")
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::DeprecationWarning", "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)


# Blocks of 50 rows; the parent, or the worker, sends itself SIGINT as a
# Ctrl-C would after the first block it formats. numpy is not loaded yet.
# A process that starts with SIGINT ignored (a background job of a
# non-interactive shell, say) keeps ignoring it: the prelude installs the
# handler Python gives a process started in the foreground.
INTERRUPTED = ("import signal\n"
               "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
               "hazardrisk.cli.BLOCK_ROWS = 50\n"
               "parent, assessed_text, calls = os.getpid(), hazardrisk.cli.assessed_text, []\n"
               "def interrupting(*args):\n"
               "    calls.append(1)\n"
               "    if len(calls) == 2 and (os.getpid() == parent) == {in_parent}:\n"
               "        os.kill(os.getpid(), signal.SIGINT)\n"
               "    return assessed_text(*args)\n"
               "hazardrisk.cli.assessed_text = interrupting\n")

# One friction band and one visibility band: a single scenario.
ONE_SCENARIO_RATES = ("dimension,label,lower,upper,crash_rate\n"
                      "friction,Dry,0.7,0.9,1.9\n"
                      "visibility,Clear,1640.0,6562.0,0.685\n"
                      "sampling_visibility,Clear,4000.0,6500.0,0.685\n")


class TestSimulateWorkers:
    # 7 samples a scenario in blocks of 3: each scenario's 3 blocks straddle
    # the turns of the parent and its workers.
    FLAGS = ["simulate", "--seed", "5", "--samples", "7"]

    # A label the csv module quotes: a comma, double quotes and a newline.
    @pytest.mark.parametrize("fog_label", [None, '"Dense, ""thick""\nFog"'])
    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, cpus,
                                                     default_rates_csv, fog_label):
        monkeypatch.delenv("HAZARD_RISK_CONFIG", raising=False)
        monkeypatch.setattr(hazardrisk.cli, "PROCESSES", 3)
        flags = list(self.FLAGS)
        if fog_label:
            assert default_rates_csv.count(",Dense Fog,") == 2
            rates = default_rates_csv.replace(",Dense Fog,", f",{fog_label},")
            (tmp_path / "rates.csv").write_text(rates)
            flags += ["--config", str(tmp_path / "rates.csv")]
        outputs = []
        for n in (1, 2, 3):
            forks = cpus(n)
            assert main(flags + ["--out", str(tmp_path / str(n))]) == 0
            assert len(forks) == n - 1
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / str(n)).iterdir()})
        assert len(outputs[0]) == 6
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_left()

    # Blocks of 3: three samples of one scenario are the run's only block,
    # which leaves a worker nothing to send; four make two blocks.
    @pytest.mark.parametrize("samples, forked", [(3, 0), (4, 1)])
    def test_run_of_one_block_does_not_fork(self, tmp_path, cpus, samples, forked):
        (tmp_path / "rates.csv").write_text(ONE_SCENARIO_RATES)
        forks = cpus(2)
        assert main(["simulate", "--samples", str(samples), "--config", str(tmp_path / "rates.csv"),
                     "--out", str(tmp_path / "s")]) == 0
        assert len(forks) == forked
        assert len(read_csv(tmp_path / "s" / "samples.csv")) == samples
        assert_no_child_left()

    def test_no_more_than_two_processes(self, tmp_path, cpus):
        forks = cpus(64)
        assert main(self.FLAGS + ["--out", str(tmp_path / "s")]) == 0
        assert len(forks) == 1
        assert_no_child_left()

    # --out is made by the run, or holds a file already.
    @pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
    def test_failure_in_a_worker_exits_as_in_the_parent(self, tmp_path, capfd, monkeypatch, cpus,
                                                        existing):
        def no_memory():
            raise MemoryError

        out = tmp_path / "made" / "s"
        if existing:
            out.mkdir(parents=True)
            (out / "keep.txt").write_text("kept")
        monkeypatch.setattr(hazardrisk.batch, "assess_columns", in_a_worker(os.getpid(), no_memory))
        cpus(2)
        assert main(self.FLAGS + ["--out", str(out)]) == 64
        assert capfd.readouterr().err == "error: out of memory\n"
        if existing:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
        else:
            assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.parametrize("end, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), 9), "was killed by signal 9"),
    ], ids=["exit_3", "sigkill"])
    def test_worker_that_ends_without_its_block_exits_64(self, tmp_path, capfd, monkeypatch,
                                                          cpus, end, how):
        monkeypatch.setattr(hazardrisk.batch, "assess_columns", in_a_worker(os.getpid(), end))
        cpus(2)
        assert main(self.FLAGS + ["--out", str(tmp_path / "s")]) == 64
        err = capfd.readouterr().err
        assert err.startswith("error: worker process ")
        assert err.endswith(f" {how} before block 1\n") and err.count("\n") == 1
        assert not (tmp_path / "s").exists()
        assert_no_child_left()

    def test_failed_check_pass_writes_nothing(self, tmp_path, capfd, cpus):
        cpus(2)
        assert main(self.FLAGS + ["--grade", "-0.1", "--out", str(tmp_path / "s")]) == 64
        assert capfd.readouterr().err.startswith("error: mu + grade must be > 0")
        assert not (tmp_path / "s").exists()
        assert_no_child_left()

    # At 20000 samples a worker has more than its 1 MB pipe holds to send
    # when the parent stops reading.
    @pytest.mark.parametrize("samples", ["7", "20000"])
    def test_unwritable_output_exits_2(self, tmp_path, cpus, samples):
        forks = cpus(2)
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        assert main(["simulate", "--samples", samples, "--out", str(target)]) == 2
        assert len(forks) == 1
        assert_no_child_left()

    # The first fork fails, or the second, after one worker has started.
    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_fork_runs_serial(self, tmp_path, monkeypatch, cpus, failing):
        monkeypatch.setattr(hazardrisk.cli, "PROCESSES", 3)
        forks = cpus(3)
        counted = os.fork

        def fork():
            if len(forks) + 1 == failing:
                forks.append(1)
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return counted()

        monkeypatch.setattr(os, "fork", fork)
        assert main(self.FLAGS + ["--out", str(tmp_path / "forked")]) == 0
        assert len(forks) == failing
        assert_no_child_left()
        cpus(1)
        assert main(self.FLAGS + ["--out", str(tmp_path / "serial")]) == 0
        for name in ("samples.csv", "scenario_stats.csv"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "forked" / name).read_bytes() == serial, name

    def test_second_thread_keeps_the_run_serial(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(hazardrisk.cli, "_one_thread", ONE_THREAD)
        forks = cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not ONE_THREAD()
            assert main(self.FLAGS + ["--out", str(tmp_path / "s")]) == 0
        finally:
            release.set()
            thread.join()
        assert forks == []

    def test_fork_is_safe_in_a_fresh_interpreter(self, tmp_path):
        result = forking_run(["simulate", "--samples", "2048", "--out", str(tmp_path)])
        assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
        assert len(read_csv(tmp_path / "samples.csv")) == 16 * 2048

    @pytest.mark.parametrize("in_parent", [True, False], ids=["parent", "worker"])
    def test_interrupt_exits_130_and_leaves_no_output(self, tmp_path, in_parent):
        out = tmp_path / "made" / "s"
        result = forking_run(["simulate", "--samples", "100", "--out", str(out)],
                             INTERRUPTED.format(in_parent=in_parent))
        assert (result.returncode, result.stdout, result.stderr) == (130, "1\n",
                                                                     "error: interrupted\n")
        assert list(tmp_path.iterdir()) == []


def replay_log(rows):
    """A replay log of `rows` records: valid readings, with a row for each
    reason replay skips one, blank lines, timestamps that span lines or hold
    a comma and quotes, and runs of rows that are all skipped."""
    kinds = [
        "t{i},0.{d},{s},,", "t{i},abc,100,,", "t{i},0.5", "t{i},0.5,100,0,55,9", "",
        "t{i},0,100,,", "t{i},0.5,-1,,", "t{i},0.3,250,nan,", "t{i},0.6,900,,inf",
        "t{i},0.1,120,-0.2,", "t{i},0.5,600,,0", '"t\n{i}",0.{d},{s},0.02,',
        '"a, ""{i}""",0.{d},{s},,45', "t{i},0.{d},{s},-0.01,60", "t{i},0.{d},{s},,",
    ]
    lines = [kinds[i % len(kinds)].format(i=i, d=i % 9 + 1, s=i * 37 % 7000) for i in range(rows)]
    return "timestamp,mu,sight_ft,grade,design_speed\n" + "\n".join(lines) + "\n"


class TestReplayWorkers:
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path, capfd, monkeypatch, cpus,
                                                     to_file):
        monkeypatch.setattr(hazardrisk.cli, "PROCESSES", 3)
        src = tmp_path / "log.csv"
        src.write_text(replay_log(47))
        outputs = []
        for n in (1, 2, 3):
            forks = cpus(n)
            out = tmp_path / f"{n}.csv"
            assert main(["replay", "--input", str(src)] + (["--out", str(out)] if to_file else [])) == 0
            assert len(forks) == n - 1
            captured = capfd.readouterr()
            outputs.append((captured, out.read_bytes() if to_file else None))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        captured, written = outputs[0]
        assert captured.err.count("warning: line") == 28
        assert captured.err.endswith("warning: line 51: skipped (could not convert string to "
                                     "float: 'abc')\n")
        rows = list(csv.reader(io.StringIO(written.decode() if to_file else captured.out)))
        assert len(rows) == 1 + 47 - 28 - 3  # and three blank lines
        assert [row[0] for row in rows[1:4]] == ["t0", "t\n11", 'a, "12"']
        assert_no_child_left()

    # Three records fill the one block, blank line included; a fourth starts another.
    @pytest.mark.parametrize("records, forked", [(3, 0), (4, 1)])
    def test_log_of_one_block_does_not_fork(self, tmp_path, capfd, cpus, records, forked):
        forks = cpus(2)
        src = tmp_path / "log.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n\n" + "t,0.5,600\n" * (records - 2))
        assert main(["replay", "--input", str(src)]) == 0
        assert len(forks) == forked
        assert len(capfd.readouterr().out.splitlines()) == records
        assert_no_child_left()

    def test_cgroup_quota_keeps_the_run_serial(self, tmp_path, capfd, monkeypatch, cpus):
        forks = cpus(4)
        monkeypatch.setattr(hazardrisk.cli, "_cgroup_cpus", lambda: 1)
        src = tmp_path / "log.csv"
        src.write_text(replay_log(20))
        assert main(["replay", "--input", str(src)]) == 0
        assert forks == []
        assert_no_child_left()

    def test_failure_in_a_worker_exits_as_in_the_parent(self, tmp_path, capfd, monkeypatch, cpus):
        def no_memory():
            raise MemoryError

        src = tmp_path / "log.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "t,0.5,600\n" * 20)
        out = tmp_path / "assessed.csv"
        out.write_bytes(b"earlier result\n")
        monkeypatch.setattr(hazardrisk.batch, "assess_columns", in_a_worker(os.getpid(), no_memory))
        cpus(2)
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 64
        assert capfd.readouterr().err == "error: out of memory\n"
        assert out.read_bytes() == b"earlier result\n"
        assert sorted(tmp_path.iterdir()) == [out, src]
        assert_no_child_left()

    # A worker that ends with status 0 has read fewer blocks than the parent:
    # the log changed while it was read.
    @pytest.mark.parametrize("end, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os._exit(0), "exited with status 0"),
        (lambda: os.kill(os.getpid(), 9), "was killed by signal 9"),
    ], ids=["exit_3", "exit_0", "sigkill"])
    def test_worker_that_ends_without_its_block_exits_64(self, tmp_path, capfd, monkeypatch,
                                                          cpus, end, how):
        src = tmp_path / "log.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "t,0.5,600\n" * 20)
        out = tmp_path / "assessed.csv"
        out.write_bytes(b"earlier result\n")
        monkeypatch.setattr(hazardrisk.batch, "assess_columns", in_a_worker(os.getpid(), end))
        cpus(2)
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 64
        err = capfd.readouterr().err
        assert err.startswith("error: worker process ")
        assert err.endswith(f" {how} before block 1\n") and err.count("\n") == 1
        assert out.read_bytes() == b"earlier result\n"
        assert sorted(tmp_path.iterdir()) == [out, src]
        assert_no_child_left()

    # The unreadable record is the one read ahead to decide on the fork (3),
    # in the worker's block (4, 10) or in the parent's (6); a byte that is not
    # UTF-8 comes past the first 8 kB that the file decodes at once.
    @pytest.mark.parametrize("fault, at", [
        ("csv", 3), ("csv", 4), ("csv", 6), ("csv", 10), ("utf8", 650), ("utf8", 1300)])
    def test_unreadable_log_exits_65_with_the_parents_line_number(self, tmp_path, capfd, cpus,
                                                                  fault, at):
        lines = replay_log(1500).encode().split(b"\n")
        lines[at + 1] = (b'"' + b"t" * 131073 + b'",0.5,600,,' if fault == "csv"
                         else b"t,0.5,600,,\xff")
        src = tmp_path / "log.csv"
        src.write_bytes(b"\n".join(lines))
        results = []
        for n in (1, 2):
            forks = cpus(n)
            rc = main(["replay", "--input", str(src)])
            results.append((rc, capfd.readouterr()))
            assert len(forks) == (n - 1 if at > 3 else 0)
        assert results[1] == results[0]
        rc, captured = results[0]
        error = captured.err.splitlines()[-1]
        assert rc == 65 and error.startswith(f"error: {src} is not ")
        # The first block's warnings come first, whether or not it is followed.
        assert captured.err.startswith("warning: line 3: skipped (could not convert string")
        if fault == "csv":  # record `at` starts on line at + 2
            assert error.endswith(f"at line {at + 2}: field larger than field limit (131072)")
        else:
            assert "is not UTF-8 text" in error and "warning: line 9" in captured.err
        assert_no_child_left()

    @pytest.mark.parametrize("rows", [20, 12000])
    def test_unwritable_output_exits_2(self, tmp_path, capfd, cpus, rows):
        # At 12000 rows the worker has more than its 1 MB pipe holds to send
        # when the parent stops reading.
        forks = cpus(2)
        src = tmp_path / "log.csv"
        src.write_text("timestamp,mu,sight_ft\n" + f"{'t' * 200},0.5,600\n" * rows)
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "no" / "out.csv")]) == 2
        assert capfd.readouterr().err.startswith("error: cannot write output: ")
        assert len(forks) == 1
        assert_no_child_left()

    def test_failed_fork_runs_serial(self, tmp_path, capfd, monkeypatch, cpus):
        forks = cpus(2)
        src = tmp_path / "log.csv"
        src.write_text(replay_log(30))

        def fork():
            forks.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert main(["replay", "--input", str(src)]) == 0
        forked = capfd.readouterr()
        assert len(forks) == 1
        assert_no_child_left()
        cpus(1)
        assert main(["replay", "--input", str(src)]) == 0
        assert capfd.readouterr() == forked

    # The parent has the log open: a serial run would read it to the end.
    @pytest.mark.parametrize("change, error", [
        (lambda src, other: os.replace(other, src), "{src} was replaced while it was read"),
        (lambda src, other: src.unlink(), "{src} cannot be opened again: [Errno 2] "
                                          "No such file or directory: '{src}'"),
    ], ids=["replaced", "removed"])
    def test_log_changed_before_the_worker_opens_it_exits_64(self, tmp_path, capfd, monkeypatch,
                                                             cpus, change, error):
        forks = cpus(2)
        src = tmp_path / "log.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "t,0.5,600\n" * 20)
        other = tmp_path / "other.csv"
        other.write_text("timestamp,mu,sight_ft\n" + "t,0.8,5000\n" * 20)
        counted = os.fork

        def fork():
            change(src, other)
            return counted()

        monkeypatch.setattr(os, "fork", fork)
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "out.csv")]) == 64
        assert capfd.readouterr().err == "error: " + error.format(src=src) + "\n"
        assert len(forks) == 1 and not (tmp_path / "out.csv").exists()
        assert_no_child_left()

    def test_fork_is_safe_in_a_fresh_interpreter(self, tmp_path, capsys):
        src = tmp_path / "log.csv"
        src.write_text(replay_log(3000))
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "here.csv")]) == 0
        warnings = capsys.readouterr().err
        assert warnings.count("warning: line") == 1800
        result = forking_run(["replay", "--input", str(src), "--out", str(tmp_path / "forked.csv")])
        assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", warnings)
        forked = (tmp_path / "forked.csv").read_bytes()
        assert forked == (tmp_path / "here.csv").read_bytes()
        assert_no_child_left()

    # The parent is interrupted in its second block (2) with no --out file
    # yet, the worker in its own (3) with an earlier --out file.
    @pytest.mark.parametrize("in_parent", [True, False], ids=["parent", "worker"])
    def test_interrupt_exits_130_after_the_warnings_written(self, tmp_path, capsys, in_parent):
        src = tmp_path / "log.csv"
        src.write_text(replay_log(300))
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "whole.csv")]) == 0
        warnings = capsys.readouterr().err
        (tmp_path / "whole.csv").unlink()
        out = tmp_path / "assessed.csv"
        if not in_parent:
            out.write_bytes(b"earlier result\n")
        result = forking_run(["replay", "--input", str(src), "--out", str(out)],
                             INTERRUPTED.format(in_parent=in_parent))
        assert (result.returncode, result.stdout) == (130, "1\n")
        assert result.stderr.endswith("\nerror: interrupted\n")
        written = result.stderr.removesuffix("error: interrupted\n")
        assert written.startswith("warning: line ") and warnings.startswith(written)
        assert len(written) < len(warnings)
        if in_parent:
            assert sorted(tmp_path.iterdir()) == [src]
        else:
            assert sorted(tmp_path.iterdir()) == [out, src]
            assert out.read_bytes() == b"earlier result\n"


class TestAssess:
    def test_icy_low_visibility_json(self, capsys):
        assert main(["assess", "--mu", "0.1", "--sight-ft", "150"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["risk_score"] == 25
        assert record["risk_level"] == "Extreme"
        assert record["v_advisory_mph"] == pytest.approx(11.6, abs=0.1)

    def test_dry_clear_clamps_to_design_speed(self, capsys):
        assert main(["assess", "--mu", "0.8", "--sight-ft", "5000"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["risk_score"] == 1
        assert record["v_advisory_mph"] == 75

    def test_dry_moderate_fog_csv(self, capsys):
        assert main(["assess", "--mu", "0.8", "--sight-ft", "500", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert int(row["severity_score"]) == 3
        assert float(row["v_advisory_mph"]) == pytest.approx(52.1, abs=0.1)

    def test_invalid_reading_exits_64(self, capsys):
        assert main(["assess", "--mu", "0", "--sight-ft", "100"]) == 64
        assert "mu" in capsys.readouterr().err

    def test_nonfinite_grade_exits_64(self, capsys):
        assert main(["assess", "--mu", "0.1", "--sight-ft", "100", "--grade", "nan"]) == 64
        assert "grade must be finite" in capsys.readouterr().err

    def test_extreme_readings_print_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        records = []
        for mu, sight in [("5e-324", "100"), ("0.05", "1e308")]:
            assert main(["assess", "--mu", mu, "--sight-ft", sight]) == 0
            records.append(json.loads(capsys.readouterr().out, parse_constant=reject))
        assert (records[0]["risk_score"], records[0]["risk_level"]) == (25, "Extreme")

    def test_custom_design_speed(self, capsys):
        assert main(["assess", "--mu", "0.8", "--sight-ft", "5000",
                     "--design-speed", "55"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["v_advisory_mph"] == 55


class TestReplay:
    # A skipped row's exception holds a traceback, and with it the frame that
    # scored the block: kept in a warning, it would leave every block's rows
    # to the cyclic collector.
    def test_scored_blocks_leave_no_reference_cycle(self, catalog, joint_table):
        reader = csv.reader(io.StringIO(replay_log(300)))
        header = next(reader)
        frames = hazardrisk.cli._log_frames(header, 75.0, catalog, joint_table,
                                            hazardrisk.cli.numbered_records(reader))
        gc.collect()
        gc.disable()
        try:
            warnings = "".join(frame()[0] for frame in frames)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert warnings.count("warning: line") == 180

    def test_replay_valid_file(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text(
            "timestamp,mu,sight_ft\n"
            "2026-01-01T00:00,0.8,5000\n"
            "2026-01-01T00:05,0.25,582\n"
            "2026-01-01T00:10,0.1,150\n"
        )
        out = tmp_path / "assessed.csv"
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert [r["timestamp"] for r in rows] == [
            "2026-01-01T00:00",
            "2026-01-01T00:05",
            "2026-01-01T00:10",
        ]
        assert int(rows[1]["risk_score"]) == 16
        assert rows[1]["risk_level"] == "High"

    def test_log_with_byte_order_mark_scores_like_one_without(self, tmp_path, capsys):
        # A spreadsheet's "CSV UTF-8" export starts with U+FEFF.
        text = "timestamp,mu,sight_ft\nt0,0.25,582\nt1,0,100\nt2,0.8,5000\n"
        outputs = []
        for name, prefix in [("plain.csv", ""), ("bom.csv", "\ufeff")]:
            src = tmp_path / name
            src.write_text(prefix + text, encoding="utf-8")
            assert main(["replay", "--input", str(src)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert "warning: line 3: skipped" in outputs[0].err

    def test_malformed_row_skipped_with_line_number(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text(
            "timestamp,mu,sight_ft\n"
            "t0,0.8,5000\n"
            "t1,0,500\n"
            "t2,0.5,600\n"
        )
        out = tmp_path / "assessed.csv"
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        assert len(read_csv(out)) == 2
        assert "line 3" in capsys.readouterr().err

    def test_nonfinite_rows_skipped_with_line_numbers(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text(
            "timestamp,mu,sight_ft,grade,design_speed\n"
            "t0,0.1,100,nan,\n"
            "t1,0.8,nan,0,\n"
            "t2,0.5,600,0,inf\n"
            "t3,0.1,100,0,\n"
        )
        out = tmp_path / "assessed.csv"
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [(r["timestamp"], r["risk_level"]) for r in rows] == [("t3", "Extreme")]
        err = capsys.readouterr().err
        for lineno, name in [(2, "grade"), (3, "sight_distance"), (4, "design_speed")]:
            assert f"line {lineno}: skipped ({name} must be finite" in err

    def test_optional_grade_and_design_speed_columns(self, tmp_path):
        src = tmp_path / "readings.csv"
        src.write_text(
            "timestamp,mu,sight_ft,grade,design_speed\n"
            "t0,0.5,500,0.1,55\n"
        )
        out = tmp_path / "assessed.csv"
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["reduction_pct"]) <= 100

    @pytest.mark.parametrize("speed", ["nan", "inf", "0", "-5"])
    def test_invalid_design_speed_flag_exits_64(self, tmp_path, capsys, speed):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "t,0.8,5000\n" * 3)
        assert main(["replay", "--input", str(src), "--design-speed", speed]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: design_speed must be")
        assert "warning" not in captured.err

    def test_non_utf8_log_exits_65(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_bytes("timestamp,mu,sight_ft\nt0,0.8,5000\n".encode("utf-16"))
        assert main(["replay", "--input", str(src)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(src) in err and "UTF-8" in err

    def test_oversized_field_exits_65(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\n"' + "t" * 131073 + '",0.8,5000\n')
        assert main(["replay", "--input", str(src)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(src) in err and "line 3" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("log", [
        "mu,sight_ft,timestamp\n0.8,5000,t0\n0.5,100\n",
        "timestamp,mu,sight_ft\nt0,0.8,5000\nt1,0.5,100,EXTRA\n",
    ], ids=["short_row", "long_row"])
    def test_row_with_other_field_count_skipped(self, tmp_path, capsys, log):
        src = tmp_path / "readings.csv"
        src.write_text(log)
        assert main(["replay", "--input", str(src)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert captured.err == "warning: line 3: skipped (field count differs from header)\n"

    @pytest.mark.parametrize("log,lineno", [
        ("timestamp,mu,sight_ft\nt0,0.8,5000\n\nt1,0,100\n", 4),
        ('timestamp,mu,sight_ft\n"t\n0",0.8,5000\nt1,0,100\n', 4),
        ('timestamp,mu,sight_ft\nt0,0.8,5000\n"t\n1",0,100\n', 3),
    ], ids=["after_blank_line", "after_field_spanning_lines", "row_spanning_lines"])
    def test_warning_names_the_line_the_row_starts_on(self, tmp_path, capsys, log, lineno):
        src = tmp_path / "readings.csv"
        src.write_text(log)
        assert main(["replay", "--input", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: line {lineno}: skipped (mu must be in (0, 1], got 0.0)\n"
        assert len(list(csv.reader(io.StringIO(captured.out)))) == 2

    @pytest.mark.parametrize("log", [
        "timestamp,mu,sight_ft\nt0,0.8,5000\n",
        "timestamp,mu,sight_ft,design_speed\nt0,0.8,5000,\n",
    ], ids=["no_column", "blank_cell"])
    def test_design_speed_flag_fills_in_for_the_row(self, tmp_path, capsys, log):
        src = tmp_path / "readings.csv"
        src.write_text(log)
        assert main(["replay", "--input", str(src), "--design-speed", "55"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (row["v_advisory_mph"], row["reduction_pct"]) == ("55", "0")

    def test_warnings_follow_line_order(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text(
            "timestamp,mu,sight_ft\n"
            "t0,abc,100\n"
            "t1,0.5\n"
            "t2,0.5,-1\n"
            "t3,0.5,100\n"
            "t4,0.5,100,9\n"
        )
        assert main(["replay", "--input", str(src)]) == 0
        assert capsys.readouterr().err == (
            "warning: line 2: skipped (could not convert string to float: 'abc')\n"
            "warning: line 3: skipped (field count differs from header)\n"
            "warning: line 4: skipped (sight_distance must be >= 0, got -1.0)\n"
            "warning: line 6: skipped (field count differs from header)\n"
        )

    def test_output_does_not_depend_on_block_size(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "readings.csv"
        rows = [f"t{i},{(i % 11) / 10},{i * 37 % 7000},{'' if i % 3 else 0.01},"
                for i in range(40)]
        src.write_text("timestamp,mu,sight_ft,grade,design_speed\n" + "\n".join(rows) + "\n")
        assert main(["replay", "--input", str(src)]) == 0
        whole = capsys.readouterr()
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 3)
        assert main(["replay", "--input", str(src)]) == 0
        assert capsys.readouterr() == whole
        assert whole.err.count("warning") == 4  # the rows with mu = 0

    def test_failed_log_leaves_out_path_as_it_was(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\n"' + "t" * 131073 + '",0.8,5000\n')
        out = tmp_path / "assessed.csv"
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 65
        assert list(tmp_path.iterdir()) == [src]
        out.write_bytes(b"earlier result\n")
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 65
        assert out.read_bytes() == b"earlier result\n"
        assert sorted(tmp_path.iterdir()) == [out, src]

    def test_log_failing_after_the_first_block_leaves_out_path_as_it_was(
            self, tmp_path, capsys, monkeypatch):
        # The first block is scored and written before line 3 fails to parse.
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 1)
        src = tmp_path / "readings.csv"
        src.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\n"' + "t" * 131073 + '",0.8,5000\n')
        out = tmp_path / "assessed.csv"
        out.write_bytes(b"earlier result\n")
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 65
        assert out.read_bytes() == b"earlier result\n"
        assert sorted(tmp_path.iterdir()) == [out, src]

    def test_out_with_another_link_is_written_through(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        out = tmp_path / "assessed.csv"
        out.write_text("earlier result\n")
        link = tmp_path / "link.csv"
        os.link(out, link)
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        assert out.samefile(link)
        assert [r["timestamp"] for r in read_csv(link)] == ["t0"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_fifo_is_written_through(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["replay", "--input", str(src), "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got and got[0].splitlines()[1].startswith("t0,Dry,Clear,")
        assert sorted(tmp_path.iterdir()) == [fifo, src]

    def test_out_symlink_is_written_through(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        target = tmp_path / "target.csv"
        target.write_text("earlier result\n")
        link = tmp_path / "assessed.csv"
        link.symlink_to(target)
        assert main(["replay", "--input", str(src), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert [r["timestamp"] for r in read_csv(target)] == ["t0"]

    # Written through, --out would truncate the log it names as it is read.
    @pytest.mark.parametrize("link", ["symlink", "hard_link"])
    def test_out_linked_to_the_log_exits_64(self, tmp_path, capsys, monkeypatch, link):
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 3)
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "t,0.5,600\n" * 20)
        log = src.read_bytes()
        out = tmp_path / "assessed.csv"
        if link == "symlink":
            out.symlink_to(src.name)
        else:
            os.link(src, out)
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 64
        assert capsys.readouterr().err == (
            f"error: --out {out} is the input log: it cannot be written while it is read\n")
        assert src.read_bytes() == log and out.read_bytes() == log
        assert sorted(tmp_path.iterdir()) == [out, src]

    def test_out_that_names_the_log_replaces_it(self, tmp_path, capsys, monkeypatch):
        # The log's only name is renamed onto once the whole log is read.
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 3)
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "".join(f"t{i},0.5,600\n" for i in range(20)))
        assert main(["replay", "--input", str(src), "--out", str(src)]) == 0
        assert [r["timestamp"] for r in read_csv(src)] == [f"t{i}" for i in range(20)]
        assert read_csv(src)[0]["friction_label"] == "Wet"
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("planted", ["symlink", "file"])
    def test_taken_temporary_name_exits_2(self, tmp_path, capsys, planted):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        out = tmp_path / "assessed.csv"
        out.write_bytes(b"earlier result\n")
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"not replay's\n")
        taken = tmp_path / f"assessed.csv.{os.getpid()}.tmp"
        if planted == "symlink":
            taken.symlink_to(victim)
        else:
            taken.write_bytes(b"someone else's\n")
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert victim.read_bytes() == b"not replay's\n"
        assert not out.is_symlink() and out.read_bytes() == b"earlier result\n"
        if planted == "symlink":
            assert taken.is_symlink() and taken.resolve() == victim.resolve()
        else:
            assert not taken.is_symlink() and taken.read_bytes() == b"someone else's\n"
        assert sorted(tmp_path.iterdir()) == sorted([out, src, taken, victim])

    def test_out_file_keeps_its_mode(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        out = tmp_path / "assessed.csv"
        out.write_text("earlier result\n")
        out.chmod(0o600)
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert [r["timestamp"] for r in read_csv(out)] == ["t0"]

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write any directory"
    )
    def test_out_in_read_only_directory_is_written_through(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        out_dir = tmp_path / "ro"
        out_dir.mkdir()
        out = out_dir / "assessed.csv"
        out.write_text("earlier result\n")
        out_dir.chmod(0o555)
        try:
            assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
            assert [r["timestamp"] for r in read_csv(out)] == ["t0"]
        finally:
            out_dir.chmod(0o755)

    def test_repeated_column_exits_65(self, tmp_path, capsys):
        # Read by name, the row would be scored on its second mu (0.1).
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft,mu\nt0,0.8,5000,0.1\n")
        assert main(["replay", "--input", str(src)]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}: header repeats column 'mu'\n"

    def test_repeated_unread_columns_replay(self, tmp_path, capsys):
        # A spreadsheet export's trailing blank header cells repeat the name
        # '', and two note columns repeat 'note': replay reads neither.
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft,note,note,,\nt0,0.8,5000,a,b,,\n")
        assert main(["replay", "--input", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [r["timestamp"] for r in csv.DictReader(io.StringIO(captured.out))] == ["t0"]

    def test_missing_input_exits_66(self, tmp_path, capsys):
        assert main(["replay", "--input", str(tmp_path / "nope.csv")]) == 66

    def test_zero_valid_rows_exits_65(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0,100\n")
        assert main(["replay", "--input", str(src)]) == 65


class TestMatrix:
    def test_table_output(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "25 Extreme" in out
        assert "1 Low" in out

    def test_csv_output_consistent(self, capsys):
        assert main(["matrix", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        for line in lines[1:]:
            s, *cells = [int(x) for x in line.split(",")]
            assert cells == [p * s for p in range(1, 6)]

    def test_json_output_levels(self, capsys):
        assert main(["matrix", "--format", "json"]) == 0
        cells = json.loads(capsys.readouterr().out)
        assert len(cells) == 25
        top = next(
            c for c in cells if c["probability_score"] == 5 and c["severity_score"] == 5
        )
        assert top == {
            "probability_score": 5,
            "severity_score": 5,
            "risk_score": 25,
            "risk_level": "Extreme",
        }


class TestArguments:
    def test_exponent_flag_value_reads_as_a_number(self, capsys):
        outs = []
        for grade in ("-1e-3", "-0.001"):
            assert main(["assess", "--mu", "0.5", "--sight-ft", "100", "--grade", grade]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["assess", "--mu", "0.5", "--sight-ft", "100", "--grade", "-inf"],
        ["assess", "--mu", "0.5", "--sight-ft", "100", "--design-speed", "-inf"],
        ["simulate", "--samples", "1", "--grade", "-inf"],
        ["simulate", "--samples", "1", "--design-speed", "-inf"],
        ["replay", "--input", "absent.csv", "--design-speed", "-inf"],
    ])
    def test_negative_infinity_flag_exits_64(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 64
        name = argv[-2][2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite, got -inf\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["assess", "--mu", "0.5"], ["assess", "--mu"], ["assess", "--mu", "x", "--sight-ft", "1"],
        ["bogus"], [], ["matrix", "--format", "yaml"], ["matrix", "--extra"],
    ])
    def test_usage_error_is_one_line_and_exits_64(self, capsys, argv):
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["assess", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out


class TestConfigOverride:
    def test_config_file_flag(self, tmp_path, capsys, default_rates_csv):
        path = tmp_path / "rates.csv"
        path.write_text(default_rates_csv)
        assert main(["assess", "--mu", "0.1", "--sight-ft", "150",
                     "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["risk_score"] == 25

    def test_config_with_byte_order_mark_loads(self, tmp_path, capsys, default_rates_csv):
        path = tmp_path / "rates.csv"
        path.write_text("\ufeff" + default_rates_csv, encoding="utf-8")
        assert main(["assess", "--mu", "0.1", "--sight-ft", "150",
                     "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["risk_score"] == 25

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        # Double all friction rates: normalization is scale-invariant, so
        # results are unchanged.
        path = tmp_path / "rates.csv"
        path.write_text(
            "dimension,label,lower,upper,crash_rate\n"
            "friction,Icy,0.05,0.15,18.0\n"
            "friction,Snow,0.2,0.3,11.0\n"
            "friction,Wet,0.4,0.6,7.5\n"
            "friction,Dry,0.7,0.9,3.8\n"
            "visibility,Very Dense Fog,33,164,18.70\n"
            "visibility,Dense Fog,164,328,4.95\n"
            "visibility,Rain/Snow,328,656,1.85\n"
            "visibility,Clear,1640,6562,0.685\n"
            "sampling_visibility,Very Dense Fog,33,164,18.70\n"
            "sampling_visibility,Dense Fog,164,1000,4.95\n"
            "sampling_visibility,Rain/Snow,1000,4000,1.85\n"
            "sampling_visibility,Clear,4000,6500,0.685\n"
        )
        monkeypatch.setenv("HAZARD_RISK_CONFIG", str(path))
        assert main(["assess", "--mu", "0.8", "--sight-ft", "150"]) == 0
        assert json.loads(capsys.readouterr().out)["risk_score"] == 20

    def test_bad_config_exits_64(self, tmp_path, capsys):
        path = tmp_path / "rates.csv"
        path.write_text("nonsense\n")
        assert main(["assess", "--mu", "0.5", "--sight-ft", "500",
                     "--config", str(path)]) == 64

    def test_repeated_column_exits_64(self, tmp_path, capsys, default_rates_csv):
        # A second crash_rate column with Dry's rate tripled: read by name,
        # it would move this reading from probability score 4 to 5.
        lines = default_rates_csv.splitlines()
        lines = [f"{line},{line.split(',')[-1]}" for line in lines]
        lines = [line.replace("friction,Dry,0.7,0.9,1.9,1.9", "friction,Dry,0.7,0.9,1.9,5.7")
                 for line in lines]
        assert "friction,Dry,0.7,0.9,1.9,5.7" in lines
        path = tmp_path / "rates.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["assess", "--mu", "0.8", "--sight-ft", "100", "--config", str(path)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: crash-rate config {path}: header repeats column 'crash_rate'\n")

    @pytest.mark.parametrize("command", [["assess", "--mu", "0.5", "--sight-ft", "100"],
                                         ["simulate", "--samples", "5", "--out", "out"]])
    def test_config_that_is_not_utf8_exits_64_naming_it(self, tmp_path, capsys, monkeypatch,
                                                        default_rates_csv, command):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "rates.csv"
        path.write_bytes(default_rates_csv.replace("Icy", "Ic\xff").encode("latin-1"))
        assert main(command + ["--config", str(path)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: crash-rate config {path} is not UTF-8 text: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_inconsistent_config_exits_64(self, bad_rates_path, capsys):
        assert main(["assess", "--mu", "0.8", "--sight-ft", "5000",
                     "--config", str(bad_rates_path)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# Sensor bands that list the labels in another order than the literature
# bands: a join by band position instead of by label would give Dense Fog
# readings the joint of Very Dense Fog, and so on.
REORDERED_SAMPLING = (
    "sampling_visibility,Dense Fog,33,164,4.95\n"
    "sampling_visibility,Very Dense Fog,164,1000,18.7\n"
    "sampling_visibility,Clear,1000,4000,0.685\n"
    "sampling_visibility,Rain/Snow,4000,6500,1.85\n"
)
# A sight distance inside each sensor band, with that band's label.
REORDERED_SIGHTS = {100.0: "Dense Fog", 500.0: "Very Dense Fog", 2000.0: "Clear",
                    5000.0: "Rain/Snow", 164.0: "Very Dense Fog", 4000.0: "Rain/Snow"}


class TestReorderedSensorBands:
    @pytest.fixture
    def config(self, tmp_path, default_rates_csv):
        lines = default_rates_csv.splitlines(keepends=True)
        path = tmp_path / "reordered.csv"
        path.write_text("".join(line for line in lines
                                if not line.startswith("sampling_visibility,")) + REORDERED_SAMPLING)
        return path

    def test_readings_take_the_joint_of_their_labels(self, config):
        catalog = load_catalog(config)
        table = joint_probability(normalize_marginals(list(catalog.friction_bands)),
                                  normalize_marginals(list(catalog.visibility_bands)))
        mus = [0.1, 0.25, 0.5, 0.8]
        pairs = [(mu, sight) for mu in mus for sight in REORDERED_SIGHTS]
        columns = assess_columns(np.array([mu for mu, _ in pairs]),
                                 np.array([sight for _, sight in pairs]), 0.0, 75.0,
                                 catalog, table)
        for i, (mu, sight) in enumerate(pairs):
            result = assess(EnvironmentReading(mu, sight), catalog, table)
            assert result.visibility_label == REORDERED_SIGHTS[sight]
            want = table.lookup(result.friction_label, result.visibility_label)
            assert (result.joint_probability, result.probability_score) == (
                want.normalized_joint, want.probability_score)
            assert columns["visibility_label"][i] == result.visibility_label
            assert (columns["joint_probability"][i], columns["probability_score"][i]) == (
                want.normalized_joint, want.probability_score)

    def test_assess_reports_the_sensor_label(self, config, capsys):
        assert main(["assess", "--mu", "0.8", "--sight-ft", "100", "--config", str(config)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["visibility_label"], record["joint_prob"], record["prob_score"]) == (
            "Dense Fog", 0.017825067009837905, 2)

    def test_simulate_samples_digest(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--seed", "3", "--samples", "50", "--config", str(config),
                     "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
        assert digest == "9c3ec8ef0c0c2b89d10d1de320cf9e09b6b3c2323a77b5cc24b470241fdf8b73"


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), n=st.integers(min_value=1, max_value=50))
def test_simulate_streams_what_the_whole_dataset_gives(tmp_path, catalog, joint_table, seed, n):
    assert main(["simulate", "--seed", str(seed), "--samples", str(n), "--out", str(tmp_path)]) == 0
    samples = generate_dataset(SamplerConfig(seed=seed, samples_per_scenario=n), catalog)
    records = samples.records
    columns = assess_columns(records.mu, records.sight_ft, 0.0, 75.0, catalog, joint_table)
    rows = read_csv(tmp_path / "samples.csv")
    assert [(int(r["scenario_id"]), r["mu"], r["sight_ft"]) for r in rows] == [
        (int(i), "%.6g" % mu, "%.6g" % sight) for i, mu, sight in records.tolist()]
    expected = tmp_path / "expected_stats.csv"
    write_scenario_stats(expected, scenario_statistics(samples, columns["risk_score"]))
    assert (tmp_path / "scenario_stats.csv").read_bytes() == expected.read_bytes()


def test_write_rows_types_each_column_as_np_array_does():
    # A column is float if any cell is, not only its first: 0.5 stays 0.5.
    stream = io.StringIO()
    assert write_rows(stream, ["a", "b", "c"], [[0, "x", 1], [0.5, "y", 2]]) == 2
    assert stream.getvalue() == "a,b,c\n0,x,1\n0.5,y,2\n"


def _edges(upper, n):
    """n distinct ascending whole numbers in [0, upper]."""
    return st.lists(st.integers(0, upper), min_size=n, max_size=n, unique=True).map(sorted)


@st.composite
def _config_rows(draw):
    """Crash-rate CSV text for 1-4 friction bands, with gaps or not, and 1-4
    contiguous visibility bands, the same in both visibility sets."""
    friction = draw(st.integers(1, 4).flatmap(lambda k: _edges(100, 2 * k)))
    visibility = draw(st.integers(1, 4).flatmap(lambda k: _edges(6562, k + 1)))
    rows = [f"friction,F{i},{lo / 100},{hi / 100},{i + 1}"
            for i, (lo, hi) in enumerate(zip(friction[::2], friction[1::2]))]
    for dim in ("visibility", "sampling_visibility"):
        rows += [f"{dim},V{i},{lo},{hi},{i + 1}"
                 for i, (lo, hi) in enumerate(zip(visibility, visibility[1:]))]
    return "dimension,label,lower,upper,crash_rate\n" + "\n".join(rows) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rates=_config_rows(), grade=st.floats(-0.2, 0.2), seed=st.integers(0, 2**32 - 1))
def test_simulate_exits_64_exactly_when_a_draw_leaves_the_domain(tmp_path, rates, grade, seed):
    config, out = tmp_path / "rates.csv", tmp_path / "out"
    config.write_text(rates)
    shutil.rmtree(out, ignore_errors=True)
    sampler = SamplerConfig(seed=seed, samples_per_scenario=40)
    invalid = any(not valid_readings(mu, sight, grade, 75.0).all()
                  for _, mu, sight in scenario_samples(sampler, load_catalog(config)))
    rc = main(["simulate", "--seed", str(seed), "--samples", "40", "--grade", repr(grade),
               "--config", str(config), "--out", str(out)])
    # Had the check pass been skipped, an invalid draw would reach the writer:
    # exit 0, or a failure after the directory was made.
    assert (rc, out.exists()) == ((64, False) if invalid else (0, True))


# Texts float() reads or rejects: reprs, blanks, padding, underscores,
# non-ASCII digits and spelled-out nan and infinities.
COLUMN_TEXTS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " 0.3", "0.3 ", "\t1e3\n", "1_0", "\u0663.\u0665", "\uff11\uff12", "nan",
                     "-NaN", "inf", "-Infinity", "1e400"]),
)
# Texts float() rejects.
BAD_TEXTS = st.sampled_from(["abc", " ", "1e", "--", "0x1p-2", "0_.5", "1__0", "n/a", "\u0663x"])


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.one_of(COLUMN_TEXTS.map(lambda text: [text]),
                               st.lists(BAD_TEXTS, min_size=1, max_size=4))),
       first=st.lists(BAD_TEXTS, max_size=1), last=st.lists(BAD_TEXTS, max_size=1),
       default=st.one_of(st.floats(), st.just("")))
def test_number_reads_each_text_as_float_does(runs, first, last, default):
    texts = first + [text for run in runs for text in run] + last

    def expected(text):
        try:
            return float(text or default)
        except ValueError:
            return math.nan

    values = [_number(text, default) for text in texts]
    assert [repr(v) for v in values] == [repr(expected(text)) for text in texts]


# Log cells that float() reads in ways a hand-written parser might not:
# blanks, underscores, spelled-out infinities, overflow, hex, subnormals.
LOG_CELLS = st.one_of(
    st.sampled_from(["", " 0.3", "0.3 ", "1_0", "0_.5", "nan", "-inf", "Infinity", "1e400",
                     "-1e400", "0x1p-2", "5e-324", "-0.0", "0", "1", "1.0000001", "abc", "1e308",
                     "-1e-300", "-0.5", "1.5"]),
    st.floats().map(repr),
)


def _scalar_accepts(mu, sight, grade, design, design_flag):
    try:
        EnvironmentReading(float(mu), float(sight), float(grade or 0.0),
                           float(design or design_flag))
    except ValueError:
        return False
    return True


# A numpy warning would reach stderr as an extra line: make it an error.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cells=st.lists(st.tuples(LOG_CELLS, LOG_CELLS, LOG_CELLS, LOG_CELLS), min_size=1,
                      max_size=8))
def test_replay_scores_exactly_the_rows_the_reading_accepts(tmp_path, capsys, cells):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["timestamp", "mu", "sight_ft", "grade", "design_speed"])
    writer.writerows([f"t{i}", *row] for i, row in enumerate(cells))
    src = tmp_path / "fuzz.csv"
    src.write_text(buf.getvalue())
    accepted = [f"t{i}" for i, row in enumerate(cells) if _scalar_accepts(*row, 75.0)]
    rc = main(["replay", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == (0 if accepted else 65)
    scored = [row[0] for row in csv.reader(io.StringIO(captured.out))][1:]
    assert scored == accepted
    assert captured.err.count("warning: line") == len(cells) - len(accepted)


# Flag and config cell values at and past the edges of the domain: nan,
# infinities, subnormals, the float limit and text float() rejects.
EDGE_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308",
                     "-1e308", "1e400", "abc", "", "0", "-0.0", "1_0", " 0.5", "0x1p-2", "1,5"]),
    st.floats().map(repr),
)


def _check_exit(rc, captured):
    """The CLI contract: a documented exit code; a failure prints exactly one
    error line and nothing on stdout; a success prints strict JSON."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    assert rc in (0, 2, 64, 65, 66)
    if rc:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
    else:
        json.loads(captured.out, parse_constant=reject)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.dictionaries(st.sampled_from(["mu", "sight-ft", "grade", "design-speed"]),
                             EDGE_VALUES), joined=st.booleans())
def test_assess_flags_exit_with_a_documented_code(capsys, flags, joined):
    argv = ["assess", "--mu", "0.5", "--sight-ft", "500"]
    for name, value in flags.items():
        argv += [f"--{name}={value}"] if joined else [f"--{name}", value]
    _check_exit(main(argv), capsys.readouterr())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_line_edits_exit_with_a_documented_code(tmp_path, capsys, default_rates_csv, data):
    lines = default_rates_csv.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["delete", "repeat", "cell", "append_cell", "drop_cell"]))
    cells = lines[i].split(",")
    if edit == "delete":
        lines[i:i + 1] = []
    elif edit == "repeat":
        lines[i:i] = [lines[i]]
    elif edit == "cell":
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(EDGE_VALUES)
        lines[i] = ",".join(cells)
    else:
        lines[i] = ",".join(cells + [data.draw(EDGE_VALUES)] if edit == "append_cell" else cells[:-1])
    path = tmp_path / "rates.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["assess", "--mu", "0.5", "--sight-ft", "500", "--config", str(path)])
    _check_exit(rc, capsys.readouterr())
