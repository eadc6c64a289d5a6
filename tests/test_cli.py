import csv
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hazardrisk.batch
import hazardrisk.cli
import hazardrisk.sampler
from conftest import (FAILING_FORK, assert_no_child_left, at_second_block, failing_call,
                      full_disk, kill, redirected_run, run_forked, tree)
from hazardrisk import (EnvironmentReading, SamplerConfig, assess, assess_columns,
                        default_catalog, generate_dataset, joint_probability, load_catalog,
                        normalize_marginals, scenario_samples, scenario_statistics)
from hazardrisk.batch import valid_readings
from hazardrisk.cli import _number, main

ONE_THREAD = hazardrisk.cli._one_thread
from hazardrisk.reporting import (HEATMAP_COLUMNS, JOINT_COLUMNS, SAMPLES_COLUMNS,
                                  scenario_stats_table, write_rows)

SRC = Path(hazardrisk.__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SIMULATE_FILES = ["samples.csv", "scenario_stats.csv", "heatmap.csv", "marginals.csv",
                  "joint.csv", "manifest.json"]


def earlier_run(out, linked=()):
    """A complete earlier simulate run in `out`, beside a file of the user's.
    Each file named in `linked` is a symlink, which simulate writes through,
    to its bytes beside `out`."""
    assert main(["simulate", "--seed", "3", "--samples", "3", "--out", str(out)]) == 0
    (out / "keep.txt").write_text("kept")
    for name in linked:
        (out / name).rename(out.parent / name)
        (out / name).symlink_to(out.parent / name)


def three_band_rates(default_rates_csv):
    """The default catalog without Icy friction and without the Clear band of
    either visibility set: 3 x 3 scenarios."""
    kept = [line for line in default_rates_csv.splitlines()
            if ",Icy," not in line and ",Clear," not in line]
    return "\n".join(kept) + "\n"


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
        # An Icy draw below 0.1 meets the -0.1 grade: the run removes what it made.
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
        path = tmp_path / "rates.csv"
        path.write_text(three_band_rates(default_rates_csv))
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

    def test_peak_memory_does_not_grow_with_the_sample_count(self, tmp_path, monkeypatch):
        # 40k samples in blocks of 256 peak at about 0.36 MB. Holding every
        # scenario's draws peaks at about 0.94 MB, and holding every
        # scenario's scores at about 0.66 MB.
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 256)
        assert main(["simulate", "--samples", "1", "--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(["simulate", "--samples", "2500", "--out", str(tmp_path / "big")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e5, f"peak {peak / 1e6:.2f} MB"

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

    # Each file goes to a temporary name; none is renamed into place before
    # all six are written and flushed, and the manifest is renamed last.
    def test_files_are_renamed_once_all_are_written_manifest_last(self, tmp_path, monkeypatch):
        out, renamed, replace = tmp_path / "s", [], os.replace

        def recording(src, dst):
            renamed.append((Path(dst).name, sorted(p.name for p in out.iterdir())))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        assert main(["simulate", "--samples", "2", "--out", str(out)]) == 0
        assert renamed[-1][0] == "manifest.json"
        assert sorted(name for name, _ in renamed) == sorted(SIMULATE_FILES)
        assert renamed[0][1] == sorted(f"{name}.{os.getpid()}.tmp" for name in SIMULATE_FILES)
        assert sorted(tree(out)) == sorted(SIMULATE_FILES)

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "s"
        earlier_run(out)
        (out / "samples.csv").chmod(0o600)
        assert main(["simulate", "--samples", "2", "--out", str(out)]) == 0
        assert stat.S_IMODE((out / "samples.csv").stat().st_mode) == 0o600
        assert len(read_csv(out / "samples.csv")) == 32

    def test_symlink_is_written_through(self, tmp_path):
        out, target = tmp_path / "s", tmp_path / "target.csv"
        out.mkdir()
        target.write_text("earlier result\n")
        (out / "samples.csv").symlink_to(target)
        assert main(["simulate", "--samples", "2", "--out", str(out)]) == 0
        assert (out / "samples.csv").is_symlink()
        assert len(read_csv(target)) == 32

    # A samples.csv linked to a file that does not exist: a run that succeeds
    # creates the target, and one that fails (an Icy draw below 0.1 meets
    # the -0.1 grade) leaves it absent.
    @pytest.mark.parametrize("grade, code", [("0", 0), ("-0.1", 64)])
    def test_dangling_symlinks_target_is_made_only_by_a_run_that_succeeds(
            self, tmp_path, capsys, grade, code):
        out, target = tmp_path / "s", tmp_path / "samples.target"
        out.mkdir()
        (out / "samples.csv").symlink_to("../samples.target")
        assert main(["simulate", "--samples", "5", "--grade", grade, "--out", str(out)]) == code
        assert (out / "samples.csv").is_symlink()
        if code:
            assert not target.exists()
            assert sorted(tree(tmp_path)) == ["s", "s/samples.csv"]
        else:
            assert len(read_csv(target)) == 80

    # The same failed run, with samples.csv retargeted at a file of the
    # user's while the run formats its first block.
    def test_dangling_symlink_retargeted_during_a_failed_run_keeps_both_files(
            self, tmp_path, capsys, monkeypatch):
        out, link = retargeted_run(tmp_path, monkeypatch, "s/samples.csv", call=1)
        assert main(["simulate", "--samples", "5", "--grade", "-0.1", "--out", str(out)]) == 64
        assert tree(tmp_path) == {"precious.txt": b"the user's\n", "s": None,
                                  "s/samples.csv": "../precious.txt"}

    # A SIGKILL, which no handler sees, in the second block of a run whose
    # samples.csv is a dangling symlink: the target is not made. The run's
    # temporary files may be left.
    def test_sigkill_leaves_a_dangling_symlinks_target_absent(self, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        (out / "samples.csv").symlink_to("../samples.target")
        result = run_forked(["simulate", "--samples", "5", "--out", str(out)],
                            stopped("SIGKILL", in_parent=True))
        assert result.code == -signal.SIGKILL
        assert (out / "samples.csv").is_symlink()
        assert not (tmp_path / "samples.target").exists()


def retargeted_run(tmp_path, monkeypatch, name, call):
    """tmp_path/`name` (under a directory made here) as a symlink to the
    absent tmp_path/missing.csv, beside tmp_path/precious.txt. Call number
    `call` of cli.assessed_text first points the symlink at precious.txt.
    Returns the symlink's directory and the symlink."""
    link = tmp_path / name
    link.parent.mkdir()
    link.symlink_to("../missing.csv")
    (tmp_path / "precious.txt").write_bytes(b"the user's\n")
    assessed_text, calls = hazardrisk.cli.assessed_text, []

    def retargeting(*args):
        calls.append(1)
        if len(calls) == call:
            link.unlink()
            link.symlink_to("../precious.txt")
        return assessed_text(*args)

    monkeypatch.setattr(hazardrisk.cli, "assessed_text", retargeting)
    return link.parent, link


def first_draw_error(config, grade):
    """simulate's stderr for its first draw, in scenario order, that makes
    mu + grade <= 0 with the built-in catalog."""
    mu = next(float(m) for _, mus, _ in scenario_samples(config, default_catalog())
              for m in mus.tolist() if m + grade <= 0)
    return f"error: mu + grade must be > 0, got {mu + grade}\n"


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


# Variables that set the thread count of a BLAS library numpy may load.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def forking_run(argv, blas=None):
    """hazardrisk argv in a fresh interpreter in development mode, where a
    DeprecationWarning is an error (Python 3.12+ warns on a fork while threads
    run, BLAS's among them). The child gets no BLAS thread variable but
    OPENBLAS_NUM_THREADS=`blas`, if given: main() pins BLAS in this process,
    which the child must not inherit. Two CPUs and no quota are reported, so
    that the run forks on any machine; stdout is the number of forks. A child
    process left after the run exits 1."""
    script = ("import os, sys\n"
              "import hazardrisk.cli\n"
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
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    if blas:
        env["OPENBLAS_NUM_THREADS"] = blas
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::DeprecationWarning", "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120)


def file_size_limit(block_rows):
    """A run_forked setup: blocks of `block_rows` rows, and a full disk past 1 MB."""
    def setup():
        hazardrisk.cli.BLOCK_ROWS = block_rows
        full_disk(1 << 20)

    return setup


def stopped(stop, in_parent):
    """A run_forked setup: as the parent, or the worker, formats its second
    block, it sends itself the signal named `stop` (SIGINT as a Ctrl-C would,
    SIGTERM as kill would), or runs out of memory (stop "MemoryError")."""
    def action():
        if stop == "MemoryError":
            raise MemoryError
        os.kill(os.getpid(), getattr(signal, stop))

    return at_second_block(action, in_worker=not in_parent)


# One friction band and one visibility band: a single scenario.
ONE_SCENARIO_RATES = ("dimension,label,lower,upper,crash_rate\n"
                      "friction,Dry,0.7,0.9,1.9\n"
                      "visibility,Clear,1640.0,6562.0,0.685\n"
                      "sampling_visibility,Clear,4000.0,6500.0,0.685\n")

# Each signal that stops a run: its exit code and its one line on stderr.
STOPPED = {"SIGINT": (130, "error: interrupted\n"), "SIGTERM": (143, "error: terminated\n")}
# The signal and whether the parent or the worker receives it; the SIGINT
# cases keep their earlier names.
STOP_CASES = [("SIGINT", True), ("SIGINT", False), ("SIGTERM", True), ("SIGTERM", False)]
STOP_IDS = ["parent", "worker", "sigterm-parent", "sigterm-worker"]
STOPS = pytest.mark.parametrize("stop, in_parent", STOP_CASES, ids=STOP_IDS)


def no_space():
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestSimulateWorkers:
    # 7 samples a scenario in blocks of 3: each scenario's 3 blocks straddle
    # the turns of the parent and its worker.
    FLAGS = ["simulate", "--seed", "5", "--samples", "7"]

    # A label the csv module quotes: a comma, double quotes and a newline.
    @pytest.mark.parametrize("fog_label", [None, '"Dense, ""thick""\nFog"'])
    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path, cpus, default_rates_csv,
                                                     fog_label):
        flags = list(self.FLAGS)
        if fog_label:
            assert default_rates_csv.count(",Dense Fog,") == 2
            rates = default_rates_csv.replace(",Dense Fog,", f",{fog_label},")
            (tmp_path / "rates.csv").write_text(rates)
            flags += ["--config", str(tmp_path / "rates.csv")]
        outputs = []
        for n in (1, 2):
            forks = cpus(n)
            assert main(flags + ["--out", str(tmp_path / str(n))]) == 0
            assert len(forks) == n - 1
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / str(n)).iterdir()})
        assert len(outputs[0]) == 6
        assert outputs[1] == outputs[0]
        assert_no_child_left()

    # 9 scenarios of 7 samples in blocks of 3: the worker's blocks straddle
    # scenarios of a grid that is not the built-in 4 x 4.
    def test_three_band_grid_does_not_depend_on_the_cpu_count(self, tmp_path, cpus,
                                                              default_rates_csv):
        (tmp_path / "rates.csv").write_text(three_band_rates(default_rates_csv))
        outputs = []
        for n in (1, 2):
            forks = cpus(n)
            assert main(self.FLAGS + ["--config", str(tmp_path / "rates.csv"),
                                      "--out", str(tmp_path / str(n))]) == 0
            assert len(forks) == n - 1
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / str(n)).iterdir()})
        assert len(outputs[0]) == 6
        assert outputs[1] == outputs[0]
        assert len(read_csv(tmp_path / "2" / "scenario_stats.csv")) == 9
        assert len(read_csv(tmp_path / "2" / "samples.csv")) == 63
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

    # Blocks of 3: two samples a scenario make 16 blocks, none of them full.
    def test_samples_below_a_block_do_not_fork(self, tmp_path, cpus):
        forks = cpus(2)
        assert main(["simulate", "--samples", "2", "--out", str(tmp_path / "s")]) == 0
        assert forks == []
        assert len(read_csv(tmp_path / "s" / "samples.csv")) == 32

    # --out is made by the run, or holds a file already, or a complete earlier
    # run whose samples.csv is a symlink.
    @pytest.mark.parametrize("existing", [False, True, "linked"], ids=["made", "existing", "linked"])
    def test_failure_in_a_worker_exits_as_in_the_parent(self, tmp_path, capfd, monkeypatch, cpus,
                                                        existing):
        def no_memory():
            raise MemoryError

        out = tmp_path / "made" / "s"
        if existing:
            earlier_run(out, ["samples.csv"] if existing == "linked" else [])
        before = tree(tmp_path)
        monkeypatch.setattr(hazardrisk.batch, "assess_columns", in_a_worker(os.getpid(), no_memory))
        cpus(2)
        assert main(self.FLAGS + ["--out", str(out)]) == 64
        assert capfd.readouterr().err == "error: out of memory\n"
        assert tree(tmp_path) == before
        if existing:
            assert sorted(tree(out)) == sorted(SIMULATE_FILES + ["keep.txt"])
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

    # The stream draws the scenarios once, in this process: the worker goes
    # on with the stream it was forked in.
    def test_scenarios_are_drawn_once_in_all_by_the_parent(self, tmp_path, monkeypatch, cpus):
        calls = tmp_path / "calls"
        scenario_samples = hazardrisk.sampler.scenario_samples

        def counted(*args):
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return scenario_samples(*args)

        monkeypatch.setattr(hazardrisk.sampler, "scenario_samples", counted)
        forks = cpus(2)
        assert main(self.FLAGS + ["--out", str(tmp_path / "s")]) == 0
        assert len(forks) == 1
        assert calls.read_text() == f"{os.getpid()}\n"
        assert_no_child_left()

    # The first draw below 0.1 is in an Icy scenario, block 36 or later: a
    # forked run has forked and opened its files by then.
    @pytest.mark.parametrize("n", [1, 2], ids=["serial", "forked"])
    def test_draw_outside_the_domain_writes_nothing(self, tmp_path, capfd, cpus, n):
        forks = cpus(n)
        assert main(self.FLAGS + ["--grade", "-0.1", "--out", str(tmp_path / "s")]) == 64
        assert capfd.readouterr().err == first_draw_error(SamplerConfig(5, 7), -0.1)
        assert len(forks) == n - 1
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    # 3000 samples make two blocks a scenario: the run forks at block 1, and
    # its files are open when the first Icy draw below 0.1 fails it.
    def test_forked_draw_outside_the_domain_leaves_a_linked_earlier_run(self, tmp_path, cpus):
        out = tmp_path / "s"
        earlier_run(out, ["samples.csv"])
        before = tree(tmp_path)
        cpus(2)
        result = run_forked(["simulate", "--samples", "3000", "--grade", "-0.1", "--out", str(out)],
                            lambda: setattr(hazardrisk.cli, "BLOCK_ROWS", 2048))
        assert (result.code, result.forks) == (64, 1)
        assert result.err == first_draw_error(SamplerConfig(42, 3000), -0.1)
        assert tree(tmp_path) == before

    # An --out that cannot be made fails before the fork (7 samples, blocks
    # of 3). At 20000 samples a write past 1 MB fails after the fork, while
    # the worker has more left to send than its 1 MB pipe holds: it ends once
    # the parent closes the pipe, and is reaped.
    @pytest.mark.parametrize("samples", ["7", "20000"])
    def test_unwritable_output_exits_2(self, tmp_path, cpus, samples):
        cpus(2)
        block_rows, forks = 2048, 1
        if samples == "7":
            (tmp_path / "made").write_text("file, not a directory")
            block_rows, forks = 3, 0
        result = run_forked(["simulate", "--samples", samples,
                             "--out", str(tmp_path / "made" / "s")], file_size_limit(block_rows))
        assert (result.code, result.forks) == (2, forks)
        assert result.err.startswith("error: cannot write output: ")
        assert result.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == (["made"] if samples == "7" else [])

    @pytest.mark.parametrize("failing", FAILING_FORK)
    def test_failed_fork_runs_serial(self, tmp_path, monkeypatch, cpus, failing):
        forks, calls = cpus(2), []
        monkeypatch.setattr(os, failing, failing_call(failing, calls))
        assert main(self.FLAGS + ["--out", str(tmp_path / "forked")]) == 0
        assert (calls, forks) == ([failing], [])
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

    # With no BLAS variable set, and with one that asks for more threads.
    def test_fork_is_safe_in_a_fresh_interpreter(self, tmp_path):
        for blas in (None, "4"):
            out = tmp_path / str(blas)
            result = forking_run(["simulate", "--samples", "2048", "--out", str(out)], blas=blas)
            assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
            assert len(read_csv(out / "samples.csv")) == 16 * 2048

    # --out is made by the run, or holds a complete earlier run, which keeps
    # its bytes.
    @pytest.mark.parametrize("existing, stop, in_parent",
                             [(False, *case) for case in STOP_CASES]
                             + [(True, *case) for case in STOP_CASES],
                             ids=STOP_IDS + [f"existing-{name}" for name in STOP_IDS])
    def test_interrupt_exits_130_and_leaves_no_output(self, tmp_path, cpus, existing, stop,
                                                      in_parent):
        out = tmp_path / "made" / "s"
        if existing:
            earlier_run(out)
        before = tree(tmp_path)
        cpus(2)
        result = run_forked(self.FLAGS + ["--out", str(out)], stopped(stop, in_parent))
        code, error = STOPPED[stop]
        assert (result.code, result.forks, result.out, result.err) == (code, 1, "", error)
        assert tree(tmp_path) == before
        if not existing:
            assert list(tmp_path.iterdir()) == []

    # A Ctrl-C or a SIGTERM while heatmap.csv is written, or a write of
    # joint.csv that fails, each after a first part of that table is written.
    # No file is renamed into --out: a complete earlier run there keeps its
    # bytes, no temporary file is left, and a directory the run made is removed.
    # A linked earlier run's samples.csv and manifest.json are symlinks, which
    # are written through: their targets keep their bytes too.
    @pytest.mark.parametrize("existing", [False, True, "linked"], ids=["made", "existing", "linked"])
    @pytest.mark.parametrize("first, failure, code, error", [
        (HEATMAP_COLUMNS[0], kill(signal.SIGINT), *STOPPED["SIGINT"]),
        (HEATMAP_COLUMNS[0], kill(signal.SIGTERM), *STOPPED["SIGTERM"]),
        (JOINT_COLUMNS[0], no_space, 2,
         "error: cannot write output: [Errno 28] No space left on device\n"),
    ], ids=["interrupted", "terminated", "no_space"])
    def test_failure_after_the_samples_leaves_no_output(self, tmp_path, existing, first,
                                                         failure, code, error):
        out = tmp_path / "made" / "s"
        if existing:
            earlier_run(out, ["samples.csv", "manifest.json"] if existing == "linked" else [])
        before = tree(tmp_path)
        # The table is told by the first column of its header.
        def failing_table(write_rows=hazardrisk.cli.write_rows):
            def failing(stream, header, rows):
                if header[0] != first:
                    return write_rows(stream, header, rows)
                stream.write("part")
                failure()

            hazardrisk.cli.write_rows = failing

        result = run_forked(["simulate", "--samples", "5", "--out", str(out)], failing_table)
        assert (result.code, result.forks, result.out, result.err) == (code, 0, "", error)
        assert tree(tmp_path) == before
        if existing:
            assert sorted(tree(out)) == sorted(SIMULATE_FILES + ["keep.txt"])
        else:
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


# 20 rows of about 3 kB, each fourth from the second skipped: the log is
# read 8 kB at a time, and block k of 3 rows is read by os.pread call k + 2.
LONG_ROWS_LOG = "timestamp,mu,sight_ft\n" + "".join(
    f"{'t' * 3000}{i},{'abc' if i % 4 == 1 else '0.5'},600\n" for i in range(20))


def failing_pread(at, parent=None):
    """os.pread, except that its call number `at` fails with EIO, in any
    process or, given `parent`, in any other."""
    pread, calls = os.pread, []

    def failing(*args):
        calls.append(1)
        if len(calls) == at and os.getpid() != parent:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return pread(*args)

    return failing


class TestReplayWorkers:
    # The read that fails is the header's, one in block 0, or one in block
    # 5, which a forked run reads after its fork: in every process, or in a
    # forked run's worker only. The run exits 66 with the same warnings and
    # error line on 1 and 2 CPUs, and leaves --out as it was.
    @pytest.mark.parametrize("at, in_worker, warned", [
        (1, False, 0), (2, False, 0), (7, False, 4), (7, True, 4)],
        ids=["header", "block_0", "block_5", "worker-block_5"])
    def test_log_that_cannot_be_read_exits_66(self, tmp_path, capfd, monkeypatch, cpus,
                                              at, in_worker, warned):
        src = tmp_path / "log.csv"
        src.write_text(LONG_ROWS_LOG)
        out = tmp_path / "assessed.csv"
        out.write_bytes(b"earlier result\n")
        results = []
        for n in (1, 2):
            forks = cpus(n)
            parent = os.getpid() if in_worker and n == 2 else None
            monkeypatch.setattr(os, "pread", failing_pread(at, parent))
            results.append((main(["replay", "--input", str(src), "--out", str(out)]),
                            capfd.readouterr()))
            assert len(forks) == (n - 1 if at == 7 else 0)
            assert out.read_bytes() == b"earlier result\n"
            assert sorted(tmp_path.iterdir()) == [out, src]
            assert_no_child_left()
        assert results[1] == results[0]
        code, captured = results[0]
        assert (code, captured.out) == (66, "")
        assert captured.err.count("warning: line ") == warned
        assert captured.err.endswith(
            f"error: cannot read input {src}: [Errno 5] Input/output error\n")
        assert captured.err.count("\n") == warned + 1

    # A warning in block 3, after the fork, that stderr refuses (EBADF): the
    # run fails as for an output that cannot be written, on 1 and 2 CPUs.
    def test_warning_that_cannot_be_written_exits_2(self, tmp_path, capfd, monkeypatch, cpus):
        src = tmp_path / "log.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "".join(
            f"t{i},{'abc' if i == 10 else 0.5},600\n" for i in range(20)))
        out = tmp_path / "assessed.csv"
        out.write_bytes(b"earlier result\n")
        for n in (1, 2):
            forks = cpus(n)
            # A new stream each run: main points a stream that failed at /dev/null.
            with (open(os.open(os.devnull, os.O_RDONLY), "w", 1) as stderr,
                  monkeypatch.context() as patch):
                patch.setattr(sys, "stderr", stderr)
                assert main(["replay", "--input", str(src), "--out", str(out)]) == 2
            assert len(forks) == n - 1
            assert out.read_bytes() == b"earlier result\n"
            assert sorted(tmp_path.iterdir()) == [out, src]
            assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path, capfd, cpus, to_file):
        src = tmp_path / "log.csv"
        src.write_text(replay_log(47))
        outputs = []
        for n in (1, 2):
            forks = cpus(n)
            out = tmp_path / f"{n}.csv"
            assert main(["replay", "--input", str(src)] + (["--out", str(out)] if to_file else [])) == 0
            assert len(forks) == n - 1
            captured = capfd.readouterr()
            outputs.append((captured, out.read_bytes() if to_file else None))
        assert outputs[1] == outputs[0]
        captured, written = outputs[0]
        assert captured.err.count("warning: line") == 28
        assert captured.err.endswith("warning: line 51: skipped (could not convert string to "
                                     "float: 'abc')\n")
        rows = list(csv.reader(io.StringIO(written.decode() if to_file else captured.out)))
        assert len(rows) == 1 + 47 - 28 - 3  # and three blank lines
        assert [row[0] for row in rows[1:4]] == ["t0", "t\n11", 'a, "12"']
        assert_no_child_left()

    # CRLF, CR-only and LF line ends, a byte order mark; in every log a
    # quoted timestamp holds "\r\n", one line break. The log spans several of
    # the 8 kB chunks that the file decodes at once.
    @pytest.mark.parametrize("line_end, bom", [("\r\n", ""), ("\r", ""), ("\n", "\ufeff"),
                                               ("\r\n", "\ufeff")],
                             ids=["crlf", "cr", "bom", "bom_crlf"])
    def test_line_ends_and_byte_order_mark_read_as_lf(self, tmp_path, capfd, cpus, line_end, bom):
        lf = replay_log(1500).replace('"t\n', '"t\r\n')
        logs = {"lf": lf, "other": bom + re.sub(r"(?<!\r)\n", line_end, lf)}
        assert len(lf) > 3 * 8192 and logs["other"] != lf
        results = {}
        for name, text in logs.items():
            src = tmp_path / f"{name}.csv"
            src.write_bytes(text.encode())
            for n in (1, 2):
                forks = cpus(n)
                assert main(["replay", "--input", str(src)]) == 0
                assert len(forks) == n - 1
                results[name, n] = capfd.readouterr()
        assert len(set(results.values())) == 1
        captured = results["lf", 1]
        # Record 11 spans lines 13 and 14; record 16 starts on line 19.
        assert '\n"t\r\n11",' in captured.out
        assert "warning: line 19: skipped (could not convert string to float: 'abc')\n" in captured.err
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

    # A worker that ends, even with status 0, without its block.
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

    # The unreadable record is in block 1 (3, 4), which the parent reads
    # before it forks, in the parent's block 2 (6) or in the worker's block 3
    # (10); a byte that is not UTF-8 comes past the first 8 kB that the file
    # decodes at once.
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
            assert len(forks) == (n - 1 if at >= 6 else 0)
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

    # An --out in a directory that does not exist fails before the fork (20
    # rows, blocks of 3). At 12000 rows a write past 1 MB fails in block 1,
    # after the fork, while the worker has more left to send than its 1 MB
    # pipe holds: it ends once the parent closes the pipe, and is reaped.
    @pytest.mark.parametrize("rows", [20, 12000])
    def test_unwritable_output_exits_2(self, tmp_path, cpus, rows):
        src = tmp_path / "log.csv"
        src.write_text("timestamp,mu,sight_ft\n" + f"{'t' * 300},0.5,600\n" * rows)
        cpus(2)
        out, block_rows, forks = tmp_path / "out.csv", 2048, 1
        if rows == 20:
            out = tmp_path / "no" / "out.csv"
            block_rows, forks = 3, 0
        result = run_forked(["replay", "--input", str(src), "--out", str(out)],
                            file_size_limit(block_rows))
        assert (result.code, result.forks) == (2, forks)
        assert result.err.startswith("error: cannot write output: ")
        assert result.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("failing", FAILING_FORK)
    def test_failed_fork_runs_serial(self, tmp_path, capfd, monkeypatch, cpus, failing):
        forks, calls = cpus(2), []
        src = tmp_path / "log.csv"
        src.write_text(replay_log(30))
        monkeypatch.setattr(os, failing, failing_call(failing, calls))
        assert main(["replay", "--input", str(src)]) == 0
        forked = capfd.readouterr()
        assert (calls, forks) == ([failing], [])
        assert_no_child_left()
        cpus(1)
        assert main(["replay", "--input", str(src)]) == 0
        assert capfd.readouterr() == forked

    # The log is replaced by another file, or removed, as the worker forks,
    # past the first 8 kB that the parent has read: both processes read on
    # through the file they have open, to its end.
    @pytest.mark.parametrize("change", [
        lambda src, other: os.replace(other, src),
        lambda src, other: src.unlink(),
    ], ids=["replaced", "removed"])
    def test_log_changed_at_the_fork_is_read_to_the_end(self, tmp_path, capfd, monkeypatch,
                                                         cpus, change):
        src = tmp_path / "log.csv"
        src.write_text(replay_log(1500))
        assert src.stat().st_size > 3 * 8192
        other = tmp_path / "other.csv"
        other.write_text("timestamp,mu,sight_ft\n" + "t,0.8,5000\n" * 20)
        cpus(1)
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "serial.csv")]) == 0
        serial = capfd.readouterr()
        forks, counted = cpus(2), os.fork

        def fork():
            change(src, other)
            return counted()

        monkeypatch.setattr(os, "fork", fork)
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "forked.csv")]) == 0
        assert capfd.readouterr() == serial
        assert len(forks) == 1
        assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_no_child_left()

    # With no BLAS variable set, and with one that asks for more threads.
    def test_fork_is_safe_in_a_fresh_interpreter(self, tmp_path, capsys):
        src = tmp_path / "log.csv"
        src.write_text(replay_log(3000))
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "here.csv")]) == 0
        warnings = capsys.readouterr().err
        assert warnings.count("warning: line") == 1800
        for blas in (None, "4"):
            out = tmp_path / f"forked.{blas}.csv"
            result = forking_run(["replay", "--input", str(src), "--out", str(out)], blas=blas)
            assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", warnings)
            assert out.read_bytes() == (tmp_path / "here.csv").read_bytes()
        assert_no_child_left()

    # The parent is interrupted in its second block (2) with no --out file
    # yet, the worker in its own (3) with an earlier --out file.
    @STOPS
    def test_interrupt_exits_130_after_the_warnings_written(self, tmp_path, capsys, cpus, stop,
                                                            in_parent):
        src = tmp_path / "log.csv"
        src.write_text(replay_log(300))
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "whole.csv")]) == 0
        warnings = capsys.readouterr().err
        (tmp_path / "whole.csv").unlink()
        out = tmp_path / "assessed.csv"
        if not in_parent:
            out.write_bytes(b"earlier result\n")
        cpus(2)
        result = run_forked(["replay", "--input", str(src), "--out", str(out)],
                            stopped(stop, in_parent))
        code, error = STOPPED[stop]
        assert (result.code, result.forks) == (code, 1)
        assert result.err.endswith("\n" + error)
        written = result.err.removesuffix(error)
        assert written.startswith("warning: line ") and warnings.startswith(written)
        assert len(written) < len(warnings)
        if in_parent:
            assert sorted(tmp_path.iterdir()) == [src]
        else:
            assert sorted(tmp_path.iterdir()) == [out, src]
            assert out.read_bytes() == b"earlier result\n"

    # A symlinked --out is opened before block 1, and its target keeps its
    # bytes through a Ctrl-C or a SIGTERM in either process, or the worker's
    # exception.
    @pytest.mark.parametrize("stop, in_parent", STOP_CASES + [("MemoryError", False)],
                             ids=STOP_IDS + ["worker-memory"])
    def test_failure_leaves_a_symlinks_target(self, tmp_path, cpus, stop, in_parent):
        src = tmp_path / "log.csv"
        src.write_text(replay_log(300))
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier result\n")
        out = tmp_path / "assessed.csv"
        out.symlink_to(target)
        cpus(2)
        result = run_forked(["replay", "--input", str(src), "--out", str(out)],
                            stopped(stop, in_parent))
        code, error = STOPPED.get(stop, (64, "error: out of memory\n"))
        assert (result.code, result.forks) == (code, 1)
        assert result.err.startswith("warning: line ") and result.err.endswith("\n" + error)
        assert target.read_bytes() == b"earlier result\n" and out.is_symlink()
        assert sorted(tmp_path.iterdir()) == [out, src, target]


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
    # to the cyclic collector. The first quote of replay_log is in its
    # record 11, in block 0: csv records from the start. After 150 plain
    # rows, a third of them skipped, it is in block 10: plain line blocks,
    # then one with a blank line and a short row (9), then csv records.
    def test_scored_blocks_leave_no_reference_cycle(self, monkeypatch, catalog, joint_table):
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 16)
        header, body = replay_log(300).split("\n", 1)
        for plain_rows, warned in [(0, 180), (150, 180 + 50)]:
            fh = io.StringIO(header + "\n" + "".join(
                f"p{i},{i % 3 / 2},600,0,55\n" for i in range(plain_rows)) + body)
            reader = csv.reader(fh)
            frames = hazardrisk.cli._log_frames("log.csv", next(reader), 75.0, catalog,
                                                joint_table, fh, reader.line_num)
            gc.collect()
            gc.disable()
            try:
                warnings = "".join(frame()[0] for frame in frames)
                assert gc.collect() == 0
            finally:
                gc.enable()
            assert warnings.count("warning: line") == warned
            assert f"warning: line {plain_rows + 3}: skipped (could not convert" in warnings

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

    # A written-through --out is staged in $TMPDIR: a log failing after the
    # first block leaves the symlink's target as it was.
    def test_log_failing_after_the_first_block_leaves_a_symlinks_target(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 1)
        src = tmp_path / "readings.csv"
        src.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\n"' + "t" * 131073 + '",0.8,5000\n')
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier result\n")
        link = tmp_path / "assessed.csv"
        link.symlink_to(target)
        assert main(["replay", "--input", str(src), "--out", str(link)]) == 65
        assert target.read_bytes() == b"earlier result\n"
        assert link.is_symlink()
        assert sorted(tmp_path.iterdir()) == [link, src, target]

    # A log failing after the first block, with --out a symlink to a file
    # that does not exist: the run does not leave the target behind.
    def test_log_failing_after_the_first_block_leaves_no_dangling_symlinks_target(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 1)
        src = tmp_path / "readings.csv"
        src.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\n"' + "t" * 131073 + '",0.8,5000\n')
        link = tmp_path / "out.csv"
        link.symlink_to("out.target")
        assert main(["replay", "--input", str(src), "--out", str(link)]) == 65
        assert "is not readable CSV at line 3" in capsys.readouterr().err
        assert link.is_symlink()
        assert sorted(tmp_path.iterdir()) == [link, src]

    # The same with two valid blocks first: the symlink is retargeted at a
    # file of the user's as block 1 is formatted, after --out is opened.
    def test_dangling_symlink_retargeted_during_a_failed_run_keeps_both_files(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 1)
        _, link = retargeted_run(tmp_path, monkeypatch, "out/assessed.csv", call=2)
        src = tmp_path / "readings.csv"
        src.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\nt1,0.8,5000\n"'
                       + "t" * 131073 + '",0.8,5000\n')
        assert main(["replay", "--input", str(src), "--out", str(link)]) == 65
        assert "is not readable CSV at line 4" in capsys.readouterr().err
        assert {p: v for p, v in tree(tmp_path).items() if p != "readings.csv"} == {
            "precious.txt": b"the user's\n", "out": None, "out/assessed.csv": "../precious.txt"}

    # The reader of a FIFO that a failed run opened gets no bytes, then EOF.
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_fifo_of_a_failed_run_reads_empty(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 1)
        src = tmp_path / "readings.csv"
        src.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\n"' + "t" * 131073 + '",0.8,5000\n')
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(["replay", "--input", str(src), "--out", str(fifo)]) == 65
        reader.join(timeout=10)
        assert got == [""]

    # The unnamed staging file leaves nothing in $TMPDIR, after a run or a
    # failed one; a $TMPDIR that cannot be written exits 2 before any block
    # reaches the target.
    def test_staged_output_leaves_nothing_in_tmpdir(self, tmp_path, capsys, monkeypatch):
        staging = tmp_path / "tmpdir"
        staging.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(staging))
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        bad.write_text('timestamp,mu,sight_ft\nt0,0.8,5000\n"' + "t" * 131073 + '",0.8,5000\n')
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier result\n")
        link = tmp_path / "assessed.csv"
        link.symlink_to(target)
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 1)
        assert main(["replay", "--input", str(bad), "--out", str(link)]) == 65
        assert capsys.readouterr().err.startswith(f"error: {bad} is not readable CSV at line 3")
        assert list(staging.iterdir()) == []
        staging.rmdir()
        assert main(["replay", "--input", str(good), "--out", str(link)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert target.read_bytes() == b"earlier result\n"
        staging.mkdir()
        assert main(["replay", "--input", str(good), "--out", str(link)]) == 0
        assert [r["timestamp"] for r in read_csv(target)] == ["t0"]
        out = tmp_path / "s"
        out.mkdir()
        (out / "samples.csv").symlink_to(target)
        assert main(["simulate", "--samples", "2", "--out", str(out)]) == 0
        assert len(read_csv(target)) == 32
        assert list(staging.iterdir()) == []

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

    # Written through, --out is written only once the loop has ended: both
    # processes have read the log to its end, and the worker is reaped.
    @pytest.mark.parametrize("link", ["symlink", "hard_link"])
    def test_out_linked_to_the_log_replaces_it(self, tmp_path, capsys, cpus, link):
        forks = cpus(2)
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "".join(f"t{i},0.5,600\n" for i in range(20)))
        fresh = tmp_path / "fresh.csv"
        assert main(["replay", "--input", str(src), "--out", str(fresh)]) == 0
        out = tmp_path / "assessed.csv"
        if link == "symlink":
            out.symlink_to(src.name)
        else:
            os.link(src, out)
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        assert len(forks) == 2
        assert src.read_bytes() == fresh.read_bytes()
        assert out.is_symlink() if link == "symlink" else out.samefile(src)
        assert sorted(tmp_path.iterdir()) == [out, fresh, src]
        assert_no_child_left()

    def test_out_that_names_the_log_replaces_it(self, tmp_path, capsys, monkeypatch):
        # The log's only name is renamed onto once the whole log is read.
        monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 3)
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\n" + "".join(f"t{i},0.5,600\n" for i in range(20)))
        assert main(["replay", "--input", str(src), "--out", str(src)]) == 0
        assert [r["timestamp"] for r in read_csv(src)] == [f"t{i}" for i in range(20)]
        assert read_csv(src)[0]["friction_label"] == "Wet"
        assert list(tmp_path.iterdir()) == [src]

    # A taken temporary name of replay's --out, or of the manifest, the first
    # file simulate opens, over a complete earlier run.
    @pytest.mark.parametrize("command, planted", [
        ("replay", "symlink"), ("replay", "file"), ("simulate", "symlink"), ("simulate", "file")],
        ids=["symlink", "file", "simulate-symlink", "simulate-file"])
    def test_taken_temporary_name_exits_2(self, tmp_path, capsys, command, planted):
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"not this run's\n")
        if command == "replay":
            src = tmp_path / "readings.csv"
            src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
            out = tmp_path / "assessed.csv"
            out.write_bytes(b"earlier result\n")
            argv = ["replay", "--input", str(src), "--out", str(out)]
            taken = tmp_path / f"assessed.csv.{os.getpid()}.tmp"
        else:
            out = tmp_path / "s"
            earlier_run(out)
            argv = ["simulate", "--samples", "2", "--out", str(out)]
            taken = out / f"manifest.json.{os.getpid()}.tmp"
        if planted == "symlink":
            taken.symlink_to(victim)
        else:
            taken.write_bytes(b"someone else's\n")
        before = tree(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert victim.read_bytes() == b"not this run's\n"
        if planted == "symlink":
            assert taken.is_symlink() and taken.resolve() == victim.resolve()
        else:
            assert not taken.is_symlink() and taken.read_bytes() == b"someone else's\n"
        assert not out.is_symlink()
        assert tree(tmp_path) == before

    def test_out_file_keeps_its_mode(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        out = tmp_path / "assessed.csv"
        out.write_text("earlier result\n")
        out.chmod(0o600)
        assert main(["replay", "--input", str(src), "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert [r["timestamp"] for r in read_csv(out)] == ["t0"]

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

    # The error names the log once: not again as the open's file name.
    def test_log_that_cannot_be_opened_exits_66(self, tmp_path, capsys, monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        monkeypatch.setattr(hazardrisk.cli, "open", denied, raising=False)
        assert main(["replay", "--input", str(src)]) == 66
        assert capsys.readouterr() == (
            "", f"error: cannot read input {src}: [Errno 13] Permission denied\n")

    def test_missing_input_exits_66(self, tmp_path, capsys):
        assert main(["replay", "--input", str(tmp_path / "nope.csv")]) == 66
        assert capsys.readouterr().err == f"error: input file not found: {tmp_path / 'nope.csv'}\n"

    # The log is read at offsets of its own: a FIFO, which no writer opens
    # here, is refused before it is opened.
    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_input_that_is_not_a_regular_file_exits_66(self, tmp_path, capsys, kind):
        src = tmp_path / "log"
        if kind == "fifo":
            os.mkfifo(src)
        else:
            src.mkdir()
        assert main(["replay", "--input", str(src)]) == 66
        assert capsys.readouterr().err == f"error: input is not a regular file: {src}\n"

    # A header without a column that replay reads, and a log without a header.
    @pytest.mark.parametrize("log", ["timestamp,mu\nt0,0.8\n", ""], ids=["no_sight_ft", "empty"])
    def test_log_without_the_columns_it_reads_exits_65(self, tmp_path, capsys, log):
        src = tmp_path / "readings.csv"
        src.write_text(log)
        assert main(["replay", "--input", str(src)]) == 65
        assert capsys.readouterr() == (
            "", "error: input must have columns timestamp,mu,sight_ft[,grade][,design_speed]\n")

    # --input's stat fails as it would in a directory the user may not
    # search; root may search any.
    def test_input_that_cannot_be_looked_up_exits_66(self, tmp_path, capsys, monkeypatch):
        def denied(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
        monkeypatch.setattr(Path, "is_file", denied)
        assert main(["replay", "--input", str(src)]) == 66
        assert capsys.readouterr() == (
            "", f"error: cannot read input {src}: [Errno 13] Permission denied\n")

    # --out is opened before any row is scored: one that cannot be made
    # fails the run, even where no row would be valid, and nothing is left.
    def test_unwritable_out_fails_before_the_rows_are_scored(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text("timestamp,mu,sight_ft\nt0,0,100\n")
        assert main(["replay", "--input", str(src), "--out", str(tmp_path / "no" / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [src]

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


# stdout on a full device, unbuffered or buffered as Python's default: a
# write fails, or the flush that main makes once the command returns.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["assess", "--mu", "0.5", "--sight-ft", "100"], ["matrix"], ["matrix", "--format", "csv"],
    ["matrix", "--format", "json"], ["replay", "--input", "{log}"]],
    ids=["assess", "matrix", "matrix_csv", "matrix_json", "replay"])
def test_full_stdout_exits_2(tmp_path, argv, buffered):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "hazardrisk.cli", *(arg.format(log=log) for arg in argv)],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (
        2, "error: cannot write output: [Errno 28] No space left on device\n")


# A log whose second row cannot be parsed: replay warns of it.
WARNED_LOG = "timestamp,mu,sight_ft\nt0,0.8,5000\nt1,abc,100\nt2,0.5,100\n"


# stdout closed at start: each command that writes it fails as for any
# output that cannot be written.
@pytest.mark.parametrize("argv", [
    ["assess", "--mu", "0.5", "--sight-ft", "100"],
    ["assess", "--mu", "0.5", "--sight-ft", "100", "--format", "csv"], ["matrix"],
    ["matrix", "--format", "csv"], ["matrix", "--format", "json"], ["replay", "--input", "log.csv"]],
    ids=["assess", "assess_csv", "matrix", "matrix_csv", "matrix_json", "replay"])
def test_closed_stdout_exits_2(tmp_path, argv):
    (tmp_path / "log.csv").write_text("timestamp,mu,sight_ft\nt0,0.8,5000\n")
    result = redirected_run(argv, "1>&-", tmp_path)
    assert (result.returncode, result.stderr) == (
        2, "error: cannot write output: [Errno 9] Bad file descriptor\n")


@pytest.mark.parametrize("argv", [["simulate", "--samples", "3", "--out", "out"],
                                  ["replay", "--input", "log.csv", "--out", "out"]],
                         ids=["simulate", "replay"])
def test_closed_stdout_changes_no_run_into_out(tmp_path, argv):
    results = []
    for name, redirect in (("open", ""), ("closed", "1>&-")):
        run = tmp_path / name
        run.mkdir()
        (run / "log.csv").write_text(WARNED_LOG)
        result = redirected_run(argv, redirect, run)
        out = run / "out"
        results.append((result.returncode, result.stderr,
                        tree(out) if out.is_dir() else out.read_bytes()))
    assert results[1] == results[0]
    assert results[0][0] == 0


# stderr closed at start, or refusing writes: an error line that cannot be
# written leaves the failure's own exit code, and a warning that cannot be
# written fails replay as an output does, with --out left as it was.
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read_only"])
@pytest.mark.parametrize("argv, code", [
    (["assess", "--mu", "5", "--sight-ft", "100"], 64),
    (["replay", "--input", "log.csv"], 2),
    (["replay", "--input", "log.csv", "--out", "out.csv"], 2)],
    ids=["assess", "replay", "replay_out"])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, redirect, argv, code):
    (tmp_path / "log.csv").write_text(WARNED_LOG)
    (tmp_path / "out.csv").write_bytes(b"earlier result\n")
    result = redirected_run(argv, redirect, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", "")
    assert (tmp_path / "out.csv").read_bytes() == b"earlier result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "out.csv"]


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

    def test_sigterm_handler_is_set_only_while_a_command_runs(self, monkeypatch):
        before, handlers = signal.getsignal(signal.SIGTERM), []

        def command(args):
            handlers.append(signal.getsignal(signal.SIGTERM))
            return 0

        monkeypatch.setattr(hazardrisk.cli, "cmd_matrix", command)
        assert main(["matrix"]) == 0
        assert handlers[0] not in (before, signal.SIG_DFL, signal.SIG_IGN)
        assert signal.getsignal(signal.SIGTERM) is before

    # Only the main thread may set a signal handler.
    def test_command_runs_outside_the_main_thread(self, capsys):
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(["matrix", "--format", "csv"])))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and codes == [0]
        assert capsys.readouterr().out.startswith("severity_score,")


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

    @pytest.mark.parametrize("dimension", ["friction", "visibility", "sampling_visibility"])
    def test_config_without_a_dimensions_bands_exits_64_naming_it(self, tmp_path, capsys,
                                                                  default_rates_csv, dimension):
        path = tmp_path / "rates.csv"
        path.write_text("".join(line for line in default_rates_csv.splitlines(keepends=True)
                                if not line.startswith(f"{dimension},")))
        assert main(["assess", "--mu", "0.5", "--sight-ft", "100", "--config", str(path)]) == 64
        assert capsys.readouterr() == (
            "", f"error: crash-rate config {path}: no {dimension} bands defined\n")

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
    expected = io.StringIO()
    write_rows(expected, *scenario_stats_table(scenario_statistics(samples, columns["risk_score"])))
    assert (tmp_path / "scenario_stats.csv").read_bytes() == expected.getvalue().encode()


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
    # An invalid draw that no block checked would reach the writer: exit 0,
    # or a failure that left the directory the run made.
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


# The csv module's field limit while a log below is replayed, and fields
# near it. A block of lines with no quote is split at its commas where the
# csv module would read it the same way (LF ends, no NUL, no line past the
# limit, the header's width), and read by the csv module otherwise.
FIELD_LIMIT = 40
QUOTE_FREE_FIELDS = st.sampled_from([
    "", "0.5", "0.25", " 0.8", "600", "5000", "0.02", "55", "0", "-1", "abc", "nan", "1e3",
    "0.\x005", "t\x00", "\x0c é", "\ufeff1", "t'1",
    *("1".zfill(n) for n in range(FIELD_LIMIT - 1, FIELD_LIMIT + 2))])  # 1, zero-padded
# Three lines in four are LF-ended rows as wide as the header; the others
# are a blank line, a row of any width or either, ended by LF, CRLF or CR.
# A row of one empty field would be written as a blank line.
PLAIN_LINE = st.tuples(st.lists(QUOTE_FREE_FIELDS, min_size=5, max_size=5), st.just("\n"))
QUOTE_FREE_LINES = st.one_of(PLAIN_LINE, PLAIN_LINE, PLAIN_LINE, st.tuples(
    st.one_of(st.just([]), st.lists(QUOTE_FREE_FIELDS, min_size=1, max_size=7).filter(
        lambda row: row != [""])),
    st.sampled_from(["\n", "\r\n", "\r"])))


@pytest.fixture
def field_limit():
    previous = csv.field_size_limit(FIELD_LIMIT)
    yield
    csv.field_size_limit(previous)


# The log with no quote against the same rows with every field quoted,
# which the csv module reads from the first block on; in blocks of 3 lines.
# The examples are blocks that only one check keeps from being split at
# commas: CR line ends before a blank cell, which float() would read as
# "\r", and a field past the limit; and a last block of plain lines, with
# and without its final line end.
ROW = ["t", "0.5", "600", "0", ""]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(QUOTE_FREE_LINES, max_size=12),
       bom=st.booleans(), final_newline=st.booleans())
@example(rows=[(ROW, "\r\n")] * 3, bom=False, final_newline=True)
@example(rows=[(ROW, "\r")] * 3, bom=False, final_newline=True)
@example(rows=[(ROW, "\n"), (["1".zfill(FIELD_LIMIT + 1), *ROW[1:]], "\n")], bom=False,
         final_newline=True)
@example(rows=[(ROW, "\n")] * 4, bom=True, final_newline=False)
@example(rows=[(ROW, "\n")] * 4, bom=False, final_newline=True)
def test_quote_free_log_replays_as_its_quoted_twin(tmp_path, capfd, cpus, field_limit, rows, bom,
                                                    final_newline):
    src = tmp_path / "log.csv"
    results = set()
    for quote in ("", '"'):
        lines = [",".join(f"{quote}{field}{quote}" for field in row) + end for row, end in rows]
        text = "\ufeff" * bom + "timestamp,mu,sight_ft,grade,design_speed\n" + "".join(lines)
        if rows and not final_newline:
            text = text.removesuffix(rows[-1][1])
        src.write_text(text, encoding="utf-8")
        for n in (1, 2):
            cpus(n)
            rc = main(["replay", "--input", str(src)])
            results.add((rc, *capfd.readouterr()))
    assert len(results) == 1, results
    assert_no_child_left()


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
