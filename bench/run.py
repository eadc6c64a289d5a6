"""hazardrisk benchmark: end-to-end and per-layer timings, with every output checked.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are simulate_160k, replay_160k and assess_single (see README.md in
this directory). Each repetition runs the workload in a fresh single-threaded
process and is timed from its start to its exit. Repetitions continue until
the next one would overrun --seconds (at least two). Throughput and latency
are taken over the whole run, not per repetition (see README.md for why).
With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 repetitions alternate untraced and
traced, and it holds the per-layer metrics. Everything the benchmark writes
goes under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBES_PER_REP = 2
MIN_REPS = 2
# Latency percentiles are taken within blocks of readings timed together and
# averaged over the run's blocks: a batch command is one block, assess_single
# has a block per BLOCK_CALLS consecutive calls (100 samples above its p99).
BLOCK_CALLS = 10_000
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Set-up as a user pays it: a fresh interpreter's import through catalog
# resolution and joint-table build, ending before the first reading is scored.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
__import__(sys.argv[1])
import hazardrisk as h
catalog = h.default_catalog()
joint = h.joint_probability(h.normalize_marginals(list(catalog.friction_bands)),
                            h.normalize_marginals(list(catalog.visibility_bands)))
print(time.perf_counter() - t0)
"""

PER_LAYER = {
    "sampler.generate.self_s": "s",
    "sampler.samples": "count",
    "sampler.truncated_normal.calls": "count",
    "sampler.stats.self_s": "s",
    "risk.assess.calls": "count",
    "risk.assess.self_s": "s",
    "risk.compose.self_s": "s",
    "bands.classify.calls": "count",
    "bands.classify.self_s": "s",
    "bands.reading.calls": "count",
    "bands.reading.self_s": "s",
    "probability.lookup.calls": "count",
    "probability.lookup.self_s": "s",
    "probability.build.self_s": "s",
    "severity.speed_profile.calls": "count",
    "severity.speed_profile.self_s": "s",
    "severity.score.self_s": "s",
    "reporting.write.self_s": "s",
    "reporting.rows": "count",
    "reporting.bytes": "bytes",
    "cli.self_s": "s",
    "cli.rows_read": "count",
    "cli.rows_skipped": "count",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.spans_self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_readings_per_s": "1/s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               VECLIB_MAXIMUM_THREADS="1")
    return env


def spawn(args: list[str], log_dir: Path, timeout: float) -> tuple[int, float, float]:
    """Run python3 with args; (exit code, wall seconds, peak RSS in MB)."""
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def data_lines(path: Path, header: str) -> list[str] | None:
    """Data lines of a CSV the program wrote, or None if absent or the
    header is wrong."""
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != header or lines[-1] != "":
        return None
    return lines[1:-1]


class Simulate:
    """simulate --samples N: 16 scenarios x N samples, written to a fresh
    directory per repetition."""

    setup_module = "hazardrisk.cli"
    files = ("heatmap.csv", "joint.csv", "manifest.json", "marginals.csv",
             "samples.csv", "scenario_stats.csv")

    def __init__(self, samples_per_scenario: int):
        self.n = samples_per_scenario
        self.readings = 16 * samples_per_scenario

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed

    def spec(self, rep: Path) -> dict:
        return {"mode": "cli", "argv": ["simulate", "--seed", str(self.seed), "--samples",
                                        str(self.n), "--out", str(rep / "out")]}

    def outputs(self, rep: Path) -> list[Path]:
        return [rep / "out" / name for name in self.files]

    def check(self, rep: Path) -> int:
        out = rep / "out"
        if not out.is_dir() or sorted(p.name for p in out.iterdir()) != list(self.files):
            return self.readings
        actual = data_lines(rep / "out" / "samples.csv", reference.SAMPLES_HEADER)
        if actual is None:
            return self.readings
        lines, stats = reference.simulate_expected(self.seed, self.n)
        failed = reference.count_failures(lines, actual, key_fields=(0, 3, 4))
        failed += reference.check_stats(stats, rep / "out" / "scenario_stats.csv", self.n)
        return min(failed, self.readings)


class Replay:
    """replay on a generated log; the log is written before timing starts."""

    setup_module = "hazardrisk.cli"

    def __init__(self, rows: int):
        self.readings = rows

    def prepare(self, work: Path, seed: int) -> None:
        self.log = inputs.replay_log(seed, self.readings)
        self.input = work / "log.csv"
        self.input.write_text(self.log.text, encoding="utf-8")

    def spec(self, rep: Path) -> dict:
        return {"mode": "cli", "argv": ["replay", "--input", str(self.input),
                                        "--out", str(rep / "assessed.csv")]}

    def outputs(self, rep: Path) -> list[Path]:
        return [rep / "assessed.csv"]

    def check(self, rep: Path) -> int:
        actual = data_lines(rep / "assessed.csv", reference.REPLAY_HEADER)
        if actual is None:
            return self.readings
        expected = reference.replay_expected(self.log)
        return min(reference.count_failures(expected, actual, key_fields=(0,)),
                   self.readings)


class AssessSingle:
    """One in-process caller, closed loop, one assess() call per reading."""

    setup_module = "hazardrisk"

    def __init__(self, calls: int):
        self.readings = calls

    def prepare(self, work: Path, seed: int) -> None:
        self.values = inputs.assess_readings(seed, self.readings)
        self.input = work / "readings.npy"
        np.save(self.input, self.values)

    def spec(self, rep: Path) -> dict:
        return {"mode": "assess", "readings": str(self.input)}

    def outputs(self, rep: Path) -> list[Path]:
        return [rep / "assess_results.npy"]

    def check(self, rep: Path) -> int:
        actual = np.load(rep / "assess_results.npy")
        return reference.check_assess(reference.assess_expected(self.values), actual)


def workloads(scale: float = 1.0) -> dict:
    """The benchmark's workloads; scale shrinks them for the benchmark's own tests."""
    return {
        "simulate_160k": Simulate(max(1, round(10_000 * scale))),
        "replay_160k": Replay(max(1, round(160_000 * scale))),
        "assess_single": AssessSingle(max(1, round(200_000 * scale))),
    }


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hazardrisk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def probe_setup(workload, probe_dir: Path, deadline: float) -> float:
    rc, _, _ = spawn(["-c", SETUP_PROBE, workload.setup_module], probe_dir,
                     deadline - time.perf_counter())
    if rc != 0:
        raise RuntimeError((probe_dir / "stderr").read_text())
    return float((probe_dir / "stdout").read_text())


def run_rep(workload, work: Path, index: int, traced: bool, deadline: float) -> dict:
    rep = work / f"rep{index}"
    rep.mkdir()
    spec = dict(workload.spec(rep), trace=traced, result=str(rep / "result.json"))
    (rep / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    rc, wall, rss = spawn([str(HERE / "worker.py"), str(rep / "spec.json")], rep,
                          deadline - time.perf_counter())
    result_path = rep / "result.json"
    result = json.loads(result_path.read_text()) if result_path.is_file() else {}
    ok = rc == 0 and result.get("rc") == 0
    if "command_s" in result:  # assess: the caller's own clock
        command_s = result["command_s"]
    else:
        command_s = wall - result.get("post_s", 0.0)
    latency_path = rep / "latency_ns.npy"
    if latency_path.is_file():  # assess: each call timed on its own
        latency_us = np.load(latency_path) / 1e3
        busy_s = latency_us.sum() / 1e6
        blocks = np.array_split(latency_us, max(1, len(latency_us) // BLOCK_CALLS))
    else:  # a batch reading's result exists when the command ends
        latency_us = np.array([command_s * 1e6])
        busy_s = command_s
        blocks = [latency_us]
    outputs = workload.outputs(rep)
    return {
        "dir": rep,
        "traced": traced,
        "ok": ok,
        "rc": rc,
        "command_s": command_s,
        "readings": workload.readings,
        "busy_s": busy_s,
        "readings_per_s": workload.readings / busy_s,
        "block_p50_us": [float(np.percentile(b, 50)) for b in blocks],
        "block_p99_us": [float(np.percentile(b, 99)) for b in blocks],
        "latency_samples": len(latency_us),
        "peak_rss_mb": rss,
        "layers": result.get("layers", {}),
        "digests": {p.name: sha256(p) for p in outputs if p.is_file()} if ok else {},
    }


def count_failures(workload, reps: list[dict]) -> int:
    """Failed readings over all repetitions. The first good repetition is
    checked row by row; any other must match its output digests."""
    good = [r for r in reps if r["ok"]]
    if not good:
        return workload.readings * len(reps)
    reference_rep = good[0]
    checked = workload.check(reference_rep["dir"])
    failed = 0
    for rep in reps:
        if rep["ok"] and rep["digests"] == reference_rep["digests"]:
            failed += checked
        else:
            failed += workload.readings
    return failed


def throughput(reps: list[dict]) -> float:
    """Readings per busy second over all the repetitions together."""
    return sum(r["readings"] for r in reps) / sum(r["busy_s"] for r in reps)


def block_mean(reps: list[dict], key: str) -> float:
    return statistics.fmean(x for r in reps for x in r[key])


def end_to_end(reps: list[dict], setup_times: list[float]) -> dict:
    blocks = sum(len(r["block_p50_us"]) for r in reps)
    print(f"latency_samples {sum(r['latency_samples'] for r in reps)} "
          f"latency_blocks {blocks} setup_samples {len(setup_times)}")
    return {
        "readings_per_s": (throughput(reps), "1/s"),
        "latency_p50_us": (block_mean(reps, "block_p50_us"), "us"),
        "latency_p99_us": (block_mean(reps, "block_p99_us"), "us"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    rows = []
    for rep in traced:
        layers = dict.fromkeys(PER_LAYER, 0)
        layers.update({k: v for k, v in rep["layers"].items() if k in PER_LAYER})
        layers["trace.wall_s"] = rep["command_s"]
        layers["trace.spans_self_s"] = sum(
            v for k, v in rep["layers"].items() if k.endswith(".self_s"))
        rows.append(layers)
    metrics = {name: (statistics.median(row[name] for row in rows), unit)
               for name, unit in PER_LAYER.items()}
    untraced_s = statistics.median(r["command_s"] for r in untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_s, "s")
    metrics["trace.overhead_readings_per_s"] = (
        throughput(untraced) - throughput(traced), "1/s")
    uncovered = metrics["trace.wall_s"][0] - metrics["trace.spans_self_s"][0]
    within = abs(uncovered) <= metrics["trace.overhead_s"][0]
    print(f"trace_uncovered_s {uncovered:.6f} within_overhead {str(within).lower()}")
    return metrics


def record(args, workload, start_load, digests) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "readings_per_rep": workload.readings,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg_start": start_load,
        "loadavg_end": list(os.getloadavg()),
        "output_sha256": digests,
    }


def run(args, workload) -> dict:
    """One benchmark run; returns the result object."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    start_load = list(os.getloadavg())
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe_dir = work / "setup"
    probe_dir.mkdir()
    probe_setup(workload, probe_dir, deadline)  # fills the bytecode cache
    workload.prepare(work, args.seed)

    # Set-up probes run between repetitions, so they sample the whole window.
    window_end = time.perf_counter() + args.seconds
    plan = (False, True) if args.trace else (False,)
    probes = 0 if args.trace else PROBES_PER_REP
    setup_times, reps = [], []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        setup_times += [probe_setup(workload, probe_dir, deadline) for _ in range(probes)]
        reps.append(run_rep(workload, work, len(reps), plan[len(reps) % len(plan)], deadline))
        longest = max(longest, time.perf_counter() - t0)
        if len(reps) >= MIN_REPS and time.perf_counter() + longest > window_end:
            break

    attempted = workload.readings * len(reps)
    failed = count_failures(workload, reps)
    for rep in reps:
        print(f"rep {rep['dir'].name} traced={int(rep['traced'])} rc={rep['rc']} "
              f"command_s={rep['command_s']:.6f} readings_per_s={rep['readings_per_s']:.3f} "
              f"latency_p50_us={statistics.fmean(rep['block_p50_us']):.3f} "
              f"latency_p99_us={statistics.fmean(rep['block_p99_us']):.3f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.3f} "
              + " ".join(f"{k}={v}" for k, v in sorted(rep["digests"].items())))
    good = [r for r in reps if r["ok"]] or reps
    metrics = per_layer(good) if args.trace else end_to_end(good, setup_times)
    print(f"error_rate {failed / attempted} failed {failed} attempted {attempted}")
    run_record = record(args, workload, start_load, good[0]["digests"])
    (work / "record.json").write_text(json.dumps(run_record, indent=2), encoding="utf-8")
    print("record " + json.dumps(run_record))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hazardrisk" / "__init__.py").is_file():
        print(f"error: no hazardrisk sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args, workloads()[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
