"""Command-line interface: simulate, assess, replay, matrix.

Exit codes: 0 success, 2 unwritable output, sysexits' 64 usage / invalid
configuration, 65 no valid input data and 66 missing input, 130 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from contextlib import contextmanager, suppress
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from stat import S_IMODE, S_ISREG

from . import __version__
from .bands import (BandCatalog, EnvironmentReading, default_catalog, load_catalog,
                    numbered_records, repeated_column, scenario_grid)
from .probability import joint_probability, normalize_marginals
from .reporting import (ASSESSMENT_COLUMNS, HEATMAP_COLUMNS, REPLAY_COLUMNS, SAMPLES_COLUMNS,
                        assessed_text, assessment_record, heatmap_rows, write_heatmap,
                        write_joint, write_manifest, write_marginals, write_rows,
                        write_scenario_stats)
from .risk import assess, risk_matrix

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_NODATA = 65
EXIT_NOINPUT = 66
EXIT_INTERRUPTED = 130

CONFIG_ENV_VAR = "HAZARD_RISK_CONFIG"

# Readings scored and written per block: memory does not grow with the input.
BLOCK_ROWS = 1 << 11

# The most processes that format one simulate run. Each draws every scenario
# in full, so memory grows with their number; throughput and memory were
# measured on 2 CPUs only.
PROCESSES = 2


def _resolve_catalog(config_path: str | None) -> tuple[BandCatalog, str]:
    """Catalog from --config, else $HAZARD_RISK_CONFIG, else built-in defaults."""
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_catalog(path), str(path)
    return default_catalog(), "builtin"


def _build_joint(catalog: BandCatalog):
    p_f = normalize_marginals(list(catalog.friction_bands))
    p_v = normalize_marginals(list(catalog.visibility_bands))
    return p_f, p_v, joint_probability(p_f, p_v)


def _sample_blocks(args: argparse.Namespace, catalog: BandCatalog, joint):
    """A function for each BLOCK_ROWS block of the samples table, in order,
    that formats it: its frame is (CSV text, risk scores). Each scenario is
    drawn again from its own stream, in every process that reads this."""
    import numpy as np

    from .batch import assess_columns
    from .sampler import SamplerConfig, scenario_samples

    def frame(scenario_id, mu, sight):
        columns = assess_columns(mu, sight, args.grade, args.design_speed, catalog, joint)
        return assessed_text(np.full(len(mu), scenario_id), columns), columns["risk_score"]

    config = SamplerConfig(args.seed, args.samples, args.sigma_rule)
    for scenario, mu, sight in scenario_samples(config, catalog):
        for start in range(0, len(mu), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            yield partial(frame, scenario.scenario_id, mu[block], sight[block])


def _one_thread() -> bool:
    """True if this process runs one thread, so that a fork copies no lock
    another thread holds; False where that cannot be read."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _cgroup_cpus(cgroups: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> int | None:
    """The CPUs that the cgroup v2 quota (`cpu.max`) of this process's own
    cgroup allows, at least 1; None where it sets none or cannot be read."""
    try:
        with open(cgroups, encoding="utf-8") as fh:
            path = next(line[3:].rstrip("\n") for line in fh if line.startswith("0::"))
        with open(f"{root}{path}/cpu.max", encoding="utf-8") as fh:
            quota, period = fh.read().split()
        return max(1, int(quota) // int(period))
    except (OSError, StopIteration, ValueError):  # "max" is no number: no quota
        return None


def _processes(fills: bool) -> int:
    """How many processes format a run: this one and a worker per further
    CPU, up to PROCESSES in all. A run whose input does not fill more than
    one block (`fills` False) stays serial: it costs less than a fork. So
    does a process with a second thread (one that loaded numpy, say), which
    a fork could leave holding a lock. The CPUs are those of the affinity
    mask, no more than the cgroup's quota allows."""
    if not fills or not hasattr(os, "sched_getaffinity") or not _one_thread():
        return 1
    return min(PROCESSES, len(os.sched_getaffinity(0)), _cgroup_cpus() or PROCESSES)


class WorkerError(Exception):
    """A worker ended without its block. Not an OSError: that is the output's."""


@contextmanager
def _blocks(frames, fills: bool):
    """Every block's frame in order. frames(parent), parent False in a worker,
    gives a function per block that makes its frame. Workers 1 to size - 1
    (`_processes(fills)`) fork on entry: worker `rank` pickles the frame of
    each block k % size == rank, or the exception that stopped it, into its
    pipe, for the parent to raise in its turn. On exit the pipes are closed and
    every worker reaped. After a failed fork, the run is serial."""
    import fcntl
    import pickle

    workers = []

    def stop():
        while workers:
            pid, pipe = workers.pop()
            pipe.close()  # a worker still writing stops at its next block
            with suppress(ChildProcessError):  # reaped already by received()
                os.waitpid(pid, 0)

    def received(k):
        pid, pipe = workers[k % size - 1]
        try:
            frame = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise WorkerError(f"worker process {pid} {how} before block {k}") from None
        if isinstance(frame, BaseException):
            raise frame
        return frame

    size = _processes(fills)
    try:
        for rank in range(1, size):
            read_fd, write_fd = os.pipe()
            # A 1 MB pipe holds several blocks: a worker runs ahead of the parent.
            with suppress(AttributeError, OSError):
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the serial loop needs none
                os.close(read_fd)
                os.close(write_fd)
                stop()
                break
            if pid == 0:
                code = 1
                try:
                    # A read end held open here would keep a pipe from
                    # breaking when the parent closes its own.
                    os.close(read_fd)
                    for _, pipe in workers:
                        pipe.close()
                    with open(write_fd, "wb") as pipe:
                        try:
                            for block in islice(frames(False), rank, None, size):
                                pickle.dump(block(), pipe)
                                pipe.flush()
                            code = 0
                        except BaseException as exc:  # the parent raises it in order
                            pipe.write(pickle.dumps(exc))
                finally:
                    os._exit(code)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        size = len(workers) + 1  # 1 after a failed fork
        yield (block() if k % size == 0 else received(k) for k, block in enumerate(frames(True)))
    finally:
        stop()


def cmd_simulate(args: argparse.Namespace) -> int:
    catalog, table_source = _resolve_catalog(args.config)
    p_f, p_v, joint = _build_joint(catalog)
    per_scenario = -(-args.samples // BLOCK_ROWS)
    scenarios = scenario_grid(catalog)
    # Blocks go round-robin over the processes. Where a scenario fills no
    # block, or the run has one block, the run stays serial.
    fills = args.samples >= BLOCK_ROWS and len(scenarios) * per_scenario > 1
    with _blocks(lambda parent: _sample_blocks(args, catalog, joint), fills) as blocks:
        # numpy loads only in simulate and replay: assess and matrix start without it.
        import numpy as np

        from .batch import valid_readings
        from .sampler import SamplerConfig, by_mean_risk, scenario_samples, scenario_stats

        config = SamplerConfig(args.seed, args.samples, args.sigma_rule)
        # A first pass raises at the first draw outside the domain, with the
        # reading's message, before any file is written.
        for _, mu, sight in scenario_samples(config, catalog):
            for i in np.flatnonzero(~valid_readings(mu, sight, args.grade, args.design_speed)):
                EnvironmentReading(float(mu[i]), float(sight[i]), args.grade, args.design_speed)
        stats, scores = [], []

        out_dir = Path(args.out)
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(out_dir / "samples.csv", "w", newline="", encoding="utf-8") as out:
                try:
                    out.write(",".join(SAMPLES_COLUMNS) + "\n")
                    # Every block in order, each worker's as it sends them; a
                    # scenario's stats row is made once its last block is in.
                    for k, (text, block_scores) in enumerate(blocks):
                        out.write(text)
                        scores.append(block_scores)
                        if (k + 1) % per_scenario == 0:
                            stats.append(scenario_stats(scenarios[k // per_scenario],
                                                        np.concatenate(scores)))
                            scores = []
                except BaseException:
                    # A failure here (a worker's, say) leaves no half-written
                    # table, nor a directory made for it.
                    with suppress(OSError):
                        os.unlink(out.name)
                        for d in made:
                            d.rmdir()
                    raise
            outputs = {
                "samples.csv": len(stats) * config.samples_per_scenario,
                "scenario_stats.csv": write_scenario_stats(out_dir / "scenario_stats.csv",
                                                           by_mean_risk(stats)),
                "heatmap.csv": write_heatmap(out_dir / "heatmap.csv"),
                "marginals.csv": write_marginals(out_dir / "marginals.csv", catalog, p_f, p_v),
                "joint.csv": write_joint(out_dir / "joint.csv", joint),
            }
            write_manifest(
                out_dir / "manifest.json", "simulate", __version__,
                config={
                    "seed": config.seed,
                    "samples_per_scenario": config.samples_per_scenario,
                    "sigma_rule": config.sigma_rule,
                    "design_speed_mph": args.design_speed,
                    "grade": args.grade,
                    "table_source": table_source,
                },
                outputs={**outputs, "manifest.json": 1},
            )
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_assess(args: argparse.Namespace) -> int:
    catalog, _ = _resolve_catalog(args.config)
    reading = EnvironmentReading(args.mu, args.sight_ft, args.grade, args.design_speed)
    _, _, joint = _build_joint(catalog)
    record = assessment_record(assess(reading, catalog, joint))
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        write_rows(sys.stdout, ASSESSMENT_COLUMNS, [[record[n] for n in ASSESSMENT_COLUMNS]])
    return EXIT_OK


def _number(text: str, default) -> float:
    """float() of text, or of `default` if text is blank; NaN where float() raises."""
    try:
        return float(text or default)
    except ValueError:
        return math.nan  # outside the domain: the row is then parsed alone for its message


def _log_frames(header: list[str], design_speed: float, catalog, joint, records):
    """A function for each block of BLOCK_ROWS numbered log records, in
    order, that scores it: its frame is (warning lines, CSV text of its
    valid readings). Blank lines are skipped; a row not as wide as the
    header is skipped with a warning, as is each row the domain mask
    rejects, parsed alone for its message. Warnings are in line order."""
    import numpy as np

    from .batch import assess_columns, valid_readings

    # An empty grade or design_speed cell, or no such column, takes the default.
    defaults = {"mu": "", "sight_ft": "", "grade": 0.0, "design_speed": design_speed}

    def frame(block):
        kept = [(line, row) for line, row in block if len(row) == len(header)]
        warnings = [(line, "field count differs from header")
                    for line, row in block if row and len(row) != len(header)]
        fields = dict(zip(header, zip(*(row for _, row in kept))))
        texts = [(fields.get(name, (d,) * len(kept)), d) for name, d in defaults.items()]
        values = [np.array([_number(text, d) for text in column]) for column, d in texts]
        ok = valid_readings(*values)
        for i in np.flatnonzero(~ok).tolist():
            try:
                EnvironmentReading(*(float(column[i] or d) for column, d in texts))
            except ValueError as exc:
                warnings.append((kept[i][0], str(exc)))  # no traceback: it holds this frame
        text = ""
        if ok.any():
            text = assessed_text(np.array(fields["timestamp"], dtype=object)[ok],
                                 assess_columns(*(v[ok] for v in values), catalog, joint))
        return "".join(f"warning: line {line + 1}: skipped ({reason})\n"
                       for line, reason in sorted(warnings, key=itemgetter(0))), text

    for block in iter(lambda: list(islice(records, BLOCK_ROWS)), []):
        yield partial(frame, block)


def _own_records(path: Path, log: os.stat_result):
    """The numbered records after the header of the log at `path`, read
    through a file of this process's own, which must be the file whose fstat
    is `log`: a worker leaves the parent's file offset alone."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:  # not an output's failure, which replay maps OSError to
        raise ValueError(f"{path} cannot be opened again: {exc}") from None
    with fh:
        if not os.path.samestat(os.fstat(fh.fileno()), log):
            raise ValueError(f"{path} was replaced while it was read")
        reader = csv.reader(fh)
        next(reader)
        yield from numbered_records(reader)


def _raised(exc: BaseException):
    """An iterator that raises exc when it is first read."""
    raise exc
    yield


@contextmanager
def _replay_output(path: str | None, log: os.stat_result):
    """Replay's output stream: stdout; else a temporary file beside `path`,
    renamed onto it with the old file's mode only once the block completes and
    removed on any exception, so a file at `path` keeps its bytes. A path that
    a rename would change in more than its bytes (a device, FIFO or symlink, a
    file with other links or another owner, or one in a read-only directory)
    is written through instead, unless it is the input log (`log`, its
    fstat), which that would truncate as it is read."""
    if not path:
        yield sys.stdout
        return
    old = os.lstat(path) if os.path.lexists(path) else None
    whole = os.access(os.path.dirname(path) or ".", os.W_OK) and (
        old is None or (S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid())
    )
    if not whole and os.path.exists(path) and os.path.samestat(os.stat(path), log):
        raise ValueError(f"--out {path} is the input log: it cannot be written while it is read")
    target = f"{path}.{os.getpid()}.tmp" if whole else path
    # A temporary name that is already taken, even by a symlink, is an error:
    # only a file this run created is written, renamed or removed.
    fd = os.open(target, os.O_WRONLY | os.O_CREAT | (os.O_EXCL if whole else os.O_TRUNC), 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as out:
            yield out
        if whole:
            if old:
                os.chmod(target, S_IMODE(old.st_mode))
            os.replace(target, path)
    except BaseException:
        if whole:
            Path(target).unlink(missing_ok=True)
        raise


def cmd_replay(args: argparse.Namespace) -> int:
    catalog, _ = _resolve_catalog(args.config)
    # Every row without its own design_speed uses the flag: check it once, on
    # an otherwise valid reading, instead of skipping each such row.
    EnvironmentReading(mu=1.0, sight_distance=0.0, design_speed=args.design_speed)
    input_path = Path(args.input)
    if not input_path.is_file():
        print(f"error: input file not found: {input_path}", file=sys.stderr)
        return EXIT_NOINPUT
    _, _, joint = _build_joint(catalog)

    try:
        with open(input_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or not {"timestamp", "mu", "sight_ft"}.issubset(header):
                print("error: input must have columns timestamp,mu,sight_ft[,grade][,design_speed]",
                      file=sys.stderr)
                return EXIT_NODATA
            if repeated := repeated_column(header, (
                    "timestamp", "mu", "sight_ft", "grade", "design_speed")):
                print(f"error: {input_path}: header repeats column {repeated!r}", file=sys.stderr)
                return EXIT_NODATA
            log = os.fstat(fh.fileno())
            # The first block and the record after it are read before numpy
            # loads: a log that fits in one block stays serial. A failure to
            # read that record is raised in its turn, after the first block.
            records = numbered_records(reader)
            head = list(islice(records, BLOCK_ROWS))
            try:
                head += islice(records, 1)
            except (csv.Error, UnicodeDecodeError) as exc:
                records = _raised(exc)
            # Each process reads every record, so that block k holds the same
            # records in all of them, and scores only its own blocks.
            def frames(parent):
                own = chain(head, records) if parent else _own_records(input_path, log)
                return _log_frames(header, args.design_speed, catalog, joint, own)
            with _blocks(frames, len(head) > BLOCK_ROWS) as blocks:
                for warnings, first in blocks:
                    sys.stderr.write(warnings)
                    if first:
                        break
                else:
                    print("error: no valid rows in input", file=sys.stderr)
                    return EXIT_NODATA
                try:
                    with _replay_output(args.out, log) as out:
                        out.write(",".join(REPLAY_COLUMNS) + "\n")
                        out.write(first)
                        for warnings, text in blocks:
                            sys.stderr.write(warnings)
                            out.write(text)
                except OSError as exc:
                    print(f"error: cannot write output: {exc}", file=sys.stderr)
                    return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {input_path} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_NODATA
    except csv.Error as exc:
        print(f"error: {input_path} is not readable CSV at line {reader.line_num}: {exc}",
              file=sys.stderr)
        return EXIT_NODATA
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    matrix = risk_matrix()
    if args.format == "csv":
        write_rows(sys.stdout, HEATMAP_COLUMNS, heatmap_rows())
    elif args.format == "json":
        names = ("probability_score", "severity_score", "risk_score", "risk_level")
        cells = [dict(zip(names, (p + 1, s + 1, matrix[s][p][0], matrix[s][p][1].value)))
                 for s in range(5) for p in range(5)]
        print(json.dumps(cells, indent=2))
    else:
        print("severity \\ probability" + "".join(f"{p:>18}" for p in range(1, 6)))
        for s in reversed(range(5)):
            cells = [f"{matrix[s][p][0]:>3} {matrix[s][p][1].value:<14}" for p in range(5)]
            print(f"{s + 1:>21} " + "".join(cells))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with two changes, which its subcommand parsers share: a flag
    value such as -1e-3, -inf or -nan is read as a number, not as an unknown
    option; a usage error is one `error: ...` line and exit 64."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # argparse's own pattern knows only -1 and -1.5.
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hazardrisk", description="Compound roadway-hazard risk scoring and scenario simulation")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo case study over the catalog's "
                           "scenario grid (16 with the built-in catalog)")
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--samples", type=int, default=100, help="samples per scenario")
    p_sim.add_argument("--sigma-rule", type=float, default=6.0)
    p_sim.add_argument("--design-speed", type=float, default=75.0)
    p_sim.add_argument("--grade", type=float, default=0.0)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--config", help="crash-rate CSV override")
    p_sim.set_defaults(func=cmd_simulate)

    p_assess = sub.add_parser("assess", help="score a single environment reading")
    p_assess.add_argument("--mu", type=float, required=True)
    p_assess.add_argument("--sight-ft", type=float, required=True)
    p_assess.add_argument("--grade", type=float, default=0.0)
    p_assess.add_argument("--design-speed", type=float, default=75.0)
    p_assess.add_argument("--format", choices=["json", "csv"], default="json")
    p_assess.add_argument("--config", help="crash-rate CSV override")
    p_assess.set_defaults(func=cmd_assess)

    p_replay = sub.add_parser("replay", help="assess a CSV log of readings")
    p_replay.add_argument("--input", required=True)
    p_replay.add_argument("--out", help="output CSV path (default: stdout)")
    p_replay.add_argument("--design-speed", type=float, default=75.0)
    p_replay.add_argument("--config", help="crash-rate CSV override")
    p_replay.set_defaults(func=cmd_replay)

    p_matrix = sub.add_parser("matrix", help="print the 5x5 risk matrix")
    p_matrix.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_matrix.set_defaults(func=cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help or --version, else EXIT_USAGE
        return exc.code
    # The one place an invalid flag, reading or --config, a worker's end or a run too large
    # for memory becomes exit 64; commands handle only errors that map elsewhere.
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, WorkerError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # Ctrl-C, after the command has removed its partial output
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
