"""Command-line interface: simulate, assess, replay, matrix.

Exit codes: 0 success, 2 unwritable output, sysexits' 64 usage / invalid
configuration, 65 no valid input data and 66 missing or unreadable input,
130 interrupted and 143 terminated.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import signal
import sys
import tempfile
from contextlib import ExitStack, closing, contextmanager, nullcontext, suppress
from dataclasses import asdict
from functools import partial
from itertools import chain, groupby, islice
from operator import itemgetter
from pathlib import Path
from stat import S_IMODE, S_ISREG

from . import __version__
from .bands import (BandCatalog, EnvironmentReading, default_catalog, load_catalog,
                    numbered_records, repeated_column)
from .probability import joint_probability, normalize_marginals
from .reporting import (ASSESSMENT_COLUMNS, HEATMAP_COLUMNS, REPLAY_COLUMNS, SAMPLES_COLUMNS,
                        assessed_text, assessment_record, heatmap_rows, joint_table,
                        manifest_text, marginals_table, scenario_stats_table, write_rows)
from .risk import assess, risk_matrix

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_NODATA = 65
EXIT_NOINPUT = 66
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143

CONFIG_ENV_VAR = "HAZARD_RISK_CONFIG"

# Readings scored and written per block: memory does not grow with the input.
BLOCK_ROWS = 1 << 11


class Failure(Exception):
    """Failure(code, message): main prints `error: {message}` and exits `code`."""

    code = property(lambda self: self.args[0])  # both are args, which a worker's pickle keeps

    def __str__(self):
        return self.args[1]


def _resolve_catalog(config_path: str | None) -> tuple[BandCatalog, str]:
    """Catalog from --config, else $HAZARD_RISK_CONFIG, else built-in defaults."""
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    try:
        return (load_catalog(path), str(path)) if path else (default_catalog(), "builtin")
    except OSError as exc:  # an input's: main takes any other OSError for an output's
        raise Failure(EXIT_USAGE, str(exc)) from None


def _build_joint(catalog: BandCatalog):
    p_f = normalize_marginals(list(catalog.friction_bands))
    p_v = normalize_marginals(list(catalog.visibility_bands))
    return p_f, p_v, joint_probability(p_f, p_v)


def _numpy():
    """numpy, loaded with one BLAS thread: neither simulate nor replay calls
    BLAS, and OpenBLAS would otherwise start a thread per CPU as it loads,
    which keeps the run from forking (`_one_thread`)."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy

    return numpy


def _sample_blocks(config, args: argparse.Namespace, catalog: BandCatalog, joint):
    """A function for each block of at most BLOCK_ROWS rows of the samples
    table, in order, that formats it: its frame is (scenario, CSV text, risk
    scores). Each block holds one scenario's rows. Its first draw outside the
    domain raises EnvironmentReading's error."""
    np = _numpy()

    from .batch import assess_columns, valid_readings
    from .sampler import scenario_samples

    def frame(scenario, mu, sight):
        for i in np.flatnonzero(~valid_readings(mu, sight, args.grade, args.design_speed)).tolist():
            EnvironmentReading(float(mu[i]), float(sight[i]), args.grade, args.design_speed)
        columns = assess_columns(mu, sight, args.grade, args.design_speed, catalog, joint)
        text = assessed_text(np.full(len(mu), scenario.scenario_id), columns)
        return scenario, text, columns["risk_score"]

    for scenario, mu, sight in scenario_samples(config, catalog):
        for start in range(0, len(mu), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            yield partial(frame, scenario, mu[block], sight[block])


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


def _forks() -> bool:
    """Whether a worker may format half a run: this process runs one thread,
    as a fork could leave another thread's lock held, and may run on a second
    CPU, of its affinity mask and within its cgroup's quota."""
    return (hasattr(os, "sched_getaffinity") and _one_thread()
            and min(len(os.sched_getaffinity(0)), _cgroup_cpus() or 2) >= 2)


class Terminated(BaseException):
    """SIGTERM, raised where the command runs, as Ctrl-C raises KeyboardInterrupt."""


def _terminated(signum, frame):
    raise Terminated


def _blocks(frames, large: bool = True):
    """Every block's frame in order: `frames` gives a function per block that
    makes its frame. Once a run reaches block 1, one worker forks if `large`
    (its caller's word that block 0 held BLOCK_ROWS rows: a smaller run costs
    less than a fork) and `_forks()`. The worker goes on with its copy of
    `frames`, and pickles the frame of block 1 and each odd block after it, or
    the exception that stopped it, into its pipe, for the parent to raise in
    its turn; the parent makes the even blocks. When the stream ends or is
    closed, the pipe is closed and the worker reaped. A worker's end without
    its block exits 64; after a failed pipe or fork, the run is serial."""
    import fcntl
    import pickle

    workers = []

    def fork(frame):
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            # A 1 MB pipe holds several blocks: the worker runs ahead of the parent.
            with suppress(AttributeError, OSError):
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
            pid = os.fork()
        except OSError:  # no descriptor or process to spare: the serial loop needs neither
            for fd in fds:
                os.close(fd)
            return
        if pid == 0:
            code = 1
            try:
                # A read end held open here would keep the pipe from
                # breaking when the parent closes its own.
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    try:
                        for frame in chain([frame], islice(frames, 1, None, 2)):
                            pickle.dump(frame(), pipe)
                            pipe.flush()
                        code = 0
                    except BaseException as exc:  # the parent raises it in order
                        pipe.write(pickle.dumps(exc))
            finally:
                os._exit(code)  # flushing none of the parent's output buffers, copied here
        os.close(write_fd)
        workers.append((pid, open(read_fd, "rb")))

    def received(k):
        pid, pipe = workers[0]
        try:
            frame = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise Failure(EXIT_USAGE, f"worker process {pid} {how} before block {k}") from None
        if isinstance(frame, BaseException):
            raise frame
        return frame

    try:
        for k, frame in enumerate(frames):
            if k == 1 and large and _forks():
                fork(frame)
            yield received(k) if workers and k % 2 else frame()
    finally:
        for pid, pipe in workers:
            pipe.close()  # a worker still writing stops at its next block
            with suppress(ChildProcessError):  # reaped already by received()
                os.waitpid(pid, 0)


def cmd_simulate(args: argparse.Namespace) -> int:
    catalog, table_source = _resolve_catalog(args.config)
    p_f, p_v, joint = _build_joint(catalog)
    # numpy loads only in simulate and replay: assess and matrix start without it.
    np = _numpy()

    from .sampler import SamplerConfig, by_mean_risk, scenario_stats

    config = SamplerConfig(args.seed, args.samples, args.sigma_rule)
    stats = []

    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    blocks = _blocks(_sample_blocks(config, args, catalog, joint), args.samples >= BLOCK_ROWS)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with closing(blocks), ExitStack() as stack:
            # The stack renames each file into place only once all six are
            # written and flushed, in the reverse order of this one: the
            # manifest last.
            files = {name: stack.enter_context(_output(out_dir / name)) for name in (
                "manifest.json", "samples.csv", "scenario_stats.csv", "heatmap.csv",
                "marginals.csv", "joint.csv")}
            files["samples.csv"].write(",".join(SAMPLES_COLUMNS) + "\n")
            # Every block in order, the worker's as it sends them; a
            # scenario's stats row is made once its last block is in.
            for scenario, frames in groupby(blocks, itemgetter(0)):
                scores = []
                for _, text, block_scores in frames:
                    files["samples.csv"].write(text)
                    scores.append(block_scores)
                stats.append(scenario_stats(scenario, np.concatenate(scores)))
            tables = {
                "scenario_stats.csv": scenario_stats_table(by_mean_risk(stats)),
                "heatmap.csv": (HEATMAP_COLUMNS, heatmap_rows()),
                "marginals.csv": marginals_table(catalog, p_f, p_v),
                "joint.csv": joint_table(joint),
            }
            outputs = {"samples.csv": len(stats) * config.samples_per_scenario, "manifest.json": 1,
                       **{name: write_rows(files[name], *table) for name, table in tables.items()}}
            files["manifest.json"].write(manifest_text("simulate", __version__, config={
                **asdict(config), "design_speed_mph": args.design_speed, "grade": args.grade,
                "table_source": table_source}, outputs=outputs))
            for stream in files.values():
                stream.flush()
    except BaseException:
        # Any failure here (a draw outside the domain, a full disk, a Ctrl-C)
        # leaves every file in --out as it was, and no directory made for them.
        with suppress(OSError):
            for d in made:
                d.rmdir()
        raise
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
    """A function for each block of at most BLOCK_ROWS numbered log records,
    in order, that scores it: its frame is (warning lines, CSV text of its
    valid readings). Only the last block is short, so a block 1 follows a
    full block 0. Blank lines are skipped; a row not as wide as the header is
    skipped with a warning, as is each row the domain mask rejects, parsed
    alone for its message. Warnings are in line order."""
    np = _numpy()

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


def _reading(path, call, *args):
    """call(*args), whose OSError is raised as the exit-66 Failure of the log at
    `path`: main takes an OSError for an output's, and a Failure pickles."""
    try:
        return call(*args)
    except OSError as exc:
        raise Failure(EXIT_NOINPUT,
                      f"cannot read input {path}: [Errno {exc.errno}] {exc.strerror}") from None


class _Log(io.RawIOBase):
    """The bytes of the log `path` open at `fd`, read with os.pread at an
    offset of this object's own: a forked worker copies it and reads on, while
    the file offset, which the fork shares, is never moved."""

    def __init__(self, fd: int, path):
        self.fd, self.path, self.offset = fd, path, 0

    def readable(self):
        return True

    def readinto(self, buffer) -> int:
        data = _reading(self.path, os.pread, self.fd, len(buffer), self.offset)
        buffer[:len(data)] = data
        self.offset += len(data)
        return len(data)


@contextmanager
def _output(path):
    """Every output file's stream; only a rename creates or replaces a file.
    A path that does not exist, or a regular file of this user's with no
    other link in a directory it may write, gets a temporary file beside it,
    renamed onto it with the old file's mode only once the block completes
    and removed on any exception. A dangling symlink stands for its target.
    Any other path (a device, FIFO or symlink, a file with other links or
    another owner, or one in a read-only directory) is opened at once, not
    created, to fail first if it cannot be, nor truncated: the stream is an
    unnamed file in $TMPDIR, copied onto it once the block completes."""
    if os.path.islink(path) and not os.path.exists(path):
        path = os.path.realpath(path)
    old = os.lstat(path) if os.path.lexists(path) else None
    whole = old is None or (os.access(os.path.dirname(path) or ".", os.W_OK) and (
        S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid()))
    target = f"{path}.{os.getpid()}.tmp" if whole else path
    # A temporary name that is already taken, even by a symlink, is an error:
    # only a file this run created is written, renamed or removed.
    fd = os.open(target, os.O_WRONLY | (os.O_CREAT | os.O_EXCL if whole else 0), 0o666)
    try:
        with (open(fd, "w", newline="", encoding="utf-8") as out, nullcontext(out) if whole
              else tempfile.TemporaryFile("w+", newline="", encoding="utf-8") as staged):
            yield staged
            if not whole:
                staged.seek(0)
                if S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, 0)
                shutil.copyfileobj(staged, out)
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
    if not _reading(input_path, input_path.is_file):  # a FIFO or a directory has no offsets
        what = "is not a regular file" if input_path.exists() else "file not found"
        raise Failure(EXIT_NOINPUT, f"input {what}: {input_path}")
    _, _, joint = _build_joint(catalog)

    try:
        with (_reading(input_path, open, input_path, "rb", 0) as raw,
              io.TextIOWrapper(io.BufferedReader(_Log(raw.fileno(), input_path)),
                               encoding="utf-8-sig", newline="") as fh):
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or not {"timestamp", "mu", "sight_ft"}.issubset(header):
                raise Failure(EXIT_NODATA, "input must have columns "
                              "timestamp,mu,sight_ft[,grade][,design_speed]")
            if repeated := repeated_column(header, (
                    "timestamp", "mu", "sight_ft", "grade", "design_speed")):
                raise Failure(EXIT_NODATA, f"{input_path}: header repeats column {repeated!r}")
            frames = _log_frames(header, args.design_speed, catalog, joint, numbered_records(reader))
            # Opened before any row is scored, an output that cannot be written fails first.
            with (closing(_blocks(frames)) as blocks,
                  _output(args.out) if args.out else nullcontext(sys.stdout) as out):
                out_header = ",".join(REPLAY_COLUMNS) + "\n"
                for warnings, text in blocks:
                    sys.stderr.write(warnings)
                    if out_header and text:
                        out.write(out_header)
                        out_header = ""
                    out.write(text)
                if out_header:  # raised in the output, which is then left as it was
                    raise Failure(EXIT_NODATA, "no valid rows in input")
    except UnicodeDecodeError as exc:
        raise Failure(EXIT_NODATA, f"{input_path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise Failure(EXIT_NODATA, f"{input_path} is not readable CSV at line "
                      f"{reader.line_num}: {exc}") from None
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
    previous = None
    with suppress(ValueError):  # only the main thread may set one: elsewhere SIGTERM is as it was
        previous = signal.signal(signal.SIGTERM, _terminated)
    # The one place a failure becomes an `error:` line and an exit code:
    # commands raise, and convert only the errors of what they read.
    try:
        code = args.func(args)
        print(end="", flush=True)  # a full stdout, if any, fails here, not as Python exits
        return code
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # an output's: each input raises a Failure of its own
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            print(end="", flush=True)
        except OSError:  # stdout's bytes, which Python would flush again as it exits, go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (ValueError, MemoryError) as exc:  # a bad flag, reading or --config, or too large a run
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # Ctrl-C, after the command has removed its partial output
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Terminated:  # likewise
        print("error: terminated", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
