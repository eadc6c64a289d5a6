"""The fault matrix of the command line.

Each row is a command with one representative input (ROWS); each column is a
fault that the command's caller or its system can bring (FAULTS). Every cell
prepares its files here, then runs the command once in a fork of this process
with the fault applied there (`run_forked`), and one oracle (`check`) judges it:

- the exit code, from EXIT, the table that README and cli's EXIT_* list too;
- exactly one `error:` line, the last, wherever stderr can take it; no traceback;
- after a failure, every file that was there before, byte-identical; after a
  success, the bytes of the same command run on one CPU without the fault;
- no `*.tmp` file and no child process left.

A cell that cannot apply is listed, with its reason, in NOT_APPLICABLE.
"""

import encodings.utf_8_sig  # noqa: F401  (see NOBODY)
import fcntl  # noqa: F401  (see NOBODY)
import os
import pickle  # noqa: F401  (see NOBODY)
import re
import shutil
import signal
import stat
import sys
import tempfile
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import pytest

import hazardrisk.batch  # noqa: F401  (see NOBODY)
import hazardrisk.cli
import hazardrisk.sampler  # noqa: F401  (see NOBODY)
from conftest import (assert_no_child_left, at_second_block, failing_call, full_disk, kill,
                      rates_csv, redirected_run, run_forked, tree)
from hazardrisk import default_catalog
from hazardrisk.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Every exit code of the command line, by what it means.
EXIT = {"success": 0, "unwritable output": 2, "usage or configuration": 64,
        "no valid input data": 65, "missing or unreadable input": 66,
        "interrupted": 130, "terminated": 143}
OK, OUTPUT, USAGE, DATA, INPUT, INTERRUPTED, TERMINATED = EXIT.values()
KILLED = -signal.SIGKILL  # no handler sees SIGKILL: the process ends by the signal
# How the error line starts, where the exit code tells.
ERROR = {OUTPUT: "error: cannot write output: ", INTERRUPTED: "error: interrupted\n",
         TERMINATED: "error: terminated\n"}

# A user other than root, which the cells that need one drop to when the
# suite runs as root. That user may be unable to read the checkout, or even
# the interpreter's standard library, so each module a command loads late is
# imported above. Any other import in those cells fails, as root or not, with
# LATE_IMPORT's message.
NOBODY = 65534
LATE_IMPORT = "{} is first imported in a cell that drops to uid 65534: import it above"


class NoImport:
    """A first place on sys.meta_path that refuses every module not yet loaded."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        raise ImportError(LATE_IMPORT.format(name))


# replay's log: 20 rows of about 600 bytes, whose output passes the 8 kB that
# a file buffers; the row that it warns of is in block 3, a worker's.
LOG = "timestamp,mu,sight_ft\n" + "".join(
    f"{'t' * 600}{i},{'abc' if i == 10 else 0.5},600\n" for i in range(20))
# The same rows with row 7's timestamp quoted: blocks 0 and 1 are lines,
# split at commas, and from block 2 on the csv module reads records.
QUOTED_LOG = LOG.replace(f"\n{'t' * 600}7,", f'\n"{"t" * 600}7",')


@dataclass(frozen=True)
class Row:
    argv: tuple
    cpus: int = 1  # 2: a worker formats every odd block (blocks of 3 rows: the cpus fixture)
    log: str = LOG  # replay's

    @property
    def command(self):
        return self.argv[0]

    @property
    def has(self):
        """What the command has for a fault to strike: see NEEDS."""
        return {"simulate": {"out", "input", "blocks"}, "replay": {"out", "input", "blocks"},
                "assess": {"input"}, "matrix": set()}[self.command] | (
                    {"worker"} if self.cpus > 1 else set())


SIMULATE = ("simulate", "--seed", "5", "--samples", "7")
ASSESS = ("assess", "--mu", "0.5", "--sight-ft", "100")
ROWS = {
    "simulate_serial": Row(SIMULATE),
    "simulate_forked": Row(SIMULATE, cpus=2),
    "replay_serial": Row(("replay",)),
    "replay_forked": Row(("replay",), cpus=2),
    "replay_quoted": Row(("replay",), cpus=2, log=QUOTED_LOG),
    "assess_json": Row(ASSESS),
    "assess_csv": Row(ASSESS + ("--format", "csv")),
    "matrix_table": Row(("matrix",)),
    "matrix_csv": Row(("matrix", "--format", "csv")),
    "matrix_json": Row(("matrix", "--format", "json")),
}

EARLIER = b"earlier result\n"


@dataclass
class Cell:
    """A row's command under a fault, in `dir`: replay reads dir/log.csv and
    writes dir/out.csv, simulate writes dir/out, each over an earlier run.
    `input` is replay's --input, or the --config of simulate and assess."""
    row: Row
    fault: "Fault"
    dir: Path
    out: Path | None = None
    input: Path | None = None

    def argv(self):
        args = list(self.row.argv)
        if self.row.command == "replay":
            args += ["--input", str(self.input or self.dir / "log.csv")]
        elif self.input:
            args += ["--config", str(self.input)]
        return args + (["--out", str(self.out)] if self.out else [])

    def prepare(self, simulated):
        """The earlier run, then the fault's own files."""
        if self.row.command == "simulate":
            self.out = self.dir / "out"
            shutil.copytree(simulated, self.out)
            (self.out / "keep.txt").write_text("the user's\n")
        elif self.row.command == "replay":
            (self.dir / "log.csv").write_text(self.row.log)
            self.out = self.dir / "out.csv"
            self.out.write_bytes(EARLIER)
            if self.fault.stream == "stdout":  # replay then writes its rows to stdout
                self.out = None
        self.fault.prepare(self)

    def code(self):
        return self.fault.code.get(self.row.command, self.fault.code[None])


@dataclass
class Fault:
    apply: callable  # run_forked's setup: in the command's process, before main
    code: dict  # exit code by command, None for any other
    needs: str | None = None  # what the row must have: see NEEDS
    prepare: callable = lambda cell: None  # files and paths, before the earlier state is read
    stream: str | None = None  # "stdout" or "stderr": the stream the fault takes


# The reason a cell cannot apply, by what its fault needs and its row lacks.
NEEDS = {
    "out": "writes only stdout: it takes no --out",
    "input": "reads no input",
    "blocks": "writes its output in one call at its end: no signal comes once output has begun",
    "worker": "runs on one CPU: it forks no worker",
}

# No fault: a forked run writes the bytes of the serial one.
FAULTS = {"none": Fault(lambda: None, {None: OK})}


def stream(name, make, writers):
    """A fault that puts make() in place of sys.`name`: the commands in
    `writers` write it in this row's run, and fail with exit 2."""
    return Fault(lambda: setattr(sys, name, make()),
                 {None: OK, **dict.fromkeys(writers, OUTPUT)}, stream=name)


def gone_pipe(buffering=-1):
    """A pipe whose reader has closed it."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    return open(write_fd, "w", buffering)


STDOUT_WRITERS, STDERR_WRITERS = ("replay", "assess", "matrix"), ("replay",)
# stdout is block-buffered off a terminal, stderr line-buffered.
for name, buffering, writers in [("stdout", -1, STDOUT_WRITERS), ("stderr", 1, STDERR_WRITERS)]:
    # Python leaves a stream None if its descriptor was closed at start.
    FAULTS[f"{name}_closed"] = stream(name, lambda: None, writers)
    FAULTS[f"{name}_full"] = stream(name, lambda b=buffering: open("/dev/full", "w", b), writers)
    FAULTS[f"{name}_gone"] = stream(name, lambda b=buffering: gone_pipe(b), writers)


for where, in_worker in [("parent", False), ("worker", True)]:
    needs = "worker" if in_worker else "blocks"
    for signum, code in [(signal.SIGINT, INTERRUPTED), (signal.SIGTERM, TERMINATED),
                         (signal.SIGKILL, USAGE if in_worker else KILLED)]:
        FAULTS[f"{signum.name.lower()}_{where}"] = Fault(
            at_second_block(kill(signum), in_worker), {None: code}, needs)
# A worker that ends, even with status 0, without its block.
FAULTS["worker_ends"] = Fault(at_second_block(lambda: os._exit(0), True), {None: USAGE}, "worker")


# The run goes on serial.
for name in ["pipe", "fork"]:
    FAULTS[f"{name}_fails"] = Fault(lambda name=name: setattr(os, name, failing_call(name, [])),
                                    {None: OK}, "worker")


def moved_out(*parts):
    """A prepare that moves --out to dir/parts/<its name>."""
    def prepare(cell):
        cell.out = cell.dir.joinpath(*parts, cell.out.name)

    return prepare


def made(cell):
    """No --out before the run: simulate makes its nested directory, replay its file."""
    if cell.row.command == "simulate":
        moved_out("made", "here")(cell)
    else:
        cell.out.unlink()


def blocked(cell):
    (cell.dir / "file").write_text("a file, not a directory\n")
    moved_out("file")(cell)


def linked(cell):
    """The earlier outputs become relative symlinks to files beside --out,
    which a run writes through."""
    names = ["samples.csv", "manifest.json"] if cell.row.command == "simulate" else [None]
    for name in names:
        link = cell.out / name if name else cell.out
        target = cell.dir / f"{link.name}.target"
        link.rename(target)
        link.symlink_to(os.path.relpath(target, link.parent))


def read_only(cell):
    """--out's earlier files in a directory that only root may write, each
    writable by all: a run writes them through."""
    if cell.row.command == "replay":
        (cell.dir / "ro").mkdir()
        cell.out = cell.out.rename(cell.dir / "ro" / cell.out.name)
    directory = cell.out if cell.out.is_dir() else cell.out.parent
    for path in directory.iterdir():
        path.chmod(0o666)
    directory.chmod(0o555)


def as_other_user():
    sys.meta_path.insert(0, NoImport)
    if os.geteuid() == 0:
        os.setgroups([])
        os.setgid(NOBODY)
        os.setuid(NOBODY)
        tempfile.tempdir = None  # found again as a process of that user finds it


FAULTS.update({
    # simulate makes a missing --out directory; replay's --out is one file in it.
    "out_missing_dir": Fault(lambda: None, {None: OUTPUT, "simulate": OK}, "out",
                             moved_out("missing", "nested")),
    "out_not_a_dir": Fault(lambda: None, {None: OUTPUT}, "out", blocked),
    "out_full": Fault(lambda: full_disk(4096), {None: OUTPUT}, "out"),
    # A rerun stopped once output has begun, where --out was not there before
    # (made) or its earlier outputs are symlinks (linked); the other cells
    # rerun over a complete earlier run of regular files (existing).
    "rerun_made": Fault(at_second_block(kill(signal.SIGTERM)), {None: TERMINATED}, "out", made),
    "rerun_linked": Fault(at_second_block(kill(signal.SIGTERM)), {None: TERMINATED}, "out",
                          linked),
    "out_read_only_dir": Fault(as_other_user, {None: OK}, "out", read_only),
})


def input_fault(make, code=INPUT, **kwargs):
    """A fault of the input: replay's log, or simulate's and assess's
    --config, whose failures exit 64."""
    def prepare(cell):
        cell.input = make(cell.dir)

    return Fault(kwargs.pop("apply", lambda: None), {None: USAGE, "replay": code}, "input",
                 prepare, **kwargs)


def a_directory(root):
    (root / "a_dir").mkdir()
    return root / "a_dir"


def input_text(root):
    """The cell's replay log, or else a valid --config."""
    log = root / "log.csv"
    return log.read_text() if log.exists() else rates_csv(default_catalog())


def utf16(root):
    (root / "utf16.csv").write_text(input_text(root), encoding="utf-16")
    return root / "utf16.csv"


def locked(name, mode):
    """A copy of replay's log, or a valid --config, at root/`name`, whose
    directory, or itself, then gets `mode`: one that only root may search,
    or read."""
    def make(root):
        path = root / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(input_text(root))
        (path if path.parent == root else path.parent).chmod(mode)
        return path

    return make


FAULTS.update({
    "input_missing": input_fault(lambda root: root / "absent.csv"),
    "input_not_regular": input_fault(a_directory),
    # Each read of this process's memory at address 0 fails with EIO.
    "input_eio": input_fault(lambda root: Path("/proc/self/mem")),
    "input_not_utf8": input_fault(utf16, code=DATA),
    "input_unsearchable": input_fault(locked("locked/input.csv", 0o700), apply=as_other_user),
    "input_unreadable": input_fault(locked("input.csv", 0), apply=as_other_user),
})

NOT_APPLICABLE = {(row, name): NEEDS[f.needs] for row, name in product(ROWS, FAULTS)
                  if (f := FAULTS[name]).needs and f.needs not in ROWS[row].has}
MATRIX = [cell for cell in product(ROWS, FAULTS) if cell not in NOT_APPLICABLE]


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A complete earlier simulate run, of other bytes than each row's."""
    out = tmp_path_factory.mktemp("earlier") / "out"
    assert main(["simulate", "--seed", "3", "--samples", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def clean_runs():
    """The clean run of each command and file layout: a cell's twin, run once."""
    return {}


@pytest.fixture
def cell_dir():
    """A directory that any user may search, under $TMPDIR if every user may
    search that too, else under /tmp: pytest's tmp_path is private."""
    base = tempfile.gettempdir()
    if not all(p.stat().st_mode & stat.S_IXOTH for p in [Path(base), *Path(base).parents]):
        base = "/tmp"
    path = Path(tempfile.mkdtemp(prefix="hazardrisk-cell-", dir=base))
    path.chmod(0o755)
    yield path
    for p in [path, *path.rglob("*")]:
        if not p.is_symlink():
            p.chmod(0o755)
    shutil.rmtree(path)


def check(cell, result, before, clean):
    """The one oracle. `before` is the tree of cell.dir before the run;
    `clean` is the same cell's Run without its fault, and the tree it left,
    where the cell should succeed."""
    code = cell.code()
    assert result.code == code, result.err
    after = tree(cell.dir)
    if code == KILLED:  # the run's temporary files are left, as README says
        after = {name: v for name, v in after.items() if not name.endswith(f".{result.pid}.tmp")}
    assert not [name for name in after if name.endswith(".tmp")]
    clean, files = clean or (None, before)
    assert after == files
    if code == KILLED:
        return
    if cell.fault.stream != "stdout":
        assert result.out == (clean.out if clean else "")
    if cell.fault.stream == "stderr":
        assert result.err == ""  # not even a traceback
    else:
        assert "Traceback" not in result.err
        lines = result.err.splitlines(keepends=True)
        errors = [line for line in lines if line.startswith("error: ")]
        if code:
            assert errors == lines[-1:] and errors[0].startswith(ERROR.get(code, "error: "))
            assert cell.input is None or str(cell.input) in errors[0]  # it names the input
        else:
            assert result.err == clean.err


@pytest.mark.parametrize("row, name", MATRIX, ids=[f"{r}-{f}" for r, f in MATRIX])
def test_cell(row, name, cpus, cell_dir, simulated, clean_runs):
    cell = Cell(ROWS[row], FAULTS[name], cell_dir / "cell")
    clean = None
    if cell.code() == OK:  # the same files, and the run on one CPU without the fault
        key = cell.row.argv, cell.row.log, cell.fault.prepare, cell.fault.stream
        if key not in clean_runs:
            twin = Cell(cell.row, cell.fault, cell_dir / "clean")
            twin.dir.mkdir()
            twin.prepare(simulated)
            cpus(1)
            clean_runs[key] = run_forked(twin.argv()), tree(twin.dir)
            assert clean_runs[key][0].code == OK
        clean = clean_runs[key]
    cell.dir.mkdir()
    cell.prepare(simulated)
    before = tree(cell.dir)
    cpus(cell.row.cpus)
    result = run_forked(cell.argv(), cell.fault.apply)
    assert_no_child_left()
    check(cell, result, before, clean)
    if clean:  # a run that succeeds forks where its row does, unless its fork failed
        assert result.forks == (0 if cell.fault.needs == "worker" else cell.row.cpus - 1)


# The stream cells' stand-ins, checked once each against the descriptors a
# shell leaves a fresh interpreter: closed at start, refusing writes, or full.
@pytest.mark.parametrize("argv, redirect, code, err", [
    (["matrix", "--format", "csv"], ">&-", OUTPUT,
     "error: cannot write output: [Errno 9] Bad file descriptor\n"),
    (["replay", "--input", "log.csv", "--out", "out.csv"], "2>&-", OUTPUT, ""),
    (["assess", "--mu", "0.5", "--sight-ft", "100"], ">/dev/full", OUTPUT,
     "error: cannot write output: [Errno 28] No space left on device\n"),
], ids=["stdout_closed", "stderr_closed", "stdout_full"])
def test_stream_in_a_fresh_interpreter(tmp_path, argv, redirect, code, err):
    (tmp_path / "log.csv").write_text(LOG)
    (tmp_path / "out.csv").write_bytes(EARLIER)
    result = redirected_run(argv, redirect, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", err)
    assert tree(tmp_path) == {"log.csv": LOG.encode(), "out.csv": EARLIER}


def test_each_cell_runs_or_has_its_reason():
    assert set(MATRIX) | set(NOT_APPLICABLE) == set(product(ROWS, FAULTS))
    assert not set(MATRIX) & set(NOT_APPLICABLE)
    # Each documented code ends some cell.
    codes = {Cell(ROWS[row], FAULTS[name], Path()).code() for row, name in MATRIX}
    assert codes >= set(EXIT.values())


# README's table of exit codes: a row "| `code` | meaning |".
README_CODE = re.compile(r"^\| `(\d+)` \|", re.MULTILINE)


def test_exit_codes_agree_with_cli_and_readme():
    constants = sorted(v for k, v in vars(hazardrisk.cli).items() if k.startswith("EXIT_"))
    documented = hazardrisk.cli.__doc__.split("Exit codes:")[1]
    assert constants == sorted(EXIT.values())
    assert sorted(map(int, re.findall(r"\b\d+\b", documented))) == constants
    assert sorted(map(int, README_CODE.findall(README.read_text()))) == constants
