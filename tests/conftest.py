import errno
import importlib.util
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import traceback
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import pytest

import hazardrisk.cli
from hazardrisk import default_catalog, joint_probability, normalize_marginals

SRC = str(Path(hazardrisk.cli.__file__).resolve().parents[1])


def _load_reference():
    # bench/reference.py restates the paper without importing hazardrisk; it
    # is loaded from its file and never written.
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The one copy of the independent oracle: test modules take it with
# `from conftest import reference`.
reference = _load_reference()


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def joint_table(catalog):
    p_f = normalize_marginals(list(catalog.friction_bands))
    p_v = normalize_marginals(list(catalog.visibility_bands))
    return joint_probability(p_f, p_v)


@pytest.fixture(scope="session")
def default_rates_csv(catalog):
    return rates_csv(catalog)


def rates_csv(catalog):
    """A catalog as crash-rate CSV text, in load_catalog's schema."""
    lines = ["dimension,label,lower,upper,crash_rate"]
    for dim, bands in [
        ("friction", catalog.friction_bands),
        ("visibility", catalog.visibility_bands),
        ("sampling_visibility", catalog.sampling_visibility_bands),
    ]:
        lines += [f"{dim},{b.label},{b.lower},{b.upper},{b.crash_rate}" for b in bands]
    return "\n".join(lines) + "\n"


# Single-line edits of default_rates_csv that load_catalog must reject.
BAD_CATALOG_EDITS = {
    "sampling_label_not_in_visibility": ("sampling_visibility,Clear,", "sampling_visibility,Sunny,"),
    "sampling_rate_differs": (
        "sampling_visibility,Clear,4000.0,6500.0,0.685",
        "sampling_visibility,Clear,4000.0,6500.0,0.7",
    ),
    "duplicate_friction_label": ("friction,Snow,", "friction,Icy,"),
    "nan_crash_rate": ("friction,Dry,0.7,0.9,1.9", "friction,Dry,0.7,0.9,nan"),
    "inf_crash_rate": ("visibility,Clear,1640.0,6562.0,0.685", "visibility,Clear,1640.0,6562.0,inf"),
    "short_row": ("friction,Icy,0.05,0.15,9.0\n", "friction,Icy,0.05\n"),
    "long_row": ("friction,Wet,0.4,0.6,3.75\n", "friction,Wet,0.4,0.6,3.75,1\n"),
    # Past the csv module's 131072-character field limit.
    "oversized_field": ("friction,Snow,", 'friction,"' + "S" * 131073 + '",'),
}


@pytest.fixture(params=sorted(BAD_CATALOG_EDITS))
def bad_rates_path(request, default_rates_csv, tmp_path):
    old, new = BAD_CATALOG_EDITS[request.param]
    assert default_rates_csv.count(old) == 1
    path = tmp_path / "rates.csv"
    path.write_text(default_rates_csv.replace(old, new))
    return path


@pytest.fixture
def cpus(monkeypatch):
    """Blocks of 3 rows, and a function that sets the CPU count that simulate
    and replay see; os.fork is counted, and no cgroup quota is read. This
    process has loaded numpy, whose threads would keep a run serial: the
    fork-safety check is taken as passed here, and made for real in a fresh
    interpreter. Only a worker may end in os._exit, and only this process
    may return from the test."""
    monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 3)
    monkeypatch.setattr(hazardrisk.cli, "_one_thread", lambda: True)
    monkeypatch.setattr(hazardrisk.cli, "_cgroup_cpus", lambda: None)
    forks, test_process, real_exit = [], os.getpid(), os._exit

    def fork(real=os.fork):
        forks.append(1)
        return real()

    def worker_exit(code):
        if os.getpid() == test_process:
            raise AssertionError(f"os._exit({code}) in the process that forks the workers")
        real_exit(code)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "_exit", worker_exit)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()
        return forks

    yield set_cpus
    if os.getpid() != test_process:  # a worker that went on as the parent
        real_exit(1)


# The pipe that a fork needs, or the fork, fails as it would with no file
# descriptor, or no process, to spare.
FAILING_FORK = {"fork": errno.EAGAIN, "pipe": errno.EMFILE}


def failing_call(name, calls):
    """A stand-in for os.`name` that fails with its FAILING_FORK errno; each
    call appends `name` to `calls`."""
    def failing(*args):
        calls.append(name)
        raise OSError(FAILING_FORK[name], os.strerror(FAILING_FORK[name]))

    return failing


def full_disk(size):
    """From here on, a write past `size` bytes into any file fails with EFBIG,
    as on a full disk; the signal that would kill the process is ignored.
    Pipes have no limit."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (size, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


def tree(root):
    """Each path under root: a symlink's target, a directory's None or a file's bytes."""
    return {p.relative_to(root).as_posix(): os.readlink(p) if p.is_symlink()
            else None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def redirected_run(argv, redirect, cwd):
    """hazardrisk argv in a fresh interpreter after the shell redirection
    `redirect`, stdout buffered as Python's default whatever the caller's
    PYTHONUNBUFFERED: "1>&-" closes stdout, so that Python starts with
    sys.stdout None; "2</dev/null" leaves stderr open on a descriptor that
    refuses writes (EBADF), as Python may find a closed one reused."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m hazardrisk.cli "$@" {redirect}', sys.executable, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# As this module found them: the cpus fixture counts the one and forbids the
# other in the test process.
_fork, _exit = os.fork, os._exit


@dataclass
class Run:
    code: int  # main's return value, or minus the signal that ended the process
    out: str  # what reached the stdout and stderr that run_forked gave the command
    err: str
    forks: int | None  # os.fork calls the command made; None if its process was killed
    pid: int


def run_forked(argv, setup=None) -> Run:
    """main(argv) in a fork of this process, after setup() there: a fault
    applied there changes nothing in this one. The command's stdout and
    stderr are files, line-buffered as stderr is, unless setup() puts other
    streams in their place; a traceback out of main goes to the stderr file.
    The fork checks that the command leaves no child process; if one is left,
    it exits 70. It ends as the interpreter would: stdout and stderr flushed,
    and exit 120 if that flush fails."""
    with (tempfile.TemporaryFile("w+", buffering=1) as out,
          tempfile.TemporaryFile("w+", buffering=1) as err,
          tempfile.TemporaryFile("w+") as result):
        pid = _fork()
        if pid == 0:
            code = 70
            try:
                forks, fork = [], os.fork
                os.fork = lambda: forks.append(1) or fork()
                sys.stdout, sys.stderr = out, err
                signal.signal(signal.SIGINT, signal.default_int_handler)
                if setup:
                    setup()
                status = hazardrisk.cli.main(argv)
                with suppress(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)
                    status = 70
                code = status
                result.write(json.dumps(len(forks)))
                result.flush()
            except BaseException:
                traceback.print_exc(file=err)
            finally:
                # As Python flushes them when it exits: a flush that fails there exits 120.
                for stream in (sys.stdout, sys.stderr):
                    try:
                        if stream is not None and not stream.closed:
                            stream.flush()
                    except OSError:
                        code = 120
                _exit(code)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        texts = []
        for stream in (out, err, result):
            stream.seek(0)
            texts.append(stream.read())
    out, err, forks = texts
    return Run(code, out, err, json.loads(forks) if forks else None, pid)


def at_second_block(action, in_worker=False):
    """A run_forked setup that runs action() as the command's process, or its
    worker, formats the second block it makes: once output has begun."""
    def setup():
        parent, calls, assessed_text = os.getpid(), [], hazardrisk.cli.assessed_text

        def formatting(*args):
            calls.append(1)
            if len(calls) == 2 and (os.getpid() != parent) == in_worker:
                action()
            return assessed_text(*args)

        hazardrisk.cli.assessed_text = formatting

    return setup


def kill(signum):
    return lambda: os.kill(os.getpid(), signum)
