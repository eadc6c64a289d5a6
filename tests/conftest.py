import importlib.util
import os
from pathlib import Path

import pytest

import hazardrisk.cli
from hazardrisk import default_catalog, joint_probability, normalize_marginals


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
    """The default catalog as crash-rate CSV text, in load_catalog's schema."""
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
