"""The engine against bench/reference.py, an independent restatement of the
paper: the same CSV lines for every reading drawn, from the batch functions,
from `simulate` and from `replay`."""

import csv
import io
import math
import shutil
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hazardrisk.cli
from conftest import reference
from hazardrisk import EnvironmentReading, assess_columns
from hazardrisk.cli import main
from hazardrisk.reporting import SAMPLES_COLUMNS, assessed_text


def _edges(bands, cuts):
    """Every band bound and cut, with the floats next to it on both sides."""
    points = {x for band in bands for x in band[1:3]} | set(cuts.tolist())
    return sorted({y for x in points for y in (math.nextafter(x, -math.inf), x,
                                               math.nextafter(x, math.inf))})


# Uniform draws also land in the gaps between friction bands and past the
# outer bands, which classify by the nearest cut.
MU = st.one_of(st.sampled_from(_edges(reference.FRICTION, reference.FRICTION_CUTS)),
               st.floats(0.0, 1.0, exclude_min=True))
SIGHT = st.one_of(st.sampled_from(_edges(reference.SENSOR_VISIBILITY, reference.VISIBILITY_CUTS)),
                  st.floats(0.0, 6562.0), st.floats(0.0, 1e300))
GRADE = st.one_of(st.just(0.0), st.floats(-0.1, 0.1))
DESIGN = st.one_of(st.sampled_from([25.0, 45.0, 55.0, 65.0, 75.0]), st.floats(1.0, 200.0))


@st.composite
def readings(draw):
    """(mu, sight, grade, design speed) of a valid reading. A quarter of the
    sights sit just below where 0.12 * sight / (mu + grade), inside the safe
    speed, overflows. Past that point the program switches to a fallback form
    of the safe speed, which the reference does not restate."""
    mu, grade, design = draw(MU), draw(GRADE), draw(DESIGN)
    assume(mu + grade > 0)
    if draw(st.integers(0, 3)):
        sight = draw(SIGHT)
    else:
        sight = min(draw(st.floats(0.5, 0.999)) * (mu + grade) / 0.12, 1.0) * sys.float_info.max
    assume(math.isfinite(0.12 * sight / (mu + grade)))
    EnvironmentReading(mu, sight, grade, design)  # raises on a reading outside the domain
    return mu, sight, grade, design


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(readings(), min_size=1, max_size=40))
def test_assessed_rows_are_the_reference_rows(catalog, joint_table, rows):
    mu, sight, grade, design = map(np.array, zip(*rows))
    with np.errstate(over="ignore"):  # 0.06 / mg for a subnormal mg: a safe speed of 0
        expected = reference.score(mu, sight, grade, design)
    keys = np.arange(len(mu))
    text = assessed_text(keys, assess_columns(mu, sight, grade, design, catalog, joint_table))
    lines = reference.format_rows([str(k) for k in keys.tolist()], mu, sight, expected)
    assert ",".join(SAMPLES_COLUMNS) == reference.SAMPLES_HEADER
    assert text == "\n".join(lines) + "\n"


# Blocks of 1-4 rows on 1-3 processes: scenarios span several blocks, and
# the blocks go round-robin over the parent and its workers.
BLOCK_ROWS = st.integers(1, 4)
PROCESSES = st.integers(1, 3)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 30), grade=st.floats(-0.2, 0.2),
       design=st.floats(25.0, 80.0), block_rows=BLOCK_ROWS, processes=PROCESSES)
def test_simulate_writes_the_reference_rows(tmp_path, monkeypatch, cpus, seed, n, grade, design,
                                            block_rows, processes):
    monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(hazardrisk.cli, "PROCESSES", 3)
    forks = cpus(processes)
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    rc = main(["simulate", "--seed", str(seed), "--samples", str(n), "--grade", repr(grade),
               "--design-speed", repr(design), "--out", str(out)])
    # 16 scenarios make more than one block: a run forks once a scenario
    # fills a block, so that this check cannot quietly go serial.
    assert len(forks) == (processes - 1 if n >= block_rows else 0)
    if (reference.sample(seed, n)[1] + grade <= 0).any():
        # Every draw is checked before the output directory is made.
        assert (rc, out.exists()) == (64, False)
        return
    assert rc == 0
    lines, stats = reference.simulate_expected(seed, n, grade, design)
    samples = (out / "samples.csv").read_text()
    assert samples == "\n".join([reference.SAMPLES_HEADER, *lines]) + "\n"
    with open(out / "scenario_stats.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # The practicality text, field 3, is not restated by the reference.
    assert [row[:3] + row[4:] for row in rows] == stats


LOG_HEADER = ["timestamp", "mu", "sight_ft", "grade", "design_speed"]
# Valid cells; a blank grade or design_speed cell takes the default. mu and
# mu + grade stay away from 0, where the safe speed would overflow into the
# fallback form the reference does not restate.
MU_CELLS = st.one_of(st.sampled_from([0.05, 0.15, 0.175, 0.2, 0.3, 0.35, 0.4, 0.6, 0.7, 1.0]),
                     st.floats(1e-3, 1.0)).map(repr)
SIGHT_CELLS = st.one_of(st.sampled_from([0.0, 33.0, 164.0, 1000.0, 4000.0, 6500.0]),
                        st.floats(0.0, 7000.0)).map(repr)
GRADE_CELLS = st.one_of(st.just(""), st.floats(-0.1, 0.1).map(repr))
DESIGN_CELLS = st.one_of(st.just(""), st.floats(1.0, 200.0).map(repr))
# Cells that replace one of a row's readings: blanks, text float() rejects,
# non-finite and overflowing numbers, and numbers outside some column's domain.
BAD_CELLS = st.sampled_from(["", "", "abc", "n/a", "1e", "0x1p-2", "nan", "-inf", "inf",
                             "1e400", "0", "-0.25", "1.5", "1.0000001", "-1"])
# One physical line, a quoted field over two lines, a comma and a quote.
STAMPS = st.sampled_from(["t{}", "t{}\nnext line", 't{}, "quoted"'])


@st.composite
def _log_entries(draw):
    """A replay log as a list of entries: None for a blank line, else the
    row's cells, some replaced by BAD_CELLS, some rows short or long."""
    entries = []
    for i in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 9)) == 0:
            entries.append(None)
            continue
        cells = [draw(STAMPS).format(i), draw(MU_CELLS), draw(SIGHT_CELLS), draw(GRADE_CELLS),
                 draw(DESIGN_CELLS)]
        for column, cell in draw(st.lists(st.tuples(st.integers(1, 4), BAD_CELLS), max_size=2)):
            cells[column] = cell
        width = draw(st.sampled_from([5] * 8 + [3, 4, 6]))
        entries.append((cells + ["extra"])[:width])
    return entries


def _read(cells, design_flag):
    """(mu, sight, grade, design) as a log row states them, or the message of
    float() for the first reading cell it rejects. A blank grade is 0 and a
    blank design_speed the flag; a blank mu or sight_ft is not a number."""
    values = []
    for text, default in zip(cells[1:], ("", "", 0.0, design_flag)):
        try:
            values.append(float(text or default))
        except ValueError as exc:
            return str(exc)
    return values


def _in_domain(mu, sight, grade, design):
    return (0 < mu <= 1 and math.isfinite(sight) and sight >= 0 and math.isfinite(grade)
            and math.isfinite(design) and design > 0 and mu + grade > 0)


def _csv_field(text):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


# A numpy warning would reach stderr as an extra line: make it an error.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=_log_entries(), design_flag=st.sampled_from([75.0, 30.0]),
       block_rows=BLOCK_ROWS, processes=PROCESSES)
def test_replay_writes_the_reference_rows(tmp_path, capsys, monkeypatch, cpus, entries,
                                          design_flag, block_rows, processes):
    monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(hazardrisk.cli, "PROCESSES", 3)
    forks = cpus(processes)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LOG_HEADER)
    stamps, readings, valid, warned = [], [], [], []
    line = 2
    for cells in entries:
        writer.writerow(cells or [])
        if cells is None:  # a blank line: skipped without a warning
            line += 1
            continue
        values = _read(cells, design_flag) if len(cells) == len(LOG_HEADER) else "width"
        if isinstance(values, list):
            stamps.append(_csv_field(cells[0]))
            readings.append(values)
            valid.append(_in_domain(*values))
        if not (isinstance(values, list) and valid[-1]):
            # Only float()'s own message is known here; the domain and width
            # messages are the program's.
            warned.append((line, None if isinstance(values, list) or values == "width" else values))
        line += 1 + cells[0].count("\n")
    src = tmp_path / "log.csv"
    src.write_text(buf.getvalue())
    rc = main(["replay", "--input", str(src), "--design-speed", repr(design_flag)])
    captured = capsys.readouterr()
    # Every entry, blank lines included, is a record: a log of more than one
    # block forks, so that this check cannot quietly go serial.
    assert len(forks) == (processes - 1 if len(entries) > block_rows else 0)
    warnings = captured.err.splitlines()
    if any(valid):
        assert rc == 0
        mu, sight, grade, design = np.array(readings).T
        log = SimpleNamespace(timestamps=stamps, mu=mu, sight=sight, grade=grade, design=design,
                              valid=np.array(valid))
        expected = reference.replay_expected(log)
        assert captured.out == "\n".join([reference.REPLAY_HEADER, *expected]) + "\n"
    else:
        assert (rc, captured.out, warnings.pop()) == (65, "", "error: no valid rows in input")
    assert len(warnings) == len(warned)
    for text, (start, reason) in zip(warnings, warned):
        assert text.startswith(f"warning: line {start}: skipped (")
        assert reason is None or text == f"warning: line {start}: skipped ({reason})"
