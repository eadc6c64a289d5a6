"""The batch engine against bench/reference.py, an independent restatement of
the paper: the same CSV lines for every reading drawn."""

import importlib.util
import io
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hazardrisk import EnvironmentReading, assess_columns
from hazardrisk.reporting import SAMPLES_COLUMNS, write_assessed


def _load_reference():
    # bench/reference.py restates the paper without importing hazardrisk.
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


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
    out = io.StringIO()
    write_assessed(out, SAMPLES_COLUMNS, [(keys, assess_columns(mu, sight, grade, design, catalog,
                                                                joint_table))])
    lines = reference.format_rows([str(k) for k in keys.tolist()], mu, sight, expected)
    assert out.getvalue() == "\n".join([reference.SAMPLES_HEADER, *lines]) + "\n"
