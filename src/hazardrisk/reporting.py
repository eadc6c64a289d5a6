"""CSV/JSON report text for the case-study pipeline; `cli` opens the files.

All text has LF line endings and `.` decimal separators; floats are written
with 6 significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, TextIO

from .bands import BandCatalog
from .probability import JointEntry, JointProbabilityTable, MarginalDistribution
from .risk import Assessment, risk_matrix

if TYPE_CHECKING:
    from .sampler import ScenarioStats

# The assessment and scenario-stats tables are each declared once, as output
# name -> dotted attribute of the record it reads, in output order; the header
# and the row getter both come from that one map. The samples and replay
# tables read the same paths as columns of assess_columns.
ASSESSMENT_FIELDS = {
    "friction_label": "friction_label",
    "visibility_label": "visibility_label",
    "mu": "reading.mu",
    "sight_ft": "reading.sight_distance",
    "grade": "reading.grade",
    "design_speed_mph": "reading.design_speed",
    "joint_prob": "joint_probability",
    "prob_score": "probability_score",
    "v_fhwa_mph": "speed_profile.v_fhwa",
    "v_scaled_mph": "speed_profile.v_scaled",
    "v_advisory_mph": "speed_profile.v_advisory",
    "reduction_pct": "speed_profile.reduction_pct",
    "severity_score": "severity_score",
    "risk_score": "risk_score",
    "risk_level": "risk_level.value",
}

# The CSV tables leave out the reading's grade and design speed, which the
# JSON record of `assess` carries.
ASSESSMENT_COLUMNS = [n for n in ASSESSMENT_FIELDS if n not in ("grade", "design_speed_mph")]
SAMPLES_COLUMNS = ["scenario_id", *ASSESSMENT_COLUMNS]
REPLAY_COLUMNS = ["timestamp", *ASSESSMENT_COLUMNS]

_assessment_values = attrgetter(*ASSESSMENT_FIELDS.values())

SCENARIO_STATS_FIELDS = {
    "scenario_id": "scenario.scenario_id",
    "friction_label": "scenario.friction_band.label",
    "visibility_label": "scenario.visibility_band.label",
    "practicality": "scenario.practicality",
    "mean_risk": "mean",
    "std_risk": "std",
    "lower_3sigma": "lower_3sigma",
    "upper_3sigma": "upper_3sigma",
    "min_risk": "min",
    "max_risk": "max",
}

# A joint entry's field names are its CSV header.
JOINT_COLUMNS = list(JointEntry.__match_args__)

HEATMAP_COLUMNS = ["severity_score"] + [f"prob_{p}" for p in range(1, 6)]


# Every table is written through one % template per chunk of columns, chosen
# by format kind (a numpy dtype kind): floats at 6 significant digits,
# integers in full, text as the csv module quotes it.
_CELL_FORMATS = {"f": "%.6g", "i": "%d", "O": "%s"}
# Every character that can make the csv module quote a field.
_QUOTE_TRIGGERS = ',"\r\n'


def _csv_field(text: str) -> str:
    """A text field exactly as csv.writer writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(("", text))
    return buf.getvalue()[1:-1]


def columns_text(columns: list[list], kinds: list[str]) -> str:
    """CSV text of rows given as equal-length lists of cells, with the format
    kind of each list."""
    template = ",".join(_CELL_FORMATS[kind] for kind in kinds) + "\n"
    cells = list(columns)
    for i, kind in enumerate(kinds):
        text = "".join(cells[i]) if kind == "O" else ""
        if any(c in text for c in _QUOTE_TRIGGERS):
            cells[i] = list(map(_csv_field, cells[i]))
    return "".join(map(template.__mod__, zip(*cells)))


def write_rows(stream: TextIO, header: list[str], rows: Iterable) -> int:
    """Write a header and rows of floats, ints and strings as LF-terminated
    CSV to an open text stream; returns the number of data rows. A column is
    written as np.array would type it: text if its first cell is a str, else
    float if any cell is one, else int."""
    stream.write(",".join(header) + "\n")
    columns = list(zip(*rows))
    if not columns:
        return 0
    kinds = ["O" if isinstance(c[0], str) else "f" if any(isinstance(x, float) for x in c)
             else "i" for c in columns]
    stream.write(columns_text(columns, kinds))
    return len(columns[0])


def assessed_text(keys, columns: dict) -> str:
    """One block of the samples or replay table as CSV text: the key column,
    then the ASSESSMENT_COLUMNS of an assess_columns result."""
    block = [keys, *(columns[ASSESSMENT_FIELDS[name]] for name in ASSESSMENT_COLUMNS)]
    return columns_text([a.tolist() for a in block], [a.dtype.kind for a in block])


def assessment_record(assessment: Assessment) -> dict:
    """JSON-friendly view of one assessment: every field of ASSESSMENT_FIELDS."""
    return dict(zip(ASSESSMENT_FIELDS, _assessment_values(assessment)))


def scenario_stats_table(stats: list[ScenarioStats]) -> tuple[list[str], Iterable]:
    """The header and rows of a table, for write_rows; likewise below."""
    return list(SCENARIO_STATS_FIELDS), map(attrgetter(*SCENARIO_STATS_FIELDS.values()), stats)


def heatmap_rows() -> list[list[int]]:
    """Risk-score rows of the 5x5 matrix, severity 1..5 by probability 1..5."""
    return [[s] + [score for score, _ in row] for s, row in enumerate(risk_matrix(), 1)]


def marginals_table(catalog: BandCatalog, p_f: MarginalDistribution,
                    p_v: MarginalDistribution) -> tuple[list[str], Iterable]:
    rows = (
        [band.dimension.value, band.label, band.lower, band.upper, band.crash_rate, p]
        for bands, dist in [(catalog.friction_bands, p_f), (catalog.visibility_bands, p_v)]
        for band, (_, p) in zip(bands, dist.probs)
    )
    return ["dimension", "label", "lower", "upper", "crash_rate", "probability"], rows


def joint_table(table: JointProbabilityTable) -> tuple[list[str], Iterable]:
    return JOINT_COLUMNS, map(attrgetter(*JOINT_COLUMNS), table.entries)


def manifest_text(command: str, version: str, config: dict, outputs: dict[str, int]) -> str:
    manifest = {
        "command": command,
        "version": version,
        "config": config,
        "outputs": [{"path": name, "rows": rows} for name, rows in sorted(outputs.items())],
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"
