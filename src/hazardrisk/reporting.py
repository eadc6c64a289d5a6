"""CSV/JSON report emission for the case-study pipeline.

All files are UTF-8 with LF line endings and `.` decimal separators; floats
are written with 6 significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, TextIO

from .bands import BandCatalog, Dimension, HazardBand
from .probability import JointProbabilityTable, MarginalDistribution
from .risk import Assessment, risk_matrix
from .sampler import ScenarioStats

SAMPLES_COLUMNS = [
    "scenario_id",
    "friction_label",
    "visibility_label",
    "mu",
    "sight_ft",
    "joint_prob",
    "prob_score",
    "v_fhwa_mph",
    "v_scaled_mph",
    "v_advisory_mph",
    "reduction_pct",
    "severity_score",
    "risk_score",
    "risk_level",
]

REPLAY_COLUMNS = ["timestamp"] + SAMPLES_COLUMNS[1:]

HEATMAP_COLUMNS = ["severity_score"] + [f"prob_{p}" for p in range(1, 6)]


def write_rows(stream: TextIO, header: list[str], rows: Iterable[list]) -> int:
    """Write a header and rows as LF-terminated CSV to an open text stream,
    floats at 6 significant digits; returns the number of data rows."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    count = 0
    for row in rows:
        writer.writerow([format(v, ".6g") if isinstance(v, float) else v for v in row])
        count += 1
    return count


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        return write_rows(fh, header, rows)


def assessment_row(assessment: Assessment) -> list:
    p = assessment.speed_profile
    return [
        assessment.friction_label,
        assessment.visibility_label,
        assessment.reading.mu,
        assessment.reading.sight_distance,
        assessment.joint_probability,
        assessment.probability_score,
        p.v_fhwa,
        p.v_scaled,
        p.v_advisory,
        p.reduction_pct,
        assessment.severity_score,
        assessment.risk_score,
        assessment.risk_level.value,
    ]


def assessment_record(assessment: Assessment) -> dict:
    """JSON-friendly view of one assessment: the row's fields, with the
    reading's grade and design speed after its sight distance."""
    names, values = REPLAY_COLUMNS[1:], assessment_row(assessment)
    return {
        **dict(zip(names[:4], values[:4])),
        "grade": assessment.reading.grade,
        "design_speed_mph": assessment.reading.design_speed,
        **dict(zip(names[4:], values[4:])),
    }


def write_samples(path: Path, rows: Iterable[tuple[int, Assessment]]) -> int:
    return _write_csv(
        path,
        SAMPLES_COLUMNS,
        ([scenario_id] + assessment_row(a) for scenario_id, a in rows),
    )


def write_scenario_stats(path: Path, stats: list[ScenarioStats]) -> int:
    header = [
        "scenario_id",
        "friction_label",
        "visibility_label",
        "practicality",
        "mean_risk",
        "std_risk",
        "lower_3sigma",
        "upper_3sigma",
        "min_risk",
        "max_risk",
    ]
    rows = (
        [
            s.scenario.scenario_id,
            s.scenario.friction_band.label,
            s.scenario.visibility_band.label,
            s.scenario.practicality,
            s.mean,
            s.std,
            s.lower_3sigma,
            s.upper_3sigma,
            s.min,
            s.max,
        ]
        for s in stats
    )
    return _write_csv(path, header, rows)


def heatmap_rows() -> list[list[int]]:
    """Risk-score rows of the 5x5 matrix, severity 1..5 by probability 1..5."""
    return [[s] + [score for score, _ in row] for s, row in enumerate(risk_matrix(), 1)]


def write_heatmap(path: Path) -> int:
    return _write_csv(path, HEATMAP_COLUMNS, heatmap_rows())


def write_marginals(
    path: Path,
    catalog: BandCatalog,
    p_f: MarginalDistribution,
    p_v: MarginalDistribution,
) -> int:
    rows = (
        [band.dimension.value, band.label, band.lower, band.upper, band.crash_rate, p]
        for bands, dist in [(catalog.friction_bands, p_f), (catalog.visibility_bands, p_v)]
        for band, (_, p) in zip(bands, dist.probs)
    )
    header = ["dimension", "label", "lower", "upper", "crash_rate", "probability"]
    return _write_csv(path, header, rows)


def write_joint(path: Path, table: JointProbabilityTable) -> int:
    header = [
        "friction_label",
        "visibility_label",
        "raw_joint",
        "normalized_joint",
        "probability_score",
    ]
    rows = (
        [e.friction_label, e.visibility_label, e.raw_joint, e.normalized_joint, e.probability_score]
        for e in table.entries
    )
    return _write_csv(path, header, rows)


def write_manifest(
    path: Path,
    command: str,
    version: str,
    config: dict,
    outputs: dict[str, int],
) -> None:
    manifest = {
        "command": command,
        "version": version,
        "config": config,
        "outputs": [
            {"path": name, "rows": rows} for name, rows in sorted(outputs.items())
        ],
    }
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
