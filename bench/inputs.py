"""Seeded inputs for the replay_160k and assess_single workloads.

The same seed always gives the same bytes. Non-finite readings (NaN, inf)
are left out on purpose: the program still scores them, which is a known
defect, and every such row would count as a failure against a correct
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REPLAY_HEADER = "timestamp,mu,sight_ft,grade,design_speed"
GRADES = (-0.06, -0.04, -0.02, 0.0, 0.0, 0.02, 0.04, 0.06)
# A blank design_speed cell means the command's default, 75 mph.
DESIGN_SPEEDS = (("25", 25.0), ("35", 35.0), ("45", 45.0), ("55", 55.0),
                 ("65", 65.0), ("75", 75.0), ("", 75.0))
# Band edges and cuts, so the tie rule at every boundary is exercised.
MU_EDGES = (0.05, 0.15, 0.175, 0.2, 0.3, 0.35, 0.4, 0.6, 0.65, 0.7, 0.9, 1.0)
SIGHT_EDGES = (0.0, 33.0, 164.0, 328.0, 656.0, 1000.0, 1640.0, 4000.0, 6500.0, 6562.0)
EDGE_SHARE = 0.02
# Fields float() cannot parse; "nan" and "inf" would parse, so they are absent.
BAD_TOKENS = ("n/a", "abc", "0.3.1", "1e", "--", "0x1p-2")
INVALID_SHARE = 0.015


@dataclass(frozen=True)
class ReplayLog:
    text: str
    timestamps: list[str]
    mu: np.ndarray
    sight: np.ndarray
    grade: np.ndarray
    design: np.ndarray
    valid: np.ndarray  # False where the documented domain rejects the row


def _readings(rng: np.random.Generator, n: int, grades) -> tuple[np.ndarray, ...]:
    """Readings over the whole sensor envelope, gaps between bands and values
    beyond the outer bands included; mu + grade > 0 always holds."""
    mu = 1.0 - rng.random(n)  # (0, 1]
    sight = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1000.0, n),
                     rng.uniform(0.0, 7000.0, n))
    at_edge = rng.random(n) < EDGE_SHARE
    mu[at_edge] = rng.choice(MU_EDGES, at_edge.sum())
    at_edge = rng.random(n) < EDGE_SHARE
    sight[at_edge] = rng.choice(SIGHT_EDGES, at_edge.sum())
    grade = grades(n)
    grade = np.where(mu + grade > 0, grade, -grade)
    return mu, sight, grade


def _timestamp(i: int) -> str:
    day, rest = divmod(i, 86400)
    hour, rest = divmod(rest, 3600)
    return f"2026-01-{day + 1:02d}T{hour:02d}:{rest // 60:02d}:{rest % 60:02d}Z"


def replay_log(seed: int, rows: int) -> ReplayLog:
    """A sensor log with mixed grade and design-speed columns and about 1.5%
    rows the domain rejects: an unparseable field, mu outside (0, 1], a
    negative sight distance, or mu + grade <= 0."""
    rng = np.random.default_rng(seed)
    mu, sight, grade = _readings(rng, rows, lambda n: rng.choice(GRADES, n))
    speed = rng.integers(0, len(DESIGN_SPEEDS), rows)
    design = np.array([DESIGN_SPEEDS[k][1] for k in speed.tolist()])
    cells = [
        [repr(x) for x in mu.tolist()],
        [repr(x) for x in sight.tolist()],
        [repr(x) for x in grade.tolist()],
        [DESIGN_SPEEDS[k][0] for k in speed.tolist()],
    ]
    valid = rng.random(rows) >= INVALID_SHARE
    for i in np.flatnonzero(~valid).tolist():
        kind = int(rng.integers(0, 4))
        if kind == 0:
            column = int(rng.integers(0, 4))
            cells[column][i] = BAD_TOKENS[int(rng.integers(0, len(BAD_TOKENS)))]
        elif kind == 1:
            cells[0][i] = repr(float(rng.choice((0.0, -0.25, 1.0000001, 1.5, 3.0))))
        elif kind == 2:
            cells[1][i] = repr(-float(rng.uniform(0.5, 500.0)))
        else:
            low_mu = float(rng.uniform(0.001, 0.05))
            cells[0][i] = repr(low_mu)
            cells[2][i] = repr(-low_mu - float(rng.choice((0.0, 0.01))))
    timestamps = [_timestamp(i) for i in range(rows)]
    lines = [REPLAY_HEADER]
    lines.extend(",".join(row) for row in zip(timestamps, *cells))
    return ReplayLog("\n".join(lines) + "\n", timestamps, mu, sight, grade, design, valid)


def assess_readings(seed: int, calls: int) -> np.ndarray:
    """(calls, 4) array of distinct full-precision readings:
    mu, sight_distance, grade, design_speed."""
    rng = np.random.default_rng(seed)
    mu, sight, grade = _readings(rng, calls, lambda n: rng.uniform(-0.08, 0.08, n))
    design = rng.uniform(25.0, 80.0, calls)
    return np.column_stack([mu, sight, grade, design])
