"""Independent re-computation of every row the program scores.

Nothing here imports hazardrisk. The band tables, crash rates, thresholds and
formulas are restated from the paper, so a defect in the program cannot hide
in a helper the check shares with it. The arithmetic keeps the program's
operation order, so expected floats are bit-identical and expected CSV rows
can be compared as strings.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict

import numpy as np

# (label, lower, upper, crash rate per 10^6 VMT), ascending.
FRICTION = (
    ("Icy", 0.05, 0.15, 9.00),
    ("Snow", 0.20, 0.30, 5.50),
    ("Wet", 0.40, 0.60, 3.75),
    ("Dry", 0.70, 0.90, 1.90),
)
# Literature visibility bands: they carry the crash rates.
VISIBILITY = (
    ("Very Dense Fog", 33.0, 164.0, 18.70),
    ("Dense Fog", 164.0, 328.0, 4.95),
    ("Rain/Snow", 328.0, 656.0, 1.85),
    ("Clear", 1640.0, 6562.0, 0.685),
)
# Sensor-aligned visibility bands: they classify readings and bound the
# sampler. Probability attaches to them through the shared labels.
SENSOR_VISIBILITY = (
    ("Very Dense Fog", 33.0, 164.0),
    ("Dense Fog", 164.0, 1000.0),
    ("Rain/Snow", 1000.0, 4000.0),
    ("Clear", 4000.0, 6500.0),
)
PROBABILITY_EDGES = (0.010, 0.020, 0.050, 0.100)  # bins closed on the right
SEVERITY_EDGES = (6.67, 20.0, 100.0 / 3.0, 200.0 / 3.0)  # bins closed on the left
LEVELS = ("Low", "Low-Medium", "Medium", "High", "Extreme")  # 5 scores each
SPEED_SCALE = 15.0 / 22.0
SIGMA_RULE = 6.0

FRICTION_LABELS = tuple(band[0] for band in FRICTION)
VISIBILITY_LABELS = tuple(band[0] for band in SENSOR_VISIBILITY)

SAMPLES_HEADER = (
    "scenario_id,friction_label,visibility_label,mu,sight_ft,joint_prob,prob_score,"
    "v_fhwa_mph,v_scaled_mph,v_advisory_mph,reduction_pct,severity_score,risk_score,"
    "risk_level"
)
REPLAY_HEADER = "timestamp" + SAMPLES_HEADER[len("scenario_id"):]


def _cuts(bands) -> np.ndarray:
    # A gap between bands splits at its midpoint; a value on a cut belongs
    # to the upper band; values past the outer bands go to the outer band.
    return np.array([(lo[2] + hi[1]) / 2.0 for lo, hi in zip(bands, bands[1:])])


FRICTION_CUTS = _cuts(FRICTION)
VISIBILITY_CUTS = _cuts(SENSOR_VISIBILITY)


def _probability_table() -> tuple[np.ndarray, np.ndarray]:
    """Normalized joint probability and its 1-5 score, indexed
    [friction band, sensor visibility band]."""
    f_total = sum(band[3] for band in FRICTION)
    v_total = sum(band[3] for band in VISIBILITY)
    p_f = [band[3] / f_total for band in FRICTION]
    p_v = {band[0]: band[3] / v_total for band in VISIBILITY}
    raw = [[pf * p_v[label] for label in p_v] for pf in p_f]
    total = sum(x for row in raw for x in row)
    column = [list(p_v).index(label) for label in VISIBILITY_LABELS]
    joint = np.array([[row[c] / total for c in column] for row in raw])
    return joint, np.searchsorted(PROBABILITY_EDGES, joint, side="left") + 1


JOINT, PROBABILITY_SCORE = _probability_table()


def score(mu, sight, grade, design) -> dict[str, np.ndarray]:
    """Every scored field for arrays of valid readings."""
    f = np.searchsorted(FRICTION_CUTS, mu, side="right")
    v = np.searchsorted(VISIBILITY_CUTS, sight, side="right")
    mg = mu + grade
    v_fhwa = np.maximum((-3.67 + np.sqrt(13.47 + 0.12 * sight / mg)) / (0.06 / mg), 0.0)
    v_scaled = SPEED_SCALE * v_fhwa
    v_advisory = np.minimum(design, v_scaled)
    reduction = np.minimum(100.0, np.maximum(0.0, 100.0 * (design - v_advisory) / design))
    p_score = PROBABILITY_SCORE[f, v]
    s_score = np.searchsorted(SEVERITY_EDGES, reduction, side="right") + 1
    risk = p_score * s_score
    return {
        "friction": f,
        "visibility": v,
        "joint": JOINT[f, v],
        "prob_score": p_score,
        "v_fhwa": v_fhwa,
        "v_scaled": v_scaled,
        "v_advisory": v_advisory,
        "reduction": reduction,
        "severity_score": s_score,
        "risk": risk,
        "level": (risk - 1) // 5,
    }


def _g(values: np.ndarray) -> list[str]:
    return [format(x, ".6g") for x in values.tolist()]


def _labels(names, index: np.ndarray) -> list[str]:
    return [names[i] for i in index.tolist()]


def format_rows(first: list[str], mu, sight, s: dict[str, np.ndarray]) -> list[str]:
    """CSV lines as the program writes them: floats at 6 significant digits."""
    columns = (
        first,
        _labels(FRICTION_LABELS, s["friction"]),
        _labels(VISIBILITY_LABELS, s["visibility"]),
        _g(mu),
        _g(sight),
        _g(s["joint"]),
        [str(x) for x in s["prob_score"].tolist()],
        _g(s["v_fhwa"]),
        _g(s["v_scaled"]),
        _g(s["v_advisory"]),
        _g(s["reduction"]),
        [str(x) for x in s["severity_score"].tolist()],
        [str(x) for x in s["risk"].tolist()],
        _labels(LEVELS, s["level"]),
    )
    return [",".join(fields) for fields in zip(*columns)]


def _truncated_normal(rng, n: int, lower: float, upper: float) -> np.ndarray:
    """The first n draws of N(mid, range/6) that land in [lower, upper], taken
    from rng exactly as n scalar rejection draws would take them."""
    mean, sigma = (lower + upper) / 2.0, (upper - lower) / SIGMA_RULE
    state = rng.bit_generator.state
    size = n + n // 16 + 64
    while True:
        x = rng.normal(mean, sigma, size)
        kept = np.flatnonzero((x >= lower) & (x <= upper))
        rng.bit_generator.state = state
        if len(kept) >= n:
            break
        size *= 2
    rng.normal(mean, sigma, kept[n - 1] + 1)  # consume exactly the used draws
    return x[kept[:n]]


def sample(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scenario_id, mu, sight) in the order simulate writes samples.csv:
    friction best grip first, visibility clearest first, friction-major, each
    scenario on its own (seed, scenario_id) stream, n frictions then n sights."""
    sensor = {band[0]: band for band in SENSOR_VISIBILITY}
    ids, mus, sights = [], [], []
    for fband in reversed(FRICTION):
        for vband in reversed(VISIBILITY):
            sid = len(ids) + 1
            rng = np.random.default_rng([seed, sid])
            ids.append(sid)
            mus.append(_truncated_normal(rng, n, fband[1], fband[2]))
            sband = sensor[vband[0]]
            sights.append(_truncated_normal(rng, n, sband[1], sband[2]))
    return np.repeat(ids, n), np.concatenate(mus), np.concatenate(sights)


def simulate_expected(seed: int, n: int, grade: float = 0.0, design: float = 75.0):
    """Expected samples.csv data lines and scenario_stats.csv checked fields."""
    sid, mu, sight = sample(seed, n)
    s = score(mu, sight, grade, design)
    lines = format_rows([str(x) for x in sid.tolist()], mu, sight, s)
    stats = []
    names = [(f[0], v[0]) for f in reversed(FRICTION) for v in reversed(VISIBILITY)]
    for k, (flabel, vlabel) in enumerate(names, start=1):
        scores = s["risk"][sid == k].astype(float)
        mean, std = float(scores.mean()), float(scores.std())
        fields = [k, flabel, vlabel, mean, std, max(1.0, mean - 3 * std),
                  min(25.0, mean + 3 * std), int(scores.min()), int(scores.max())]
        stats.append((mean, k, [format(x, ".6g") if isinstance(x, float) else str(x)
                                for x in fields]))
    stats.sort(key=lambda entry: entry[:2])
    return lines, [fields for _, _, fields in stats]


def replay_expected(log) -> list[str]:
    """Expected replay output data lines: exactly the valid rows, in order."""
    keep = log.valid
    mu, sight = log.mu[keep], log.sight[keep]
    s = score(mu, sight, log.grade[keep], log.design[keep])
    stamps = [t for t, ok in zip(log.timestamps, keep.tolist()) if ok]
    return format_rows(stamps, mu, sight, s)


def count_failures(expected: list[str], actual: list[str], key_fields: tuple[int, ...]) -> int:
    """Readings whose row is wrong, missing, or present when it should not be.

    Rows are matched on key_fields, so a dropped or extra row costs one
    failure rather than shifting every row after it.
    """
    if expected == actual:
        return 0

    def by_key(lines):
        groups = defaultdict(list)
        for line in lines:
            fields = line.split(",")
            groups[tuple(fields[i] for i in key_fields if i < len(fields))].append(line)
        return groups

    want, got = by_key(expected), by_key(actual)
    failed = 0
    for key in want.keys() | got.keys():
        a, b = want.get(key, []), got.get(key, [])
        matched = sum((Counter(a) & Counter(b)).values())
        failed += max(len(a), len(b)) - matched
    return failed


def check_stats(expected: list[list[str]], path, n: int) -> int:
    """Readings of every scenario whose scenario_stats.csv row is wrong;
    the practicality text is not checked."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    failed = 0
    for i, want in enumerate(expected):
        got = rows[i] if i < len(rows) else []
        if got[:3] + got[4:] != want:
            failed += n
    return failed


def assess_expected(readings: np.ndarray) -> np.ndarray:
    """Expected assess_single result matrix, one row per call, columns as
    the workload process records them (see ASSESS_COLUMNS in worker.py)."""
    mu, sight, grade, design = readings.T
    s = score(mu, sight, grade, design)
    return np.column_stack([
        s["friction"], s["visibility"], s["joint"], s["prob_score"], s["v_fhwa"],
        s["v_scaled"], s["v_advisory"], s["reduction"], s["severity_score"], s["risk"],
        s["level"],
    ]).astype(float)


def check_assess(expected: np.ndarray, actual: np.ndarray) -> int:
    """Calls whose result differs: scores, labels and levels exactly, speeds
    and probabilities within a few ulps."""
    if actual.shape != expected.shape:
        return len(expected)
    ok = np.isclose(actual, expected, rtol=1e-12, atol=0.0).all(axis=1)
    return int(len(ok) - ok.sum())
