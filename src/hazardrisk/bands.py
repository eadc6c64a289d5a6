"""Hazard band catalog: friction and visibility bands, reading classification,
and the scenario grid.

Two visibility catalogs coexist: the literature bands that carry crash rates
(used for probability lookup) and the sensor-aligned bands that cover the
instrument's full 33-6562 ft envelope (used for classifying readings and for
sampling). The two share band labels and crash rates; the label is how
probability scores attach to classified readings.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np


class Dimension(str, Enum):
    FRICTION = "friction"
    VISIBILITY = "visibility"


@dataclass(frozen=True)
class HazardBand:
    """A labeled interval of friction coefficient or sight distance with its
    empirical crash rate (crashes per 10^6 vehicle miles traveled)."""

    dimension: Dimension
    label: str
    lower: float
    upper: float
    crash_rate: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(
                f"band {self.label!r}: lower ({self.lower}) must be < upper ({self.upper})"
            )
        if not 0 < self.crash_rate < math.inf:
            raise ValueError(f"band {self.label!r}: crash_rate must be finite and > 0")
        if self.dimension is Dimension.FRICTION and not (0 <= self.lower and self.upper <= 1):
            raise ValueError(f"band {self.label!r}: friction bounds must lie in [0, 1]")
        if self.dimension is Dimension.VISIBILITY and not (0 <= self.lower and self.upper <= 6562):
            raise ValueError(f"band {self.label!r}: visibility bounds must lie in [0, 6562] ft")

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0


@dataclass(frozen=True)
class EnvironmentReading:
    """One environment observation: friction coefficient, sight distance in
    feet, decimal road grade, and the roadway design speed in mph."""

    mu: float
    sight_distance: float
    grade: float = 0.0
    design_speed: float = 75.0

    def __post_init__(self):
        if not 0 < self.mu <= 1:
            raise ValueError(f"mu must be in (0, 1], got {self.mu}")
        for name in ("sight_distance", "grade", "design_speed"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sight_distance < 0:
            raise ValueError(f"sight_distance must be >= 0, got {self.sight_distance}")
        if self.mu + self.grade <= 0:
            raise ValueError(f"mu + grade must be > 0, got {self.mu + self.grade}")
        if self.design_speed <= 0:
            raise ValueError(f"design_speed must be > 0, got {self.design_speed}")


def valid_readings(mu, sight_distance, grade, design_speed) -> np.ndarray:
    """EnvironmentReading's domain over arrays: True where a reading is valid.
    A rejected row goes through EnvironmentReading for its message."""
    finite = np.isfinite(sight_distance) & np.isfinite(grade) & np.isfinite(design_speed)
    with np.errstate(all="ignore"):
        return finite & (0 < mu) & (mu <= 1) & (sight_distance >= 0) & (mu + grade > 0) & (
            design_speed > 0)


@dataclass(frozen=True)
class Scenario:
    """One friction-band x visibility-band pairing of the scenario grid."""

    scenario_id: int
    friction_band: HazardBand
    visibility_band: HazardBand
    practicality: str


def _check_bands(bands: tuple[HazardBand, ...], dimension: Dimension, name: str) -> None:
    if not bands:
        raise ValueError(f"{name}: expected at least one band")
    if len({band.label for band in bands}) != len(bands):
        raise ValueError(f"{name}: band labels must be unique")
    for band in bands:
        if band.dimension is not dimension:
            raise ValueError(f"{name}: band {band.label!r} has wrong dimension")
    for lo, hi in zip(bands, bands[1:]):
        if hi.lower < lo.upper:
            raise ValueError(f"{name}: bands {lo.label!r} and {hi.label!r} overlap or are unsorted")


@dataclass(frozen=True)
class BandCatalog:
    """Friction bands plus the two visibility band sets, each sorted ascending
    by lower bound. The two visibility sets carry the same labels and crash
    rates; the classification cuts are derived once, at construction."""

    friction_bands: tuple[HazardBand, ...]
    visibility_bands: tuple[HazardBand, ...]
    sampling_visibility_bands: tuple[HazardBand, ...]
    _friction_cuts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _visibility_cuts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # Friction and sensor-visibility labels in band order: a grid's layout.
    _labels: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_bands(self.friction_bands, Dimension.FRICTION, "friction_bands")
        _check_bands(self.visibility_bands, Dimension.VISIBILITY, "visibility_bands")
        sampling = self.sampling_visibility_bands
        _check_bands(sampling, Dimension.VISIBILITY, "sampling_visibility_bands")
        for lo, hi in zip(sampling, sampling[1:]):
            if hi.lower != lo.upper:
                raise ValueError(f"sampling_visibility_bands: gap between {lo.label!r} and {hi.label!r}")
        # Probability reads only the visibility rates: a differing sampling
        # rate would be a config value with no effect.
        if {b.label: b.crash_rate for b in sampling} != {
                b.label: b.crash_rate for b in self.visibility_bands}:
            raise ValueError("sampling_visibility_bands: labels and crash rates must match "
                             "visibility_bands one to one")
        object.__setattr__(self, "_friction_cuts", _band_cuts(self.friction_bands))
        object.__setattr__(self, "_visibility_cuts", _band_cuts(sampling))
        labels = tuple(tuple(b.label for b in bands) for bands in (self.friction_bands, sampling))
        object.__setattr__(self, "_labels", labels)

    def index(self, mu: float, sight: float) -> tuple[int, int]:
        """Indexes of a reading's friction band and sensor-visibility band."""
        return bisect_right(self._friction_cuts, mu), bisect_right(self._visibility_cuts, sight)


# Crash rates: friction by surface condition, visibility by range band
# (crashes per 10^6 VMT, transportation-safety literature values).
_DEFAULT_FRICTION = (
    ("Icy", 0.05, 0.15, 9.00),
    ("Snow", 0.20, 0.30, 5.50),
    ("Wet", 0.40, 0.60, 3.75),
    ("Dry", 0.70, 0.90, 1.90),
)
_DEFAULT_VISIBILITY = (
    ("Very Dense Fog", 33.0, 164.0, 18.70),
    ("Dense Fog", 164.0, 328.0, 4.95),
    ("Rain/Snow", 328.0, 656.0, 1.85),
    ("Clear", 1640.0, 6562.0, 0.685),
)
# Sensor-aligned bands covering the instrument envelope contiguously; each
# repeats the crash rate of the visibility band with its label.
_DEFAULT_SAMPLING_VISIBILITY = (
    ("Very Dense Fog", 33.0, 164.0, 18.70),
    ("Dense Fog", 164.0, 1000.0, 4.95),
    ("Rain/Snow", 1000.0, 4000.0, 1.85),
    ("Clear", 4000.0, 6500.0, 0.685),
)

# Grid rows in presentation order: friction from best to worst grip,
# visibility from clearest to densest, friction-major.
_PRACTICALITY = {
    ("Dry", "Clear"): "Common (normal driving)",
    ("Dry", "Rain/Snow"): "Rare (brief post-rain dry roads)",
    ("Dry", "Dense Fog"): "Possible (radiation fog on dry pavement)",
    ("Dry", "Very Dense Fog"): "Very Rare (extreme fog, no residual moisture)",
    ("Wet", "Clear"): "Common (roads slowly drying after rain)",
    ("Wet", "Rain/Snow"): "Common (ongoing precipitation)",
    ("Wet", "Dense Fog"): "Possible (humid/fog during or after rain)",
    ("Wet", "Very Dense Fog"): "Uncommon (heavy fog while wet)",
    ("Snow", "Clear"): "Common (post-snowfall clear skies)",
    ("Snow", "Rain/Snow"): "Rare (mixed sleet/rain over snow)",
    ("Snow", "Dense Fog"): "Rare (cold fog over snow-laden roads)",
    ("Snow", "Very Dense Fog"): "Common (active snowfall with low visibility)",
    ("Icy", "Clear"): "Possible (morning black ice before melting)",
    ("Icy", "Rain/Snow"): "Rare (freezing rain conditions)",
    ("Icy", "Dense Fog"): "Rare (ice fog in extreme cold)",
    ("Icy", "Very Dense Fog"): "Common (snow/ice with blowing snow)",
}


def _make_catalog(friction, visibility, sampling_visibility) -> BandCatalog:
    """A catalog from (label, lower, upper, crash rate) rows of each band set."""
    return BandCatalog(*(
        tuple(HazardBand(dimension, *row) for row in rows)
        for rows, dimension in [(friction, Dimension.FRICTION), (visibility, Dimension.VISIBILITY),
                                (sampling_visibility, Dimension.VISIBILITY)]
    ))


def default_catalog() -> BandCatalog:
    """Built-in band catalog with the default crash rates."""
    return _make_catalog(_DEFAULT_FRICTION, _DEFAULT_VISIBILITY, _DEFAULT_SAMPLING_VISIBILITY)


def load_catalog(path: str | Path) -> BandCatalog:
    """Load a band catalog from a crash-rate CSV.

    Expected header: ``dimension,label,lower,upper,crash_rate`` with dimension
    in {friction, visibility, sampling_visibility}.
    """
    groups: dict[str, list] = {"friction": [], "visibility": [], "sampling_visibility": []}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header, records = next(reader, None), list(numbered_records(reader))
        except csv.Error as exc:
            raise ValueError(f"crash-rate config {path} line {reader.line_num}: {exc}") from exc
    required = {"dimension", "label", "lower", "upper", "crash_rate"}
    if header is None or not required.issubset(header):
        raise ValueError(f"crash-rate config {path}: header must contain {sorted(required)}")
    for lineno, values in records:
        if len(values) != len(header):
            raise ValueError(f"crash-rate config {path} line {lineno}: field count differs from header")
        row = dict(zip(header, values))
        dim = row["dimension"].strip().lower()
        if dim not in groups:
            raise ValueError(f"crash-rate config {path} line {lineno}: unknown dimension {dim!r}")
        bounds_and_rate = (float(row[name]) for name in ("lower", "upper", "crash_rate"))
        groups[dim].append((row["label"].strip(), *bounds_and_rate))
    for dim, rows in groups.items():
        if not rows:
            raise ValueError(f"crash-rate config {path}: no {dim} bands defined")
        rows.sort(key=lambda r: r[1])
    return _make_catalog(*groups.values())


def numbered_records(reader):
    """(line, fields) for each non-blank record of a csv.reader, where line is
    the physical line the record starts on (a quoted field may span lines)."""
    end = reader.line_num
    for fields in reader:
        start, end = end + 1, reader.line_num
        if fields:
            yield start, fields


def _band_cuts(bands: tuple[HazardBand, ...]) -> tuple[float, ...]:
    # Cut between adjacent bands at the midpoint of the gap (the shared
    # boundary when contiguous); a value equal to a cut goes to the upper band.
    return tuple((lo.upper + hi.lower) / 2.0 for lo, hi in zip(bands, bands[1:]))


def classify(reading: EnvironmentReading, catalog: BandCatalog) -> tuple[HazardBand, HazardBand]:
    """Classify a reading into its friction band and its (sensor-aligned)
    visibility band."""
    f, v = catalog.index(reading.mu, reading.sight_distance)
    return catalog.friction_bands[f], catalog.sampling_visibility_bands[v]


def scenario_grid(catalog: BandCatalog) -> list[Scenario]:
    """Every friction x visibility scenario of the catalog in presentation
    order (friction-major, best conditions first)."""
    pairs = [(f, v) for f in reversed(catalog.friction_bands)
             for v in reversed(catalog.visibility_bands)]
    return [Scenario(sid, f, v, _PRACTICALITY.get((f.label, v.label), ""))
            for sid, (f, v) in enumerate(pairs, start=1)]
