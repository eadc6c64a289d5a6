"""Hazard band catalog: friction and visibility bands, reading classification,
and the scenario grid.

Two visibility catalogs coexist: the literature bands that carry crash rates
(used for probability lookup) and the sensor-aligned bands that cover
33-6500 ft without a gap, inside the 0-6562 ft bounds a visibility band may
take (used for classifying readings and for sampling). The two share band
labels and crash rates; the label is how probability scores attach to
classified readings.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import attrgetter
from pathlib import Path


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


# The three records of a scored reading (this one, SpeedProfile and
# Assessment) store their fields with one __dict__ update: the generated
# __init__ of a frozen dataclass calls object.__setattr__ once per field,
# which costs a scalar assess() call more than its scoring. Assignment still
# raises FrozenInstanceError, and dataclasses.replace() still comes through here.
@dataclass(frozen=True, init=False)
class EnvironmentReading:
    """One environment observation: friction coefficient, sight distance in
    feet, decimal road grade, and the roadway design speed in mph."""

    mu: float
    sight_distance: float
    grade: float = 0.0
    design_speed: float = 75.0

    def __init__(self, mu: float, sight_distance: float, grade: float = 0.0,
                 design_speed: float = 75.0):
        if not 0 < mu <= 1:
            raise ValueError(f"mu must be in (0, 1], got {mu}")
        for name, value in (("sight_distance", sight_distance), ("grade", grade),
                            ("design_speed", design_speed)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if sight_distance < 0:
            raise ValueError(f"sight_distance must be >= 0, got {sight_distance}")
        if mu + grade <= 0:
            raise ValueError(f"mu + grade must be > 0, got {mu + grade}")
        if design_speed <= 0:
            raise ValueError(f"design_speed must be > 0, got {design_speed}")
        vars(self).update(mu=mu, sight_distance=sight_distance, grade=grade,
                          design_speed=design_speed)


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
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            records = list(numbered_records(reader))
        except csv.Error as exc:
            raise ValueError(f"crash-rate config {path} line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"crash-rate config {path} is not UTF-8 text: {exc}") from exc
    header = records[0][1] if records else None
    required = {"dimension", "label", "lower", "upper", "crash_rate"}
    if header is None or not required.issubset(header):
        raise ValueError(f"crash-rate config {path}: header must contain {sorted(required)}")
    if repeated := repeated_column(header, required):
        raise ValueError(f"crash-rate config {path}: header repeats column {repeated!r}")
    for before, values in records[1:]:
        if not values:
            continue
        try:
            if len(values) != len(header):
                raise ValueError("field count differs from header")
            row = dict(zip(header, values))
            dim = row["dimension"].strip().lower()
            if dim not in groups:
                raise ValueError(f"unknown dimension {dim!r}")
            bounds_and_rate = [float(row[name]) for name in ("lower", "upper", "crash_rate")]
        except ValueError as exc:
            raise ValueError(f"crash-rate config {path} line {before + 1}: {exc}") from exc
        groups[dim].append((row["label"].strip(), *bounds_and_rate))
    for dim, rows in groups.items():
        if not rows:
            raise ValueError(f"crash-rate config {path}: no {dim} bands defined")
        rows.sort(key=lambda r: r[1])
    return _make_catalog(*groups.values())


def numbered_records(reader):
    """(line, fields) for each record of a csv.reader, blank lines' [] included,
    where line is the last physical line before the record: the record starts on
    line + 1 (a quoted field may span lines). zip reads line_num first, before
    the reader advances to the record."""
    return zip(map(attrgetter("line_num"), repeat(reader)), reader)


def repeated_column(header: list[str], names) -> str | None:
    """The first of the names a reader reads that its header lists more than
    once: reading rows by name would keep only the last such column."""
    return next((name for name in header if name in names and header.count(name) > 1), None)


def _band_cuts(bands: tuple[HazardBand, ...]) -> tuple[float, ...]:
    # Cut between adjacent bands at the midpoint of the gap (the shared
    # boundary when contiguous); a value equal to a cut goes to the upper band.
    return tuple((lo.upper + hi.lower) / 2.0 for lo, hi in zip(bands, bands[1:]))


def classify(reading: EnvironmentReading, catalog: BandCatalog) -> tuple[HazardBand, HazardBand]:
    """Classify a reading into its friction band and its (sensor-aligned)
    visibility band."""
    f = bisect_right(catalog._friction_cuts, reading.mu)
    v = bisect_right(catalog._visibility_cuts, reading.sight_distance)
    return catalog.friction_bands[f], catalog.sampling_visibility_bands[v]


def scenario_grid(catalog: BandCatalog) -> list[Scenario]:
    """Every friction x visibility scenario of the catalog in presentation
    order (friction-major, best conditions first)."""
    pairs = [(f, v) for f in reversed(catalog.friction_bands)
             for v in reversed(catalog.visibility_bands)]
    return [Scenario(sid, f, v, _PRACTICALITY.get((f.label, v.label), ""))
            for sid, (f, v) in enumerate(pairs, start=1)]
