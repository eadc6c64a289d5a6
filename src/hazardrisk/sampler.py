"""Synthetic case-study dataset: seeded truncated-normal draws of friction and
sight distance for each scenario of the grid, plus per-scenario risk statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandCatalog, Scenario, scenario_grid

# Rejection sampling of a window holding less of the normal's mass is refused.
_MIN_ACCEPTANCE = 1e-4
# Normals drawn per block, so a low acceptance rate cannot exhaust memory.
_MAX_BLOCK = 1 << 20


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling rules: band-midpoint mean, sigma = band range / sigma_rule
    (the default 6 puts the band edges at +-3 sigma)."""

    seed: int = 42
    samples_per_scenario: int = 100
    sigma_rule: float = 6.0

    def __post_init__(self):
        if self.samples_per_scenario < 1:
            raise ValueError("samples_per_scenario must be >= 1")
        # Below 0.01 a band holds < 0.4% of the mass: rejection could fail.
        if not 0.01 <= self.sigma_rule < np.inf:
            raise ValueError(f"sigma_rule must be finite and >= 0.01, got {self.sigma_rule}")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sampled (friction, sight distance) pairs: a record array (scenario_id,
    mu, sight_ft) with one contiguous block of n rows per scenario, in order."""

    scenarios: tuple[Scenario, ...]
    records: np.recarray

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.scenarios == other.scenarios and np.array_equal(self.records, other.records)


@dataclass(frozen=True)
class ScenarioStats:
    """Risk-score statistics for one scenario's samples."""

    scenario: Scenario
    mean: float
    std: float
    lower_3sigma: float
    upper_3sigma: float
    min: int
    max: int


def truncated_normal(mean: float, sigma: float, lower: float, upper: float,
                     rng: np.random.Generator, size: int | None = None):
    """Draws from N(mean, sigma) conditioned on [lower, upper], by rejection:
    one float, or an array of `size`. rng advances exactly as far as drawing
    one at a time would take it: a block that holds the last accept needed
    is drawn again, from the same state, only up to that accept."""
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    z = sigma * math.sqrt(2.0)
    mass = 0.5 * (math.erf((upper - mean) / z) - math.erf((lower - mean) / z))
    if not mass >= _MIN_ACCEPTANCE:
        raise RuntimeError(f"no draw in [{lower}, {upper}]: it holds {mass:.3g} of the mass")
    need = 1 if size is None else size
    parts = [np.empty(0)]
    while need:
        state = rng.bit_generator.state
        x = rng.normal(mean, sigma, min(int(need / mass * 1.07) + 64, _MAX_BLOCK))
        kept = np.flatnonzero((x >= lower) & (x <= upper))
        if len(kept) >= need:
            kept = kept[:need]
            rng.bit_generator.state = state
            rng.normal(mean, sigma, kept[-1] + 1)
        parts.append(x[kept])
        need -= len(kept)
    draws = np.concatenate(parts)
    return float(draws[0]) if size is None else draws


def generate_dataset(config: SamplerConfig, catalog: BandCatalog) -> SampleSet:
    """Draw samples_per_scenario (mu, sight) pairs for each scenario of the
    grid; friction comes from the scenario's friction band and sight
    distance from the matching sensor-aligned visibility band.

    Each scenario uses its own substream derived from (seed, scenario_id), so
    the dataset is deterministic and scenarios are independent of each other.
    """
    scenarios = scenario_grid(catalog)
    sampling_bands = {band.label: band for band in catalog.sampling_visibility_bands}
    n = config.samples_per_scenario
    mus, sights = [], []
    for scenario in scenarios:
        rng = np.random.default_rng([config.seed, scenario.scenario_id])
        fband = scenario.friction_band
        vband = sampling_bands[scenario.visibility_band.label]
        # Mean at the band midpoint, sigma = band range / sigma_rule.
        for band, draws in ((fband, mus), (vband, sights)):
            sigma = (band.upper - band.lower) / config.sigma_rule
            draws.append(truncated_normal(band.midpoint, sigma, band.lower, band.upper, rng, n))
    ids = np.repeat([s.scenario_id for s in scenarios], n)
    columns = [ids, np.concatenate(mus), np.concatenate(sights)]
    return SampleSet(tuple(scenarios), np.rec.fromarrays(columns, names="scenario_id,mu,sight_ft"))


def scenario_statistics(samples: SampleSet, risk_scores) -> list[ScenarioStats]:
    """Per-scenario risk statistics, sorted ascending by mean risk.

    risk_scores must align one-to-one with samples.records, so they come in
    one contiguous block per scenario. The mean +- 3 sigma band is clamped to
    the representable score range [1, 25] for reporting.
    """
    if len(risk_scores) != len(samples.records):
        raise ValueError(f"expected {len(samples.records)} risk scores, got {len(risk_scores)}")
    blocks = np.asarray(risk_scores, dtype=float).reshape(len(samples.scenarios), -1)
    stats = []
    for scenario, scores in zip(samples.scenarios, blocks):
        mean, std = float(scores.mean()), float(scores.std())
        bounds = max(1.0, mean - 3 * std), min(25.0, mean + 3 * std)
        stats.append(ScenarioStats(scenario, mean, std, *bounds, int(scores.min()), int(scores.max())))
    stats.sort(key=lambda s: (s.mean, s.scenario.scenario_id))
    return stats
