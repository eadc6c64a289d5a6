"""Synthetic case-study dataset: seeded truncated-normal draws of friction and
sight distance for each scenario of the grid, plus per-scenario risk statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import BandCatalog, Scenario, scenario_grid

_MAX_REJECTION_ATTEMPTS = 10_000


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


@dataclass(frozen=True)
class SampleRecord:
    scenario_id: int
    mu: float
    sight_ft: float


@dataclass(frozen=True)
class SampleSet:
    """Sampled (friction, sight distance) pairs grouped by scenario."""

    scenarios: tuple[Scenario, ...]
    records: tuple[SampleRecord, ...]


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


def truncated_normal(
    mean: float,
    sigma: float,
    lower: float,
    upper: float,
    rng: np.random.Generator,
) -> float:
    """One draw from N(mean, sigma) conditioned on [lower, upper], by
    rejection. Bounded retries guard against a near-empty acceptance region."""
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    for _ in range(_MAX_REJECTION_ATTEMPTS):
        x = rng.normal(mean, sigma)
        if lower <= x <= upper:
            return float(x)
    raise RuntimeError(
        f"no draw in [{lower}, {upper}] after {_MAX_REJECTION_ATTEMPTS} attempts; "
        "acceptance region has negligible probability mass"
    )


def generate_dataset(config: SamplerConfig, catalog: BandCatalog) -> SampleSet:
    """Draw samples_per_scenario (mu, sight) pairs for each scenario of the
    grid; friction comes from the scenario's friction band and sight
    distance from the matching sensor-aligned visibility band.

    Each scenario uses its own substream derived from (seed, scenario_id), so
    the dataset is deterministic and scenarios are independent of each other.
    """
    scenarios = scenario_grid(catalog)
    sampling_bands = {band.label: band for band in catalog.sampling_visibility_bands}
    records = []
    n = config.samples_per_scenario
    for scenario in scenarios:
        rng = np.random.default_rng([config.seed, scenario.scenario_id])
        fband = scenario.friction_band
        vband = sampling_bands[scenario.visibility_band.label]
        # Mean at the band midpoint, sigma = band range / sigma_rule.
        f_sigma = (fband.upper - fband.lower) / config.sigma_rule
        v_sigma = (vband.upper - vband.lower) / config.sigma_rule
        mus = [
            truncated_normal(fband.midpoint, f_sigma, fband.lower, fband.upper, rng)
            for _ in range(n)
        ]
        sights = [
            truncated_normal(vband.midpoint, v_sigma, vband.lower, vband.upper, rng)
            for _ in range(n)
        ]
        records.extend(
            SampleRecord(scenario.scenario_id, mu, sight)
            for mu, sight in zip(mus, sights)
        )
    return SampleSet(scenarios=tuple(scenarios), records=tuple(records))


def scenario_statistics(
    samples: SampleSet, risk_scores: list[int]
) -> list[ScenarioStats]:
    """Per-scenario risk statistics, sorted ascending by mean risk.

    risk_scores must align one-to-one with samples.records. The mean +- 3 sigma
    band is clamped to the representable score range [1, 25] for reporting.
    """
    if len(risk_scores) != len(samples.records):
        raise ValueError(
            f"expected {len(samples.records)} risk scores, got {len(risk_scores)}"
        )
    by_scenario: dict[int, list[int]] = {s.scenario_id: [] for s in samples.scenarios}
    for record, score in zip(samples.records, risk_scores):
        by_scenario[record.scenario_id].append(score)
    stats = []
    for scenario in samples.scenarios:
        scores = np.asarray(by_scenario[scenario.scenario_id], dtype=float)
        mean = float(scores.mean())
        std = float(scores.std())
        stats.append(
            ScenarioStats(
                scenario=scenario,
                mean=mean,
                std=std,
                lower_3sigma=max(1.0, mean - 3 * std),
                upper_3sigma=min(25.0, mean + 3 * std),
                min=int(scores.min()),
                max=int(scores.max()),
            )
        )
    stats.sort(key=lambda s: (s.mean, s.scenario.scenario_id))
    return stats
