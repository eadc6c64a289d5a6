"""Synthetic case-study dataset: seeded truncated-normal draws of friction and
sight distance for each scenario of the grid, plus per-scenario risk statistics.
"""

from __future__ import annotations

import math

import numpy as np

from .bands import BandCatalog, Record, Scenario, scenario_grid

# Rejection sampling of a window holding less of the normal's mass is refused.
# That bounds the rounds of a draw: its last accept alone takes about 1 / mass
# rounds of one normal each, so at most about 1e4 on average.
_MIN_ACCEPTANCE = 1e-4


class SamplerConfig(Record):
    """Sampling rules: band-midpoint mean, sigma = band range / sigma_rule
    (the default 6 puts the band edges at +-3 sigma)."""

    seed: int
    samples_per_scenario: int
    sigma_rule: float

    def __init__(self, seed: int = 42, samples_per_scenario: int = 100, sigma_rule: float = 6.0):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if samples_per_scenario < 1:
            raise ValueError(f"samples_per_scenario must be >= 1, got {samples_per_scenario}")
        # Below 0.01 a band holds < 0.4% of the mass: rejection could fail.
        if not 0.01 <= sigma_rule < np.inf:
            raise ValueError(f"sigma_rule must be finite and >= 0.01, got {sigma_rule}")
        self._set_fields(seed, samples_per_scenario, sigma_rule)


class SampleSet(Record):
    """Sampled (friction, sight distance) pairs: a record array (scenario_id,
    mu, sight_ft) with one contiguous block of n rows per scenario, in order.
    Unhashable: its records are an array."""

    scenarios: tuple[Scenario, ...]
    records: np.recarray

    def __init__(self, scenarios: tuple[Scenario, ...], records: np.recarray):
        self._set_fields(scenarios, records)

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.scenarios == other.scenarios and np.array_equal(self.records, other.records)


class ScenarioStats(Record):
    """Risk-score statistics for one scenario's samples."""

    scenario: Scenario
    mean: float
    std: float
    lower_3sigma: float
    upper_3sigma: float
    min: int
    max: int

    def __init__(self, scenario: Scenario, mean: float, std: float, lower_3sigma: float,
                 upper_3sigma: float, min: int, max: int):
        self._set_fields(scenario, mean, std, lower_3sigma, upper_3sigma, min, max)


def truncated_normal(mean: float, sigma: float, lower: float, upper: float,
                     rng: np.random.Generator, size: int | None = None):
    """Draws from N(mean, sigma) conditioned on [lower, upper], by rejection:
    one float, or an array of `size`. Each round draws as many normals as
    accepts are still missing; one normal gives at most one accept, so rng
    stops exactly where drawing one at a time would."""
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
        x = rng.normal(mean, sigma, need)
        parts.append(x[(x >= lower) & (x <= upper)])
        need -= len(parts[-1])
    draws = np.concatenate(parts)
    return float(draws[0]) if size is None else draws


def scenario_samples(config: SamplerConfig, catalog: BandCatalog):
    """Yield (scenario, mu draws, sight draws) for each scenario of the grid:
    samples_per_scenario friction draws from its friction band, then as many
    from the matching sensor-aligned visibility band. Each scenario draws from
    its own substream of (seed, scenario_id): deterministic and independent."""
    sampling_bands = {band.label: band for band in catalog.sampling_visibility_bands}
    n, rule = config.samples_per_scenario, config.sigma_rule
    for scenario in scenario_grid(catalog):
        rng = np.random.default_rng([config.seed, scenario.scenario_id])
        bands = scenario.friction_band, sampling_bands[scenario.visibility_band.label]
        # Mean at the band midpoint, sigma = band range / sigma_rule.
        yield scenario, *(truncated_normal(b.midpoint, (b.upper - b.lower) / rule, b.lower,
                                           b.upper, rng, n) for b in bands)


def generate_dataset(config: SamplerConfig, catalog: BandCatalog) -> SampleSet:
    """Every scenario's draws from scenario_samples, one block after another."""
    scenarios, mus, sights = zip(*scenario_samples(config, catalog))
    ids = np.repeat([s.scenario_id for s in scenarios], config.samples_per_scenario)
    columns = [ids, np.concatenate(mus), np.concatenate(sights)]
    return SampleSet(scenarios, np.rec.fromarrays(columns, names="scenario_id,mu,sight_ft"))


def scenario_stats(scenario: Scenario, scores: np.ndarray) -> ScenarioStats:
    """Risk statistics of one scenario's scores. The mean +- 3 sigma band is
    clamped to the representable score range [1, 25] for reporting."""
    scores = np.asarray(scores, dtype=float)
    mean, std = float(scores.mean()), float(scores.std())
    bounds = max(1.0, mean - 3 * std), min(25.0, mean + 3 * std)
    return ScenarioStats(scenario, mean, std, *bounds, int(scores.min()), int(scores.max()))


def by_mean_risk(stats) -> list[ScenarioStats]:
    """Scenario statistics sorted ascending by mean risk, then scenario id."""
    return sorted(stats, key=lambda s: (s.mean, s.scenario.scenario_id))


def scenario_statistics(samples: SampleSet, risk_scores) -> list[ScenarioStats]:
    """scenario_stats of each scenario, sorted by_mean_risk. risk_scores must
    align one-to-one with samples.records: one contiguous block per scenario."""
    if len(risk_scores) != len(samples.records):
        raise ValueError(f"expected {len(samples.records)} risk scores, got {len(risk_scores)}")
    blocks = np.asarray(risk_scores).reshape(len(samples.scenarios), -1)
    return by_mean_risk(map(scenario_stats, samples.scenarios, blocks))
