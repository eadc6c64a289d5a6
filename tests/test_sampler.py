import math

import numpy as np
import pytest

from hazardrisk import (
    EnvironmentReading,
    SamplerConfig,
    assess,
    generate_dataset,
    scenario_statistics,
    truncated_normal,
)


class TestTruncatedNormal:
    def test_always_within_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            x = truncated_normal(0.8, 0.0333, 0.7, 0.9, rng)
            assert 0.7 <= x <= 0.9

    def test_symmetric_truncation_preserves_mean(self):
        rng = np.random.default_rng(11)
        draws = [truncated_normal(0.8, 0.0333, 0.7, 0.9, rng) for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(0.80, abs=0.005)

    def test_band_peaks_near_midpoints(self):
        # Dry peaks near 0.80, Icy near 0.10.
        rng = np.random.default_rng(3)
        dry = [truncated_normal(0.8, 0.2 / 6, 0.7, 0.9, rng) for _ in range(10_000)]
        icy = [truncated_normal(0.1, 0.1 / 6, 0.05, 0.15, rng) for _ in range(10_000)]
        assert np.mean(dry) == pytest.approx(0.80, rel=0.02)
        assert np.mean(icy) == pytest.approx(0.10, rel=0.02)

    def test_invalid_bounds_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            truncated_normal(0.5, 0.1, 0.9, 0.7, rng)
        with pytest.raises(ValueError):
            truncated_normal(0.5, 0.0, 0.4, 0.6, rng)

    def test_negligible_acceptance_mass_errors(self):
        # Window 40 sigma away from the mean: rejection cannot succeed.
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            truncated_normal(0.0, 0.01, 0.4, 0.401, rng)


class TestGenerateDataset:
    def test_default_record_count(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=42), catalog)
        assert len(samples.records) == 1600

    def test_single_sample_per_scenario(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=42, samples_per_scenario=1), catalog)
        assert len(samples.records) == 16

    def test_deterministic(self, catalog):
        a = generate_dataset(SamplerConfig(seed=42), catalog)
        b = generate_dataset(SamplerConfig(seed=42), catalog)
        assert a == b

    def test_seed_changes_dataset(self, catalog):
        a = generate_dataset(SamplerConfig(seed=42), catalog)
        b = generate_dataset(SamplerConfig(seed=43), catalog)
        assert a != b

    def test_all_samples_within_band_bounds(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=42), catalog)
        by_id = {s.scenario_id: s for s in samples.scenarios}
        sampling = {b.label: b for b in catalog.sampling_visibility_bands}
        for record in samples.records:
            scenario = by_id[record.scenario_id]
            fband = scenario.friction_band
            vband = sampling[scenario.visibility_band.label]
            assert fband.lower <= record.mu <= fband.upper
            assert vband.lower <= record.sight_ft <= vband.upper

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(samples_per_scenario=0)
        # Too small to sample (band edges inside +-0.005 sigma) or non-finite.
        for sigma_rule in (0, 1e-9, 0.0099, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="sigma_rule"):
                SamplerConfig(sigma_rule=sigma_rule)


def _assessed_scores(samples, catalog, joint_table):
    return [
        assess(
            EnvironmentReading(mu=r.mu, sight_distance=r.sight_ft), catalog, joint_table
        ).risk_score
        for r in samples.records
    ]


@pytest.fixture(scope="module")
def stats(catalog, joint_table):
    samples = generate_dataset(SamplerConfig(seed=42), catalog)
    return scenario_statistics(samples, _assessed_scores(samples, catalog, joint_table))


class TestScenarioStatistics:
    def _by_labels(self, stats, f, v):
        return next(
            s
            for s in stats
            if s.scenario.friction_band.label == f and s.scenario.visibility_band.label == v
        )

    def test_icy_very_dense_fog_pegged_at_max(self, stats):
        s = self._by_labels(stats, "Icy", "Very Dense Fog")
        assert s.mean == 25.0
        assert s.std == 0.0

    def test_dry_clear_pegged_at_floor(self, stats):
        s = self._by_labels(stats, "Dry", "Clear")
        assert s.mean == 1.0
        assert s.std == 0.0

    def test_dry_dense_fog_mean(self, stats):
        s = self._by_labels(stats, "Dry", "Dense Fog")
        assert s.mean == pytest.approx(5.6, abs=1.0)

    def test_sorted_ascending_by_mean(self, stats):
        means = [s.mean for s in stats]
        assert means == sorted(means)

    def test_three_sigma_bounds_clamped(self, stats):
        for s in stats:
            assert 1.0 <= s.lower_3sigma <= s.mean
            assert s.mean <= s.upper_3sigma <= 25.0
            assert 1 <= s.min <= s.max <= 25

    def test_mismatched_score_count_rejected(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=1, samples_per_scenario=2), catalog)
        with pytest.raises(ValueError):
            scenario_statistics(samples, [1, 2, 3])
