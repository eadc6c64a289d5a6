from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hazardrisk import joint_probability, normalize_marginals, score_probability
from hazardrisk.bands import Dimension, HazardBand
from hazardrisk.probability import MarginalDistribution

# Brute-force recomputation of the expected 16 probability scores from the
# crash-rate products through the score bins (independent of the engine path).
FRICTION_RATES = {"Dry": 1.90, "Wet": 3.75, "Snow": 5.50, "Icy": 9.00}
VISIBILITY_RATES = {
    "Clear": 0.685,
    "Rain/Snow": 1.85,
    "Dense Fog": 4.95,
    "Very Dense Fog": 18.70,
}


def brute_force_scores():
    pf = {k: v / sum(FRICTION_RATES.values()) for k, v in FRICTION_RATES.items()}
    pv = {k: v / sum(VISIBILITY_RATES.values()) for k, v in VISIBILITY_RATES.items()}
    scores = {}
    for f, p1 in pf.items():
        for v, p2 in pv.items():
            p = p1 * p2
            if p <= 0.010:
                scores[(f, v)] = 1
            elif p <= 0.020:
                scores[(f, v)] = 2
            elif p <= 0.050:
                scores[(f, v)] = 3
            elif p <= 0.100:
                scores[(f, v)] = 4
            else:
                scores[(f, v)] = 5
    return scores


def _bands(dimension, rates):
    # Bounds are irrelevant to normalization; keep them simple and valid.
    step = 0.2 if dimension is Dimension.FRICTION else 100.0
    return [
        HazardBand(dimension, label, i * step, i * step + step / 2, rate)
        for i, (label, rate) in enumerate(rates)
    ]


class TestNormalizeMarginals:
    def test_friction_matches_published_values(self, catalog):
        dist = dict(normalize_marginals(list(catalog.friction_bands)).probs)
        expected = {"Dry": 0.0943, "Wet": 0.1862, "Snow": 0.2730, "Icy": 0.4466}
        for label, value in expected.items():
            assert dist[label] == pytest.approx(value, abs=5e-4)

    def test_visibility_matches_published_values(self, catalog):
        dist = dict(normalize_marginals(list(catalog.visibility_bands)).probs)
        expected = {
            "Clear": 0.0262,
            "Rain/Snow": 0.0706,
            "Dense Fog": 0.1890,
            "Very Dense Fog": 0.7142,
        }
        for label, value in expected.items():
            assert dist[label] == pytest.approx(value, abs=5e-4)

    def test_uniform_rates(self):
        bands = _bands(Dimension.FRICTION, [(f"b{i}", 1.0) for i in range(4)])
        dist = normalize_marginals(bands)
        assert [p for _, p in dist.probs] == pytest.approx([0.25] * 4)

    def test_sums_to_one(self, catalog):
        for bands in (catalog.friction_bands, catalog.visibility_bands):
            dist = normalize_marginals(list(bands))
            assert sum(p for _, p in dist.probs) == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_marginals([])

    def test_bands_of_two_dimensions_rejected(self, catalog):
        with pytest.raises(ValueError, match="^all bands must share one dimension$"):
            normalize_marginals([catalog.friction_bands[0], catalog.visibility_bands[0]])

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, scale):
        rates = [1.9, 3.75, 5.5, 9.0]
        base = normalize_marginals(
            _bands(Dimension.FRICTION, [(f"b{i}", r) for i, r in enumerate(rates)])
        )
        scaled = normalize_marginals(
            _bands(Dimension.FRICTION, [(f"b{i}", r * scale) for i, r in enumerate(rates)])
        )
        for (_, p1), (_, p2) in zip(base.probs, scaled.probs):
            assert p1 == pytest.approx(p2, abs=1e-12)


class TestJointProbability:
    def test_raw_products(self, joint_table):
        assert joint_table.lookup("Dry", "Clear").raw_joint == pytest.approx(
            0.00247, abs=5e-5
        )
        assert joint_table.lookup("Icy", "Very Dense Fog").raw_joint == pytest.approx(
            0.3190, abs=5e-4
        )

    def test_normalization_is_identity_for_proper_marginals(self, joint_table):
        for entry in joint_table.entries:
            assert entry.normalized_joint == pytest.approx(entry.raw_joint, abs=1e-12)

    def test_normalized_sums_to_one_for_unnormalized_marginals(self):
        # Deliberately unnormalized "marginals" (probs sum to 4).
        p_f = MarginalDistribution(
            Dimension.FRICTION, tuple((f"f{i}", 1.0) for i in range(4))
        )
        p_v = MarginalDistribution(
            Dimension.VISIBILITY, tuple((f"v{i}", 1.0) for i in range(4))
        )
        table = joint_probability(p_f, p_v)
        assert sum(e.normalized_joint for e in table.entries) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_sixteen_scenario_scores_match_brute_force(self, joint_table):
        expected = brute_force_scores()
        for (f, v), score in expected.items():
            assert joint_table.lookup(f, v).probability_score == score, (f, v)

    def test_entry_count(self, joint_table):
        assert len(joint_table.entries) == 16

    # The marginals swapped, or both of one dimension.
    @pytest.mark.parametrize("dimensions", ["vf", "ff", "vv"])
    def test_marginals_of_other_dimensions_rejected(self, catalog, dimensions):
        marginals = {"f": normalize_marginals(list(catalog.friction_bands)),
                     "v": normalize_marginals(list(catalog.visibility_bands))}
        with pytest.raises(ValueError,
                           match="^expected a friction marginal and a visibility marginal$"):
            joint_probability(*(marginals[d] for d in dimensions))


def exact_scores(f_rates, v_rates):
    """Each cell's score from the rates in rational arithmetic, friction-major."""
    edges = [Fraction(e) for e in (0.01, 0.02, 0.05, 0.1)]
    f_total, v_total = sum(map(Fraction, f_rates)), sum(map(Fraction, v_rates))
    return [1 + sum(Fraction(f) * Fraction(v) / (f_total * v_total) > e for e in edges)
            for f in f_rates for v in v_rates]


def table_of(f_rates, v_rates):
    f_bands = _bands(Dimension.FRICTION, [(f"f{i}", r) for i, r in enumerate(f_rates)])
    v_bands = _bands(Dimension.VISIBILITY, [(f"v{i}", r) for i, r in enumerate(v_rates)])
    return joint_probability(normalize_marginals(f_bands), normalize_marginals(v_bands))


# Crash rates over a few decades, where the joints meet the edges, and over
# the whole positive float range.
rates = st.lists(st.one_of(st.floats(1e-3, 1e3), st.floats(5e-324, 1e300)), min_size=1,
                 max_size=4)


class TestExactJointScores:
    """Each cell is scored from the crash rates without rounding; the printed
    joint stays the float chain's."""

    def test_a_cell_exactly_on_an_edge_scores_below_it(self):
        table = table_of([1.0, 9.0], [1.0, 9.0])
        first = table.entries[0]
        # The exact joint is 1/100, at most the float 0.01; the float chain
        # rounds it above.
        assert first.normalized_joint == 0.010000000000000002
        assert first.probability_score == 1
        assert [e.probability_score for e in table.entries] == [1, 4, 4, 5]

    @given(f_rates=rates, v_rates=rates)
    @example(f_rates=[1.0], v_rates=[3.0])  # one cell, of joint 1
    # A first cell of joint exactly the float 0.01, whose bin is closed above;
    # the rates sum to exactly 1.
    @example(f_rates=[0.01, 0.99, 8.673617379884035e-18], v_rates=[1.0])
    # Rates 2**1074 apart, over a common denominator too large for a float.
    @example(f_rates=[1.0, 5e-324], v_rates=[1.0])
    def test_scores_are_the_rational_scores(self, f_rates, v_rates):
        table = table_of(f_rates, v_rates)
        assert [e.probability_score for e in table.entries] == exact_scores(f_rates, v_rates)

    def test_probs_serve_as_weights_when_a_marginal_has_none(self):
        p_f = MarginalDistribution(Dimension.FRICTION, (("a", 0.1), ("b", 0.9)))
        p_v = MarginalDistribution(Dimension.VISIBILITY, (("x", 0.1), ("y", 0.9)))
        # The float 0.1 is above 1/10: its exact square is above the float 0.01.
        assert [e.probability_score for e in joint_probability(p_f, p_v).entries] == (
            exact_scores([0.1, 0.9], [0.1, 0.9])) == [2, 4, 4, 5]

    def test_weights_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="^weights must match probs one to one$"):
            MarginalDistribution(Dimension.FRICTION, (("a", 0.5), ("b", 0.5)), (1.0,))


class TestScoreProbability:
    @pytest.mark.parametrize(
        "p,score",
        [
            (0.0, 1),
            (0.00247, 1),
            (0.010, 1),  # boundary belongs to the lower score
            (0.0100001, 2),
            (0.020, 2),
            (0.0200001, 3),
            (0.050, 3),
            (0.0673, 4),
            (0.100, 4),
            (0.1000001, 5),
            (0.3190, 5),
            (1.0, 5),
        ],
    )
    def test_bins(self, p, score):
        assert score_probability(p) == score

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score_probability(-0.01)
        with pytest.raises(ValueError):
            score_probability(1.01)

    def test_monotone(self):
        grid = [i / 10000 for i in range(10001)]
        scores = [score_probability(p) for p in grid]
        assert scores == sorted(scores)
