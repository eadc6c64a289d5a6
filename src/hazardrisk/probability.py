"""Crash probability: marginal normalization of crash rates, joint probability
of independent friction/visibility hazards, and ordinal probability scoring."""

from __future__ import annotations

from bisect import bisect_left
from .bands import Dimension, HazardBand, Record

# Upper edges of probability scores 1-4 on the normalized joint probability.
# Intervals are left-open/right-closed except the lowest, which is closed
# at both ends.
_PROBABILITY_EDGES = (0.010, 0.020, 0.050, 0.100)


class MarginalDistribution(Record):
    """Normalized crash probabilities for one hazard dimension, in band order."""

    dimension: Dimension
    probs: tuple[tuple[str, float], ...]
    # What the probs were normalized from, in their order: the bands' crash
    # rates, for a distribution from normalize_marginals. joint_probability
    # scores each cell from these exactly; None means the probs themselves.
    weights: tuple[float, ...] | None

    def __init__(self, dimension: Dimension, probs: tuple[tuple[str, float], ...],
                 weights: tuple[float, ...] | None = None):
        if weights is not None and len(weights) != len(probs):
            raise ValueError("weights must match probs one to one")
        self._set_fields(dimension, probs, weights)


class JointEntry(Record):
    friction_label: str
    visibility_label: str
    raw_joint: float
    normalized_joint: float
    probability_score: int

    # Checked once here, for a table built by hand: risk.assess composes the
    # score unchecked.
    def __init__(self, friction_label: str, visibility_label: str, raw_joint: float,
                 normalized_joint: float, probability_score: int):
        check_score(probability_score, "probability score")
        self._set_fields(friction_label, visibility_label, raw_joint, normalized_joint,
                         probability_score)


class JointProbabilityTable(Record):
    """Joint crash probabilities for all friction x visibility pairs,
    friction-major in marginal order, with a label index beside them
    (outside eq, hash and repr)."""

    entries: tuple[JointEntry, ...]

    def __init__(self, entries: tuple[JointEntry, ...]):
        self._set_fields(entries)
        object.__setattr__(self, "_by_labels",
                           {(e.friction_label, e.visibility_label): e for e in entries})

    def lookup(self, friction_label: str, visibility_label: str) -> JointEntry:
        return self._by_labels[(friction_label, visibility_label)]


def normalize_marginals(bands: list[HazardBand]) -> MarginalDistribution:
    """Rescale a band list's crash rates into a probability distribution,
    preserving order."""
    if not bands:
        raise ValueError("cannot normalize an empty band list")
    dimensions = {band.dimension for band in bands}
    if len(dimensions) != 1:
        raise ValueError("all bands must share one dimension")
    total = sum(band.crash_rate for band in bands)
    probs = tuple((band.label, band.crash_rate / total) for band in bands)
    return MarginalDistribution(dimensions.pop(), probs, tuple(band.crash_rate for band in bands))


def joint_probability(p_f: MarginalDistribution, p_v: MarginalDistribution) -> JointProbabilityTable:
    """Joint probability table under independence of friction and visibility.

    Raw products are renormalized over all pairs; an identity when both
    marginals sum to one, but it restores a proper distribution when a
    user-supplied table is unnormalized. Each cell's score is decided from
    the marginals' weights without rounding: the joint w_f * w_v / (sum(w_f)
    * sum(w_v)) against the float edge constants. The normalized value it
    reports is the float chain's, which can round across an edge.
    """
    if p_f.dimension is not Dimension.FRICTION or p_v.dimension is not Dimension.VISIBILITY:
        raise ValueError("expected a friction marginal and a visibility marginal")
    pairs = [(fl, vl, pf * pv) for fl, pf in p_f.probs for vl, pv in p_v.probs]
    total = sum(raw for _, _, raw in pairs)
    (f_parts, f_whole), (v_parts, v_whole) = map(_integer_weights, (p_f, p_v))
    # A cell's exact joint part / whole exceeds the edge n / d when
    # part * d > n * whole. Taken in absolute value: a joint in [0, 1] has
    # part and whole of one sign.
    parts = [abs(f * v) for f in f_parts for v in v_parts]
    whole = abs(f_whole * v_whole)
    edges = [(d, n * whole) for n, d in map(float.as_integer_ratio, _PROBABILITY_EDGES)]
    return JointProbabilityTable(tuple(
        JointEntry(fl, vl, raw, raw / total, _exact_score(raw / total, part, edges))
        for (fl, vl, raw), part in zip(pairs, parts)
    ))


def _integer_weights(marginal: MarginalDistribution) -> tuple[list[int], int]:
    """A marginal's weights as integers over one common power-of-two
    denominator, and their sum: any ratio of these equals that of the floats."""
    weights = marginal.weights or [p for _, p in marginal.probs]
    ratios = [w.as_integer_ratio() for w in weights]
    denominator = max((d for _, d in ratios), default=1)
    parts = [n * (denominator // d) for n, d in ratios]
    return parts, sum(parts)


def _exact_score(p: float, part: int, edges: list[tuple[int, int]]) -> int:
    """score_probability of a cell whose float joint is p: one more than the
    edges its exact part exceeds (the bins are right-closed)."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return 1 + sum(part * d > bound for d, bound in edges)


def check_score(score: int, name: str) -> None:
    """Refuse anything but an ordinal score, an int in 1..5."""
    if not (isinstance(score, int) and 1 <= score <= 5):
        raise ValueError(f"{name} must be an integer in 1..5, got {score!r}")


def score_probability(p: float) -> int:
    """Ordinal 1-5 probability score of a normalized joint probability."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return bisect_left(_PROBABILITY_EDGES, p) + 1
