"""Crash probability: marginal normalization of crash rates, joint probability
of independent friction/visibility hazards, and ordinal probability scoring."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .bands import Dimension, HazardBand

# Upper edges of probability scores 1-4 on the normalized joint probability.
# Intervals are left-open/right-closed except the lowest, which is closed
# at both ends.
_PROBABILITY_EDGES = (0.010, 0.020, 0.050, 0.100)


@dataclass(frozen=True)
class MarginalDistribution:
    """Normalized crash probabilities for one hazard dimension, in band order."""

    dimension: Dimension
    probs: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class JointEntry:
    friction_label: str
    visibility_label: str
    raw_joint: float
    normalized_joint: float
    probability_score: int


@dataclass(frozen=True)
class JointProbabilityTable:
    """Joint crash probabilities for all friction x visibility pairs,
    friction-major in marginal order."""

    entries: tuple[JointEntry, ...]
    _by_labels: dict[tuple[str, str], JointEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_labels = {(e.friction_label, e.visibility_label): e for e in self.entries}
        object.__setattr__(self, "_by_labels", by_labels)

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
    return MarginalDistribution(dimension=dimensions.pop(), probs=probs)


def joint_probability(p_f: MarginalDistribution, p_v: MarginalDistribution) -> JointProbabilityTable:
    """Joint probability table under independence of friction and visibility.

    Raw products are renormalized over all pairs; an identity when both
    marginals sum to one, but it restores a proper distribution when a
    user-supplied table is unnormalized. Scores are assigned from the
    normalized values.
    """
    if p_f.dimension is not Dimension.FRICTION or p_v.dimension is not Dimension.VISIBILITY:
        raise ValueError("expected a friction marginal and a visibility marginal")
    pairs = [(fl, vl, pf * pv) for fl, pf in p_f.probs for vl, pv in p_v.probs]
    total = sum(raw for _, _, raw in pairs)
    return JointProbabilityTable(tuple(
        JointEntry(fl, vl, raw, raw / total, score_probability(raw / total)) for fl, vl, raw in pairs
    ))


def score_probability(p: float) -> int:
    """Ordinal 1-5 probability score of a normalized joint probability."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return bisect_left(_PROBABILITY_EDGES, p) + 1
