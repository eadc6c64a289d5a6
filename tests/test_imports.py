"""Scoring one reading loads no numpy: the array forms live in hazardrisk.batch
and hazardrisk.sampler, which the package imports on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hazardrisk

SRC = Path(hazardrisk.__file__).resolve().parents[1]

# Runs in a fresh interpreter: numpy must still be absent after every step.
SCALAR_STEPS = """
import contextlib, io, sys

def numpy_free(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"

import hazardrisk as h
numpy_free("import hazardrisk")
catalog = h.default_catalog()
joint = h.joint_probability(h.normalize_marginals(list(catalog.friction_bands)),
                            h.normalize_marginals(list(catalog.visibility_bands)))
assert h.assess(h.EnvironmentReading(0.25, 582), catalog, joint).risk_score == 16
numpy_free("assess()")
from hazardrisk.cli import main
for argv in (["assess", "--mu", "0.5", "--sight-ft", "100"],
             ["assess", "--mu", "0.5", "--sight-ft", "100", "--format", "csv"],
             ["matrix"], ["matrix", "--format", "csv"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    numpy_free(argv)
"""


def test_scoring_one_reading_loads_no_numpy():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", SCALAR_STEPS], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_public_names_are_unchanged():
    assert sorted(hazardrisk.__all__) == sorted([
        "__version__", "Assessment", "BandCatalog", "Dimension", "EnvironmentReading",
        "HazardBand", "JointProbabilityTable", "MarginalDistribution", "RiskLevel", "SampleSet",
        "SamplerConfig", "Scenario", "SpeedProfile", "advisory_speed", "assess",
        "assess_columns", "classify", "composite_risk", "default_catalog", "fhwa_safe_speed",
        "generate_dataset", "joint_probability", "load_catalog", "normalize_marginals",
        "risk_level", "risk_matrix", "scenario_grid", "scenario_samples", "scenario_statistics",
        "score_probability", "score_severity", "speed_profile", "truncated_normal",
    ])
    assert all(hasattr(hazardrisk, name) for name in hazardrisk.__all__)


def test_batch_names_come_from_their_modules():
    import hazardrisk.batch
    import hazardrisk.sampler

    assert hazardrisk.assess_columns is hazardrisk.batch.assess_columns
    assert hazardrisk.truncated_normal is hazardrisk.sampler.truncated_normal


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hazardrisk.no_such_name
