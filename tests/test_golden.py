"""Reference bytes of the seed-42 case study.

The sha256 of each file written by `hazardrisk simulate --seed 42` (default
100 samples per scenario, grade 0, design speed 75 mph, built-in catalog).
Any refactor of the engine, the sampler or the writers must reproduce them.
"""

import hashlib

import pytest

from hazardrisk.cli import main

GOLDEN_SHA256 = {
    "heatmap.csv": "f85ad9ed7103dbb9df60cf06a10119a10709e0623c4bc5a53e85857bff8a4be2",
    "joint.csv": "b146ffe0de75c8364d390c5d136c6aa562ce36b7f8bd1de70b19c32dabe3f0a8",
    "manifest.json": "f8f5d7bc5e9b4589558661d2a24d9af1d8a2e16d240d3d02ad2ee1d238af10df",
    "marginals.csv": "c30d77214fc952b2dd5f2bfb6c22cb1a2980a85672d6fb55b3b70f0c6360da8f",
    "samples.csv": "51728a3e21bf9a410472748d9779a61a3e0b275c2a6ef6debe4d3e412a58c021",
    "scenario_stats.csv": "b50faf970e685c186404d8746bec992f38ce290f563709f7a5c3bba1285a39c1",
}


@pytest.fixture(scope="module")
def seed42_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    # The built-in catalog is part of the reference; an inherited
    # HAZARD_RISK_CONFIG must not replace it.
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HAZARD_RISK_CONFIG", raising=False)
        assert main(["simulate", "--seed", "42", "--out", str(out)]) == 0
    return out


def test_writes_exactly_the_golden_files(seed42_dir):
    assert {p.name for p in seed42_dir.iterdir()} == set(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_matches_golden_digest(seed42_dir, name):
    digest = hashlib.sha256((seed42_dir / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
