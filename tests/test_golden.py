"""Reference bytes of the CLI outputs.

The sha256 of each file written by `hazardrisk simulate --seed 42` (default
100 samples per scenario, grade 0, design speed 75 mph, built-in catalog),
and of what `assess`, `matrix` and `replay` print (further down).
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


# A replay log with both optional columns, empty optional fields, a sight
# distance past the sensor range and one row the domain rejects (line 4).
REPLAY_LOG = (
    "timestamp,mu,sight_ft,grade,design_speed\n"
    "t0,0.8,5000,,\n"
    "t1,0.25,582,0.02,\n"
    "t2,0,100,,\n"
    "t3,0.1,150,-0.03,55\n"
    "t4,0.55,12345.678,0.005,65.5\n"
)

# stdout of the other commands, on the built-in catalog.
CLI_ARGV = {
    "assess_csv": ["assess", "--mu", "0.25", "--sight-ft", "582", "--grade", "0.02",
                   "--format", "csv"],
    "assess_json": ["assess", "--mu", "0.25", "--sight-ft", "582", "--grade", "0.02"],
    "matrix_csv": ["matrix", "--format", "csv"],
    "matrix_json": ["matrix", "--format", "json"],
    "matrix_table": ["matrix"],
    "replay_csv": ["replay", "--input", "{log}"],
}

CLI_GOLDEN_SHA256 = {
    "assess_csv": "d44cee82baa64068ba58b26bc3a487a20d87cf931771ab252203253ce5ebb800",
    "assess_json": "93bac63c82ea384f96a8cee4b3eaefedfce6fe4edfc49ec80c45fb1de20a43b9",
    "matrix_csv": "f85ad9ed7103dbb9df60cf06a10119a10709e0623c4bc5a53e85857bff8a4be2",
    "matrix_json": "0024ec5492219475f26c56bc0a3fa5ec18073cf2930c491b580b1fb57a33dca4",
    "matrix_table": "e3e0c2e5507cd4777509134a73c3dc0b3d257d5c18eb2ab5e4c25087c64302a9",
    "replay_csv": "04bdba25617fc6a4f57b1deb170870bac217a6d9af4a47597fda50e537c0c20b",
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN_SHA256))
def test_cli_stdout_matches_golden_digest(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HAZARD_RISK_CONFIG", raising=False)
    log = tmp_path / "log.csv"
    log.write_text(REPLAY_LOG)
    assert main([arg.format(log=log) for arg in CLI_ARGV[name]]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CLI_GOLDEN_SHA256[name], out
