"""Reference bytes of the CLI outputs.

The sha256 of each file written by `hazardrisk simulate --seed 42` (default
100 samples per scenario, grade 0, design speed 75 mph, built-in catalog),
and of what `assess`, `matrix` and `replay` print (further down); also of
`simulate` with a grade and design speed, of labels and timestamps that
CSV must quote, and of `replay`'s warnings. Any refactor of the engine, the sampler or the writers must reproduce them.
"""

import hashlib

import pytest

import hazardrisk.cli
from hazardrisk.cli import main

GOLDEN_SHA256 = {
    "heatmap.csv": "f85ad9ed7103dbb9df60cf06a10119a10709e0623c4bc5a53e85857bff8a4be2",
    "joint.csv": "b146ffe0de75c8364d390c5d136c6aa562ce36b7f8bd1de70b19c32dabe3f0a8",
    "manifest.json": "f8f5d7bc5e9b4589558661d2a24d9af1d8a2e16d240d3d02ad2ee1d238af10df",
    "marginals.csv": "c30d77214fc952b2dd5f2bfb6c22cb1a2980a85672d6fb55b3b70f0c6360da8f",
    "samples.csv": "51728a3e21bf9a410472748d9779a61a3e0b275c2a6ef6debe4d3e412a58c021",
    "scenario_stats.csv": "b50faf970e685c186404d8746bec992f38ce290f563709f7a5c3bba1285a39c1",
}


# simulate with a grade and a design speed, which the seed-42 run leaves at
# their defaults.
GRADE_SHA256 = {
    "samples.csv": "82e5d9e4c3c29709d5d69bc6aa0f6d8d26321da8a03a077e46285487367c9442",
    "scenario_stats.csv": "0dbf3b6d384dd7ec05c01983d9ba8554bd876caf84c4d72958c3835fe29a2869",
}

# simulate --config with band labels that CSV must quote: a comma in a
# visibility label, double quotes in a friction label.
QUOTED_LABELS = {",Dense Fog,": ',"Dense, Fog",', ",Wet,": ',"Wet ""slick""",'}
QUOTED_LABELS_SHA256 = {
    "samples.csv": "19ffc3a709578625d9a28d41ba3cd0ba9d563904b24772c51b7031536aa807c4",
    "scenario_stats.csv": "063d467918b138f5dbcfa66f6bbc00db9c902105a66ed6e8ed115ee8d31b93f2",
}


@pytest.fixture(scope="module")
def seed42_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["simulate", "--seed", "42", "--out", str(out)]) == 0
    return out


def test_writes_exactly_the_golden_files(seed42_dir):
    assert {p.name for p in seed42_dir.iterdir()} == set(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_matches_golden_digest(seed42_dir, name):
    digest = hashlib.sha256((seed42_dir / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


def test_grade_and_design_speed_match_golden_digests(tmp_path):
    assert main(["simulate", "--seed", "7", "--samples", "2000", "--grade", "0.03",
                 "--design-speed", "55", "--out", str(tmp_path)]) == 0
    for name, want in GRADE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def test_quoted_labels_match_golden_digests(tmp_path, default_rates_csv):
    rates = default_rates_csv
    for old, new in QUOTED_LABELS.items():
        assert rates.count(old) == (2 if "Fog" in old else 1)
        rates = rates.replace(old, new)
    config = tmp_path / "rates.csv"
    config.write_text(rates)
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "3", "--samples", "20", "--config", str(config),
                 "--out", str(out)]) == 0
    for name, want in QUOTED_LABELS_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


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

# A replay log whose timestamps CSV must quote: a comma, a double quote and a
# newline (that record spans lines 4-5), then a row the domain rejects.
QUOTED_REPLAY_LOG = (
    "timestamp,mu,sight_ft\n"
    '"t,0",0.8,5000\n'
    '"t""1",0.25,582\n'
    '"t\n2",0.1,150\n'
    "t3,0,100\n"
    "t4,0.55,700\n"
)

# stdout of the other commands, on the built-in catalog.
CLI_ARGV = {
    "assess_csv": ["assess", "--mu", "0.25", "--sight-ft", "582", "--grade", "0.02",
                   "--format", "csv"],
    "assess_json": ["assess", "--mu", "0.25", "--sight-ft", "582", "--grade", "0.02"],
    # The two readings where the textbook safe speed overflows and the
    # fallback form gives v_fhwa_mph.
    "assess_json_subnormal_mu": ["assess", "--mu", "5e-324", "--sight-ft", "100"],
    "assess_json_huge_sight": ["assess", "--mu", "0.05", "--sight-ft", "1e308"],
    "matrix_csv": ["matrix", "--format", "csv"],
    "matrix_json": ["matrix", "--format", "json"],
    "matrix_table": ["matrix"],
    "replay_csv": ["replay", "--input", "{log}"],
    "replay_quoted_csv": ["replay", "--input", "{quoted_log}"],
}

CLI_GOLDEN_SHA256 = {
    "assess_csv": "d44cee82baa64068ba58b26bc3a487a20d87cf931771ab252203253ce5ebb800",
    "assess_json": "93bac63c82ea384f96a8cee4b3eaefedfce6fe4edfc49ec80c45fb1de20a43b9",
    "assess_json_subnormal_mu": "377fdda3ba87473802bff547323ba4b6aeb7e18bf2fce5bdc8fcddfd2d7fef7f",
    "assess_json_huge_sight": "f479b730c909284cdbee0db8d025dd0552523724d5231c9bee45312e534f7993",
    "matrix_csv": "f85ad9ed7103dbb9df60cf06a10119a10709e0623c4bc5a53e85857bff8a4be2",
    "matrix_json": "0024ec5492219475f26c56bc0a3fa5ec18073cf2930c491b580b1fb57a33dca4",
    "matrix_table": "e3e0c2e5507cd4777509134a73c3dc0b3d257d5c18eb2ab5e4c25087c64302a9",
    "replay_csv": "04bdba25617fc6a4f57b1deb170870bac217a6d9af4a47597fda50e537c0c20b",
    "replay_quoted_csv": "c17770d941d44ffe49b89da62129a93d221f5fddeba2313cdb6be9da5a4fb8ae",
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN_SHA256))
def test_cli_stdout_matches_golden_digest(name, tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(REPLAY_LOG)
    quoted_log = tmp_path / "quoted_log.csv"
    quoted_log.write_text(QUOTED_REPLAY_LOG)
    argv = [arg.format(log=log, quoted_log=quoted_log) for arg in CLI_ARGV[name]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CLI_GOLDEN_SHA256[name], out


# A replay log with every reason replay skips a row: empty mu and sight_ft
# cells, unparseable tokens, nan and inf, mu outside (0, 1], a negative sight
# distance, mu + grade <= 0, a short and a long row; a blank line and two
# timestamps that span two lines (records on lines 6-7 and 17-18).
SKIP_REASONS_LOG = (
    "timestamp,mu,sight_ft,grade,design_speed\n"
    "t0,0.8,5000,,\n"
    "t1,,100,,\n"
    "t2,0.5,,0.01,\n"
    "\n"
    '"t\n3",abc,100,,\n'
    "t4,nan,100,,\n"
    "t5,0.5,inf,,\n"
    "t6,1.5,100,,\n"
    "t7,0.5,-1,,\n"
    "t8,0.1,100,-0.2,\n"
    "t9,0.5\n"
    "t10,0.5,100,0,75,9\n"
    "t11,0.3,700,x,55\n"
    "t12,0.3,700,0.02,nan\n"
    '"t\n13",0.25,582,0.02,\n'
    "t14,0,12345.678,,65.5\n"
    "t15,0.55,12345.678,,65.5\n"
)
SKIP_REASONS_SHA256 = {
    "stdout": "7553a58341bf73d4f21d4205120113b7bc4daf5d38515df1f582b92228b1834a",
    "stderr": "6a1868b2196ab2471dde89a615593df1468f88103fc457b6968f64dad2d3c508",
}


def test_replay_skip_reasons_match_golden_digests(tmp_path, capsys, monkeypatch):
    log = tmp_path / "log.csv"
    log.write_text(SKIP_REASONS_LOG)
    assert main(["replay", "--input", str(log)]) == 0
    captured = capsys.readouterr()
    assert "warning: line 3: skipped (could not convert string to float: '')\n" in captured.err
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in [("stdout", captured.out), ("stderr", captured.err)]}
    assert digests == SKIP_REASONS_SHA256, captured
    # Blocks of 3 records: the blank line and a multi-line record fall at a
    # block boundary.
    monkeypatch.setattr(hazardrisk.cli, "BLOCK_ROWS", 3)
    assert main(["replay", "--input", str(log)]) == 0
    assert capsys.readouterr() == captured
