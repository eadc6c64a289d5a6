"""Command-line interface: simulate, assess, replay, matrix.

Exit codes follow sysexits conventions: 0 success, 2 unwritable output,
64 usage / invalid configuration, 65 no valid input data, 66 missing input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from stat import S_IMODE, S_ISREG

from . import __version__
from .bands import (BandCatalog, EnvironmentReading, default_catalog, load_catalog,
                    numbered_records, repeated_column)
from .probability import joint_probability, normalize_marginals
from .reporting import (ASSESSMENT_COLUMNS, HEATMAP_COLUMNS, REPLAY_COLUMNS, assessment_record,
                        heatmap_rows, write_assessed, write_heatmap, write_joint, write_manifest,
                        write_marginals, write_rows, write_samples, write_scenario_stats)
from .risk import assess, risk_matrix

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_NODATA = 65
EXIT_NOINPUT = 66

CONFIG_ENV_VAR = "HAZARD_RISK_CONFIG"

# Readings scored and written per block: memory does not grow with the input.
BLOCK_ROWS = 1 << 11


def _resolve_catalog(config_path: str | None) -> tuple[BandCatalog, str]:
    """Catalog from --config, else $HAZARD_RISK_CONFIG, else built-in defaults."""
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_catalog(path), str(path)
    return default_catalog(), "builtin"


def _build_joint(catalog: BandCatalog):
    p_f = normalize_marginals(list(catalog.friction_bands))
    p_v = normalize_marginals(list(catalog.visibility_bands))
    return p_f, p_v, joint_probability(p_f, p_v)


def cmd_simulate(args: argparse.Namespace) -> int:
    # numpy loads only in simulate and replay: assess and matrix start without it.
    import numpy as np

    from .batch import assess_columns, valid_readings
    from .sampler import SamplerConfig, by_mean_risk, scenario_samples, scenario_stats

    catalog, table_source = _resolve_catalog(args.config)
    config = SamplerConfig(args.seed, args.samples, args.sigma_rule)
    p_f, p_v, joint = _build_joint(catalog)
    grade, design = args.grade, args.design_speed
    # A first pass raises at the first draw outside the domain, with the reading's
    # message, before any file is written.
    for _, mu, sight in scenario_samples(config, catalog):
        for i in np.flatnonzero(~valid_readings(mu, sight, grade, design)):
            EnvironmentReading(float(mu[i]), float(sight[i]), grade, design)
    stats = []

    def scored_blocks():
        # One scenario at a time, drawn again: scored, written, then its stats row.
        for scenario, mu, sight in scenario_samples(config, catalog):
            scores = []
            for start in range(0, len(mu), BLOCK_ROWS):
                block = slice(start, start + BLOCK_ROWS)
                columns = assess_columns(mu[block], sight[block], grade, design, catalog, joint)
                scores.append(columns["risk_score"])
                yield np.full(len(scores[-1]), scenario.scenario_id), columns
            stats.append(scenario_stats(scenario, np.concatenate(scores)))

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        samples_rows = write_samples(out_dir / "samples.csv", scored_blocks())
        outputs = {
            "samples.csv": samples_rows,
            "scenario_stats.csv": write_scenario_stats(out_dir / "scenario_stats.csv",
                                                       by_mean_risk(stats)),
            "heatmap.csv": write_heatmap(out_dir / "heatmap.csv"),
            "marginals.csv": write_marginals(out_dir / "marginals.csv", catalog, p_f, p_v),
            "joint.csv": write_joint(out_dir / "joint.csv", joint),
        }
        write_manifest(
            out_dir / "manifest.json", "simulate", __version__,
            config={
                "seed": config.seed,
                "samples_per_scenario": config.samples_per_scenario,
                "sigma_rule": config.sigma_rule,
                "design_speed_mph": args.design_speed,
                "grade": args.grade,
                "table_source": table_source,
            },
            outputs={**outputs, "manifest.json": 1},
        )
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_assess(args: argparse.Namespace) -> int:
    catalog, _ = _resolve_catalog(args.config)
    reading = EnvironmentReading(args.mu, args.sight_ft, args.grade, args.design_speed)
    _, _, joint = _build_joint(catalog)
    record = assessment_record(assess(reading, catalog, joint))
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        write_rows(sys.stdout, ASSESSMENT_COLUMNS, [[record[n] for n in ASSESSMENT_COLUMNS]])
    return EXIT_OK


def _number(text: str, default) -> float:
    """float() of text, or of `default` if text is blank; NaN where float() raises."""
    try:
        return float(text or default)
    except ValueError:
        return math.nan  # outside the domain: the row is then parsed alone for its message


def _scored_blocks(reader, header: list[str], design_speed: float, catalog, joint):
    """(timestamps, assess_columns result) of the valid readings in each block
    of BLOCK_ROWS log records that has one. Blank lines are skipped; a row not
    as wide as the header is skipped with a warning, as is each row the domain
    mask rejects, parsed alone for its message. Warnings go out in line order."""
    import numpy as np

    from .batch import assess_columns, valid_readings

    # An empty grade or design_speed cell, or no such column, takes the default.
    defaults = {"mu": "", "sight_ft": "", "grade": 0.0, "design_speed": design_speed}
    records = numbered_records(reader)
    while block := list(islice(records, BLOCK_ROWS)):
        kept = [(line, row) for line, row in block if len(row) == len(header)]
        warnings = [(line, "field count differs from header")
                    for line, row in block if row and len(row) != len(header)]
        fields = dict(zip(header, zip(*(row for _, row in kept))))
        texts = [(fields.get(name, (d,) * len(kept)), d) for name, d in defaults.items()]
        values = [np.array([_number(text, d) for text in column]) for column, d in texts]
        ok = valid_readings(*values)
        for i in np.flatnonzero(~ok).tolist():
            try:
                EnvironmentReading(*(float(column[i] or d) for column, d in texts))
            except ValueError as exc:
                warnings.append((kept[i][0], exc))
        sys.stderr.write("".join(f"warning: line {line + 1}: skipped ({reason})\n"
                                 for line, reason in sorted(warnings, key=itemgetter(0))))
        if ok.any():
            yield (np.array(fields["timestamp"], dtype=object)[ok],
                   assess_columns(*(v[ok] for v in values), catalog, joint))


@contextmanager
def _replay_output(path: str | None):
    """Replay's output stream: stdout; else a temporary file beside `path`,
    renamed onto it with the old file's mode only once the block completes and
    removed on any exception, so a file at `path` keeps its bytes. A path that
    a rename would change in more than its bytes (a device, FIFO or symlink, a
    file with other links or another owner, or one in a read-only directory)
    is written through instead."""
    if not path:
        yield sys.stdout
        return
    old = os.lstat(path) if os.path.lexists(path) else None
    whole = os.access(os.path.dirname(path) or ".", os.W_OK) and (
        old is None or (S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid())
    )
    target = f"{path}.{os.getpid()}.tmp" if whole else path
    # A temporary name that is already taken, even by a symlink, is an error:
    # only a file this run created is written, renamed or removed.
    fd = os.open(target, os.O_WRONLY | os.O_CREAT | (os.O_EXCL if whole else os.O_TRUNC), 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as out:
            yield out
        if whole:
            if old:
                os.chmod(target, S_IMODE(old.st_mode))
            os.replace(target, path)
    except BaseException:
        if whole:
            Path(target).unlink(missing_ok=True)
        raise


def cmd_replay(args: argparse.Namespace) -> int:
    catalog, _ = _resolve_catalog(args.config)
    # Every row without its own design_speed uses the flag: check it once, on
    # an otherwise valid reading, instead of skipping each such row.
    EnvironmentReading(mu=1.0, sight_distance=0.0, design_speed=args.design_speed)
    input_path = Path(args.input)
    if not input_path.is_file():
        print(f"error: input file not found: {input_path}", file=sys.stderr)
        return EXIT_NOINPUT
    _, _, joint = _build_joint(catalog)

    try:
        with open(input_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or not {"timestamp", "mu", "sight_ft"}.issubset(header):
                print("error: input must have columns timestamp,mu,sight_ft[,grade][,design_speed]",
                      file=sys.stderr)
                return EXIT_NODATA
            if repeated := repeated_column(header, (
                    "timestamp", "mu", "sight_ft", "grade", "design_speed")):
                print(f"error: {input_path}: header repeats column {repeated!r}", file=sys.stderr)
                return EXIT_NODATA
            scored = _scored_blocks(reader, header, args.design_speed, catalog, joint)
            first = next(scored, None)
            if first is None:
                print("error: no valid rows in input", file=sys.stderr)
                return EXIT_NODATA
            try:
                with _replay_output(args.out) as out:
                    write_assessed(out, REPLAY_COLUMNS, chain([first], scored))
            except OSError as exc:
                print(f"error: cannot write output: {exc}", file=sys.stderr)
                return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {input_path} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_NODATA
    except csv.Error as exc:
        print(f"error: {input_path} is not readable CSV at line {reader.line_num}: {exc}",
              file=sys.stderr)
        return EXIT_NODATA
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    matrix = risk_matrix()
    if args.format == "csv":
        write_rows(sys.stdout, HEATMAP_COLUMNS, heatmap_rows())
    elif args.format == "json":
        names = ("probability_score", "severity_score", "risk_score", "risk_level")
        cells = [dict(zip(names, (p + 1, s + 1, matrix[s][p][0], matrix[s][p][1].value)))
                 for s in range(5) for p in range(5)]
        print(json.dumps(cells, indent=2))
    else:
        print("severity \\ probability" + "".join(f"{p:>18}" for p in range(1, 6)))
        for s in reversed(range(5)):
            cells = [f"{matrix[s][p][0]:>3} {matrix[s][p][1].value:<14}" for p in range(5)]
            print(f"{s + 1:>21} " + "".join(cells))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with two changes, which its subcommand parsers share: a flag
    value such as -1e-3, -inf or -nan is read as a number, not as an unknown
    option; a usage error is one `error: ...` line and exit 64."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # argparse's own pattern knows only -1 and -1.5.
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hazardrisk", description="Compound roadway-hazard risk scoring and scenario simulation")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo case study over the catalog's "
                           "scenario grid (16 with the built-in catalog)")
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--samples", type=int, default=100, help="samples per scenario")
    p_sim.add_argument("--sigma-rule", type=float, default=6.0)
    p_sim.add_argument("--design-speed", type=float, default=75.0)
    p_sim.add_argument("--grade", type=float, default=0.0)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--config", help="crash-rate CSV override")
    p_sim.set_defaults(func=cmd_simulate)

    p_assess = sub.add_parser("assess", help="score a single environment reading")
    p_assess.add_argument("--mu", type=float, required=True)
    p_assess.add_argument("--sight-ft", type=float, required=True)
    p_assess.add_argument("--grade", type=float, default=0.0)
    p_assess.add_argument("--design-speed", type=float, default=75.0)
    p_assess.add_argument("--format", choices=["json", "csv"], default="json")
    p_assess.add_argument("--config", help="crash-rate CSV override")
    p_assess.set_defaults(func=cmd_assess)

    p_replay = sub.add_parser("replay", help="assess a CSV log of readings")
    p_replay.add_argument("--input", required=True)
    p_replay.add_argument("--out", help="output CSV path (default: stdout)")
    p_replay.add_argument("--design-speed", type=float, default=75.0)
    p_replay.add_argument("--config", help="crash-rate CSV override")
    p_replay.set_defaults(func=cmd_replay)

    p_matrix = sub.add_parser("matrix", help="print the 5x5 risk matrix")
    p_matrix.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_matrix.set_defaults(func=cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help or --version, else EXIT_USAGE
        return exc.code
    # The one place an invalid flag, reading, --config or a run too large for
    # memory becomes exit 64; commands handle only errors that map elsewhere.
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
