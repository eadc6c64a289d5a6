"""Command-line interface: simulate, assess, replay, matrix.

Exit codes follow sysexits conventions: 0 success, 2 unwritable output,
64 usage / invalid configuration, 65 no valid input data, 66 missing input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from stat import S_IMODE, S_ISREG

from . import __version__
from .bands import BandCatalog, EnvironmentReading, default_catalog, load_catalog
from .probability import joint_probability, normalize_marginals
from .reporting import (
    ASSESSMENT_COLUMNS,
    HEATMAP_COLUMNS,
    REPLAY_COLUMNS,
    assessment_record,
    assessment_row,
    heatmap_rows,
    write_heatmap,
    write_joint,
    write_manifest,
    write_marginals,
    write_rows,
    write_samples,
    write_scenario_stats,
)
from .risk import assess, risk_matrix
from .sampler import SamplerConfig, generate_dataset, scenario_statistics

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_NODATA = 65
EXIT_NOINPUT = 66

CONFIG_ENV_VAR = "HAZARD_RISK_CONFIG"


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
    catalog, table_source = _resolve_catalog(args.config)
    config = SamplerConfig(
        seed=args.seed,
        samples_per_scenario=args.samples,
        sigma_rule=args.sigma_rule,
    )
    p_f, p_v, joint = _build_joint(catalog)
    samples = generate_dataset(config, catalog)
    assessed = []
    for record in samples.records:
        reading = EnvironmentReading(
            mu=record.mu,
            sight_distance=record.sight_ft,
            grade=args.grade,
            design_speed=args.design_speed,
        )
        assessed.append((record.scenario_id, assess(reading, catalog, joint)))
    stats = scenario_statistics(samples, [a.risk_score for _, a in assessed])

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = {
            "samples.csv": write_samples(out_dir / "samples.csv", assessed),
            "scenario_stats.csv": write_scenario_stats(
                out_dir / "scenario_stats.csv", stats
            ),
            "heatmap.csv": write_heatmap(out_dir / "heatmap.csv"),
            "marginals.csv": write_marginals(
                out_dir / "marginals.csv", catalog, p_f, p_v
            ),
            "joint.csv": write_joint(out_dir / "joint.csv", joint),
        }
        write_manifest(
            out_dir / "manifest.json",
            command="simulate",
            version=__version__,
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
    reading = EnvironmentReading(
        mu=args.mu,
        sight_distance=args.sight_ft,
        grade=args.grade,
        design_speed=args.design_speed,
    )
    _, _, joint = _build_joint(catalog)
    assessment = assess(reading, catalog, joint)
    if args.format == "json":
        print(json.dumps(assessment_record(assessment), indent=2))
    else:
        write_rows(sys.stdout, ASSESSMENT_COLUMNS, [assessment_row(assessment)])
    return EXIT_OK


def _scored_rows(reader: csv.DictReader, catalog: BandCatalog, joint, design_speed: float):
    """Replay output rows for the valid readings of a log; each invalid row
    is skipped with a line-numbered warning."""
    for lineno, row in enumerate(reader, start=2):
        try:
            if None in row or None in row.values():
                raise ValueError("field count differs from header")
            reading = EnvironmentReading(
                mu=float(row["mu"]),
                sight_distance=float(row["sight_ft"]),
                grade=float(row.get("grade") or 0.0),
                design_speed=float(row.get("design_speed") or design_speed),
            )
        except ValueError as exc:
            print(f"warning: line {lineno}: skipped ({exc})", file=sys.stderr)
            continue
        yield (row["timestamp"], *assessment_row(assess(reading, catalog, joint)))


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
    target = Path(f"{path}.{os.getpid()}.tmp" if whole else path)
    try:
        with open(target, "w", newline="", encoding="utf-8") as out:
            yield out
        if whole:
            if old:
                os.chmod(target, S_IMODE(old.st_mode))
            os.replace(target, path)
    except BaseException:
        if whole:
            target.unlink(missing_ok=True)
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
        with open(input_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"timestamp", "mu", "sight_ft"}.issubset(
                reader.fieldnames
            ):
                print(
                    "error: input must have columns timestamp,mu,sight_ft[,grade][,design_speed]",
                    file=sys.stderr,
                )
                return EXIT_NODATA
            rows = _scored_rows(reader, catalog, joint, args.design_speed)
            first = next(rows, None)
            if first is None:
                print("error: no valid rows in input", file=sys.stderr)
                return EXIT_NODATA
            try:
                with _replay_output(args.out) as out:
                    write_rows(out, REPLAY_COLUMNS, chain([first], rows))
            except OSError as exc:
                print(f"error: cannot write output: {exc}", file=sys.stderr)
                return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {input_path} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_NODATA
    except csv.Error as exc:
        print(
            f"error: {input_path} is not readable CSV at line {reader.reader.line_num}: {exc}",
            file=sys.stderr,
        )
        return EXIT_NODATA
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    matrix = risk_matrix()
    if args.format == "csv":
        write_rows(sys.stdout, HEATMAP_COLUMNS, heatmap_rows())
    elif args.format == "json":
        cells = [
            {
                "probability_score": p + 1,
                "severity_score": s + 1,
                "risk_score": matrix[s][p][0],
                "risk_level": matrix[s][p][1].value,
            }
            for s in range(5)
            for p in range(5)
        ]
        print(json.dumps(cells, indent=2))
    else:
        print("severity \\ probability" + "".join(f"{p:>18}" for p in range(1, 6)))
        for s in reversed(range(5)):
            cells = [f"{matrix[s][p][0]:>3} {matrix[s][p][1].value:<14}" for p in range(5)]
            print(f"{s + 1:>21} " + "".join(cells))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazardrisk",
        description="Compound roadway-hazard risk scoring and scenario simulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        help="run the Monte Carlo case study over the catalog's scenario grid "
        "(16 with the built-in catalog)",
    )
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
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the usage code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # The one place an invalid flag, reading or --config becomes exit 64;
    # commands handle only the errors that map to another code.
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
