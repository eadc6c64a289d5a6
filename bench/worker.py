"""Workload process: runs one workload command, optionally traced.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON names the mode ("cli" runs hazardrisk.cli.main on "argv";
"assess" calls hazardrisk.assess once per row of the "readings" .npy file),
"trace" and the "result" path, where this process writes its timings,
counts and exit code as JSON. run.py starts it with hazardrisk's sources on
PYTHONPATH and one thread for numpy and BLAS.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# Columns of the assess result matrix; labels and levels as indexes in the
# orders reference.py uses.
ASSESS_COLUMNS = ("friction", "visibility", "joint", "prob_score", "v_fhwa", "v_scaled",
                  "v_advisory", "reduction", "severity_score", "risk", "level")
CHUNK = 4096


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def run_cli(spec: dict, tracer) -> dict:
    import hazardrisk.cli

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    rc = hazardrisk.cli.main(spec["argv"])
    result = {"rc": rc, "end": time.perf_counter()}
    if tracer is not None:
        argv = spec["argv"]
        read = _lines(Path(argv[argv.index("--input") + 1])) - 1 if "--input" in argv else 0
        out = Path(argv[argv.index("--out") + 1])
        written = _lines(out) - 1 if out.is_file() else 0
        result["counts"] = {
            "cli.rows_read": read,
            "cli.rows_skipped": read - written if read else 0,
            "cli.bytes_written": out.stat().st_size if out.is_file() else 0,
        }
    return result


def run_assess(spec: dict, tracer) -> dict:
    """A closed loop of one caller: each call starts when the previous ends."""
    import numpy as np

    import hazardrisk
    import reference

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    readings = np.load(spec["readings"])
    clock = time.perf_counter_ns
    friction = {label: i for i, label in enumerate(reference.FRICTION_LABELS)}
    visibility = {label: i for i, label in enumerate(reference.VISIBILITY_LABELS)}
    levels = {label: i for i, label in enumerate(reference.LEVELS)}
    latency = array("q")
    out = array("d")

    begin = time.perf_counter()
    catalog = hazardrisk.default_catalog()
    joint = hazardrisk.joint_probability(
        hazardrisk.normalize_marginals(list(catalog.friction_bands)),
        hazardrisk.normalize_marginals(list(catalog.visibility_bands)),
    )
    reading_type, assess = hazardrisk.EnvironmentReading, hazardrisk.assess
    for start in range(0, len(readings), CHUNK):
        for mu, sight, grade, speed in readings[start:start + CHUNK].tolist():
            t0 = clock()
            a = assess(reading_type(mu=mu, sight_distance=sight, grade=grade,
                                    design_speed=speed), catalog, joint)
            latency.append(clock() - t0)
            p = a.speed_profile
            out.extend((friction[a.friction_label], visibility[a.visibility_label],
                        a.joint_probability, a.probability_score, p.v_fhwa, p.v_scaled,
                        p.v_advisory, p.reduction_pct, a.severity_score, a.risk_score,
                        levels[a.risk_level.value]))
    end = time.perf_counter()
    rep = Path(spec["result"]).parent
    np.save(rep / "assess_results.npy",
            np.frombuffer(out, dtype=np.float64).reshape(-1, len(ASSESS_COLUMNS)))
    np.save(rep / "latency_ns.npy", np.frombuffer(latency, dtype=np.int64))
    return {"rc": 0, "end": end, "command_s": end - begin}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
    result = (run_cli if spec["mode"] == "cli" else run_assess)(spec, tracer)
    if tracer is not None:
        layers = tracer.layers()
        layers.update(result.pop("counts", {}))
        result["layers"] = layers
        tracer.dump(Path(spec["result"]).with_name("spans.npz"))
    # Time spent here, after the command, is the benchmark's, not the program's.
    result["post_s"] = time.perf_counter() - result.pop("end")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
