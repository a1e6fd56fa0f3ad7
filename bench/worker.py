"""One workload in one fresh process: warm up, export in a closed loop, check.

Started by ``run.py``; prints one JSON object on stdout.  The loop has a
single client that calls ``quditgeom.cli.main(argv)`` in-process, one
export after another, and repeats the workload's pass until ``--seconds``
have elapsed.  Only the ``cli.main`` call is timed; the calibration kernel
of ``calibrate.py`` is timed between exports, at the start of every pass
and once for every 0.5 s of run time.  Every output is kept on disk and checked after the loop,
once the peak resident memory has been read, so neither the checker's time
nor its memory counts.

With ``--trace 1`` the first pass runs untraced, as the reference for the
tracing overhead, and every later pass runs under the span tracer.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import checker
import tracer as tracing
import workloads


CALIBRATE_EVERY_S = 0.5


def _call(main, argv: list):
    """Run one export; returns (seconds, exit code or None, error text)."""
    t0 = time.perf_counter()
    try:
        code = main(argv)
        error = None
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code, error = exc.code, f"SystemExit({exc.code!r})"
    except Exception:  # noqa: BLE001 - a crashing export is a counted failure
        code, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, code, error


def _version(distribution: str) -> str | None:
    """Installed version of a distribution, read without importing it."""
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    from quditgeom import cli

    ops = workloads.generate(workload, seed)
    for k, op in enumerate(workloads.warmup(ops)):
        _, code, error = _call(cli.main, [*op.warm_argv, "--out", str(tmp / f"warm{k}")])
        if code != 0:
            raise RuntimeError(f"warm-up export {op.kind} failed: {code!r} {error or ''}")

    exports = []
    kernels = []  # (pass, seconds) of the calibration kernel
    tracer = None
    begin = last_kernel = time.perf_counter()
    pass_index = 0
    try:
        while True:
            if trace and pass_index == 1:
                tracer = tracing.Tracer()
                tracer.install()
            for op_index, op in enumerate(ops):
                # one kernel per CALIBRATE_EVERY_S of run time, run between
                # exports, so that long exports weigh as much in the mean
                # kernel time as they do in the run
                due = int((time.perf_counter() - last_kernel) / CALIBRATE_EVERY_S)
                if op_index == 0 or due:
                    kernels.extend((pass_index, calibrate.kernel_seconds())
                                   for _ in range(max(1, due)))
                    last_kernel = time.perf_counter()
                # fixed-width names keep the sidecar (which echoes --out) the same size
                path = tmp / f"p{pass_index:03d}-o{op_index:03d}"
                elapsed, code, error = _call(cli.main, [*op.argv, "--out", str(path)])
                exports.append({"pass": pass_index, "op": op_index, "seconds": elapsed,
                                "code": code, "error": error, "path": str(path)})
            pass_index += 1
            if time.perf_counter() - begin >= seconds and (not trace or pass_index >= 2):
                break
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for record in exports:
        op = ops[record["op"]]
        result = checker.check_export(op.params, record.pop("path"), record["code"])
        if record["error"]:
            result.problems.append(record["error"])
        record.update(rows=result.rows, out_bytes=result.out_bytes,
                      invariant_defect=result.invariant_defect, problems=result.problems)

    return {
        "ops": [op.as_record() for op in ops],
        "passes": pass_index,
        "exports": exports,
        "peak_rss_mb": peak_rss_mb,
        "kernels": kernels,
        "spans": tracer.arrays() if tracer is not None else None,
        "curve_nodes": list(tracer.curve_nodes) if tracer is not None else None,
    }


def _speed_scale(kernels: list) -> float:
    return calibrate.scale(statistics.fmean(seconds for _, seconds in kernels))


def end_to_end(result: dict) -> dict:
    """Times at nominal machine speed, and the same figures in wall-clock time."""
    times = [e["seconds"] for e in result["exports"]]
    wall = {
        "rows_per_s": sum(e["rows"] for e in result["exports"]) / sum(times),
        "export_s.p50": statistics.median(times),
        "export_s.p90": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
    }
    scale = _speed_scale(result["kernels"])
    return {
        "rows_per_s": wall["rows_per_s"] / scale,
        "export_s.p50": wall["export_s.p50"] * scale,
        "export_s.p90": wall["export_s.p90"] * scale,
        **{f"{name}.wall": value for name, value in wall.items()},
        "speed_scale": scale,
        "export_samples": len(times),
        "kernel_samples": len(result["kernels"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    """Per-layer metrics of the traced passes, each per pass of the op list."""
    exports = result["exports"]
    traced = [e for e in exports if e["pass"] >= 1]
    passes = result["passes"] - 1
    summary = tracing.layer_summary(result["spans"])
    out = {key: value / passes for key, value in summary.items()
           if key.endswith((".calls", ".self_s"))}
    out["cli.exports"] = summary["cli.main.calls"] / passes
    out["cli.rows"] = sum(e["rows"] for e in traced) / passes
    out["cli.out_bytes"] = sum(e["out_bytes"] for e in traced) / passes
    rep_calls = summary["representations.calls"]
    out["representations.rows_per_call"] = (
        summary["representations.rows"] / rep_calls if rep_calls else 0.0)
    nodes, masked, physical = result["curve_nodes"]
    out["curves.nodes"] = nodes / passes
    out["curves.masked_nodes"] = masked / passes
    out["curves.physical_ratio"] = physical / nodes if nodes else 0.0
    defects = [e["invariant_defect"] for e in exports if e["invariant_defect"] is not None]
    out["curves.max_invariant_defect"] = max(defects, default=0.0)
    # each pass in nominal seconds, so that drift in machine speed between the
    # untraced and the traced passes does not count as overhead
    nominal = [
        sum(e["seconds"] for e in exports if e["pass"] == k)
        * _speed_scale([kernel for kernel in result["kernels"] if kernel[0] == k])
        for k in range(result["passes"])
    ]
    out["trace.overhead_s"] = statistics.median(nominal[1:]) - nominal[0]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True, help="directory for the exported files")
    parser.add_argument("--spans", help="write the traced spans to this .npz (with --trace 1)")
    args = parser.parse_args(argv)
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")

    import quditgeom
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.tmp))
    exports = result["exports"]
    report = {
        "ops": result["ops"],
        "passes": result["passes"],
        "attempted": len(exports),
        "failed": sum(1 for e in exports if e["problems"]),
        "exports": exports,
        "environment": {
            "quditgeom": os.path.dirname(quditgeom.__file__),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": _version("scipy"),
        },
    }
    if args.trace:
        report["per_layer"] = per_layer(result)
        np.savez_compressed(args.spans, **result["spans"])
    else:
        report["end_to_end"] = end_to_end(result)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
