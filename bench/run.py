"""Benchmark of the quditgeom export CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` it prints the end-to-end metrics of the workload, with
``--trace 1`` the per-layer metrics of a traced run (see bench/README.md).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.  The full record of the run (generated argv lists, every
export's time and check result, the environment) is written to
``bench/results/<workload>-seed<n>-trace<t>.json``.

This launcher uses only the standard library.  It times ``import
quditgeom.cli`` in fresh interpreters (``setup_s``), then runs the
workload in one more fresh process (``bench/worker.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("locus-surface", "state-table", "phase-grid", "small-export")
SETUP_PROBES = 9
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MMAP_THRESHOLD = 128 * 1024  # glibc's initial default
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quditgeom.cli; "
                "print(time.perf_counter() - t)")


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> tuple:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = str(max(1, min(nproc or 1, 2)))
    env = dict(os.environ)
    env.update({name: threads for name in THREAD_VARS})
    # A fixed glibc mmap threshold stops it from sliding with the allocation
    # history, which otherwise makes peak RSS depend on the order of the ops.
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    record = {
        "git_sha": _git_sha(),
        "nproc": nproc,
        "thread_caps": {name: threads for name in THREAD_VARS},
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    return env, record


def _remaining(start: float) -> float:
    return DEADLINE_S - (time.perf_counter() - start)


def _setup_samples(env: dict, start: float) -> list:
    """Wall seconds of ``import quditgeom.cli`` in a few fresh interpreters.

    Unlike the export times these are not scaled by the calibration kernel:
    an import takes under a second, and the kernel timed beside it in the
    same interpreter tracks its speed so poorly that scaling doubled the
    spread of the probes.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               timeout=_remaining(start))
        if probe.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def _metric_specs(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def _summary_lines(args, report: dict, metrics: dict) -> list:
    lines = [f"# workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
             f"{report['passes']} passes of {len(report['ops'])} ops"]
    for name, entry in metrics.items():
        lines.append(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        e2e = report["end_to_end"]
        lines.append(f"{'fail_ratio':34s} {report['failed']}/{report['attempted']} failed/attempted")
        if args.workload == "small-export":
            lines.append(f"{'export_s.p90':34s} {e2e['export_s.p90']:.6g} s "
                         f"({e2e['export_samples']} samples)")
        lines.append(f"{'speed_scale':34s} {e2e['speed_scale']:.6g} nominal s per wall s")
        for name in ("rows_per_s", "export_s.p50"):
            lines.append(f"{name + '.wall':34s} {e2e[name + '.wall']:.6g} "
                         f"{metrics[name]['unit']} (wall clock)")
    kinds = {}
    for export in report["exports"]:
        kinds.setdefault(report["ops"][export["op"]]["kind"], []).append(export["seconds"])
    for kind, times in sorted(kinds.items()):
        lines.append(f"  {kind:32s} median {statistics.median(times):.4g} s over {len(times)}")
    for export in report["exports"]:
        if export["problems"]:
            argv = " ".join(report["ops"][export["op"]]["argv"])
            lines.append(f"  FAILED {argv}: {export['problems'][0]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the quditgeom export CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "quditgeom" / "cli.py").is_file():
        print(f"error: no quditgeom sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    specs = _metric_specs(args.trace)
    env, record = _environment()
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BENCH / ".tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BENCH / ".tmp")
    try:
        setup = [] if args.trace else _setup_samples(env, start)
        command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--tmp", os.path.relpath(tmp, ROOT)]
        if args.trace:
            command += ["--spans", str(results / f"{stem}-spans.npz")]
        worker = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=_remaining(start))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])
    if Path(report["environment"]["quditgeom"]).resolve() != (SRC / "quditgeom").resolve():
        print(f"error: imported quditgeom from {report['environment']['quditgeom']}",
              file=sys.stderr)
        return 1

    values = report["per_layer"] if args.trace else report["end_to_end"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    report["environment"].update(record)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_s_samples=setup, metrics=metrics)
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for line in _summary_lines(args, report, metrics):
        print(line)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
