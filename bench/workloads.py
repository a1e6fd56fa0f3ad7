"""Seeded op lists for the four benchmark workloads.

A workload is a fixed multiset of CLI exports (one *pass*).  The seed picks
only parameter values, inside the ranges below, and the order of the ops,
so every seed asks for the same amount of work: the same subcommands, the
same sizes, the same formats and the same row counts.  A run repeats its
pass until the measuring window is spent, so the mix of ops in a run never
depends on how many passes fit.

Each op carries the argv the program receives (``--out`` is appended by the
runner), the parameters the output checker needs for its closed-form
expectations, and a reduced argv of the same kind for the warm-up pass.
The CLI's reserved ``--seed`` option is never passed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("locus-surface", "state-table", "phase-grid", "small-export")

# The CLI default beta grid, spelled out so the checker knows its length.
BETA_GRID = "0,log:1e-3:1e3:200"
BETA_GRID_SIZE = 201
QUQUART_MESH = (128, 256)
QUTRIT_SAMPLES = 512
BOUNDARY_SAMPLES = 512
PHASE_GRID = 100
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Op:
    """One export: its kind, the argv the CLI receives and checker params."""

    kind: str
    argv: tuple
    params: dict = field(hash=False)
    warm_argv: tuple = ()

    def as_record(self) -> dict:
        return {"kind": self.kind, "argv": list(self.argv)}


def _num(x: float) -> str:
    return f"{x:.6f}"


def _spin_value(text: str) -> float:
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


def _locus_surface(rng: random.Random) -> list:
    ops = {"t4": [], "t3": []}
    ranges = {"t4": (0.03, 0.15), "t3": (0.08, 0.25)}
    for which, (lo, hi) in ranges.items():
        for fmt in rng.sample(FORMATS, 2):
            value = _num(rng.uniform(lo, hi))
            base = ("locus", "--n", "4", f"--{which}", value, "--format", fmt)
            ops[which].append(Op(
                kind=f"locus-n4-{which}.{fmt}",
                argv=base,
                params={"command": "locus", "n": 4, "format": fmt, "which": which,
                        "value": float(value), "mesh": QUQUART_MESH},
                warm_argv=base + ("--theta-samples", "8", "--phi-samples", "16"),
            ))
    first, second = rng.sample(("t4", "t3"), 2)
    return [op for pair in zip(ops[first], ops[second]) for op in pair]


def _state_table(rng: random.Random) -> list:
    ops = []
    for fmt in FORMATS:
        for n, grid in ((3, 280), (4, 60), (5, 29)):
            base = ("map", "--n", str(n), "--format", fmt, "--validate")
            ops.append(Op(
                kind=f"map-n{n}.{fmt}",
                argv=base + ("--grid", str(grid)),
                params={"command": "map", "n": n, "grid": grid, "format": fmt},
                warm_argv=base + ("--grid", "6"),
            ))
        base = ("flower", "--model", "linear", "--J", "3/2", "--format", fmt, "--validate")
        ops.append(Op(
            kind=f"flower-linear.{fmt}",
            argv=base + ("--beta-grid", BETA_GRID),
            params={"command": "flower", "n": 4, "format": fmt, "betas": BETA_GRID_SIZE},
            warm_argv=base + ("--beta-grid", "0,1"),
        ))
        gx, gy = _num(rng.uniform(-2.0, 2.0)), _num(rng.uniform(-2.0, 2.0))
        base = ("flower", "--model", "lmg", "--J", "2", "--gx", gx, "--gy", gy,
                "--format", fmt, "--validate")
        ops.append(Op(
            kind=f"flower-lmg.{fmt}",
            argv=base + ("--beta-grid", BETA_GRID),
            params={"command": "flower", "n": 5, "format": fmt, "betas": BETA_GRID_SIZE},
            warm_argv=base + ("--beta-grid", "0,1"),
        ))
    rng.shuffle(ops)
    return ops


def _phase_grid(rng: random.Random) -> list:
    ops = []
    for spin, formats in (("1", FORMATS), ("3/2", FORMATS[::-1])):
        for coords, fmt in zip(("gpm", "gxy"), formats):
            beta = _num(rng.uniform(0.2, 5.0))
            half = _num(rng.uniform(2.0, 4.0))
            window = f"-{half}:{half}:{PHASE_GRID}"
            base = ("phase-diagram", "--J", spin, "--beta", beta, "--coords", coords,
                    "--format", fmt)
            ops.append(Op(
                kind=f"phase-J{spin}-{coords}.{fmt}",
                argv=base + ("--gminus", window, "--gplus", window),
                params={"command": "phase-diagram", "n": int(round(2 * _spin_value(spin))) + 1,
                        "format": fmt, "grid": (PHASE_GRID, PHASE_GRID)},
                warm_argv=base + ("--gminus", f"-{half}:{half}:4", "--gplus", f"-{half}:{half}:4"),
            ))
    rng.shuffle(ops)
    return ops


def _small_export(rng: random.Random) -> list:
    ops = []
    for fmt in FORMATS:
        for spin in ("2", "5/2", "3", "7/2", "4"):
            gx, gy = _num(rng.uniform(-2.0, 2.0)), _num(rng.uniform(-2.0, 2.0))
            ops.append(("thermal-lmg", ("thermal", "--model", "lmg", "--J", spin, "--gx", gx,
                                        "--gy", gy, "--beta-grid", BETA_GRID),
                        {"command": "thermal", "n": int(round(2 * _spin_value(spin))) + 1,
                         "betas": BETA_GRID_SIZE}, fmt))
        omega = _num(rng.uniform(0.5, 2.0))
        ops.append(("thermal-linear", ("thermal", "--model", "linear", "--J", "3/2",
                                       "--omega", omega, "--beta-grid", BETA_GRID),
                    {"command": "thermal", "n": 4, "betas": BETA_GRID_SIZE}, fmt))
        ops.append(("boundary", ("boundary", "--samples", str(BOUNDARY_SAMPLES)),
                    {"command": "boundary", "samples": BOUNDARY_SAMPLES}, fmt))
        value = _num(rng.uniform(0.12, 0.45))
        ops.append(("locus-n3-t3", ("locus", "--n", "3", "--t3", value),
                    {"command": "locus", "n": 3, "which": "t3", "value": float(value),
                     "samples": QUTRIT_SAMPLES}, fmt))
        value = _num(rng.uniform(0.4, 0.9))
        ops.append(("locus-n3-t2", ("locus", "--n", "3", "--t2", value),
                    {"command": "locus", "n": 3, "which": "t2", "value": float(value),
                     "samples": QUTRIT_SAMPLES}, fmt))
        ops.append(("frame", ("frame", "--n", "4"), {"command": "frame", "n": 4}, fmt))
    ops = [
        Op(kind=f"{kind}.{fmt}", argv=argv + ("--format", fmt),
           params={**params, "format": fmt}, warm_argv=argv + ("--format", fmt))
        for kind, argv, params, fmt in ops
    ]
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "locus-surface": _locus_surface,
    "state-table": _state_table,
    "phase-grid": _phase_grid,
    "small-export": _small_export,
}


def generate(workload: str, seed: int) -> list:
    """The op list of one pass of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warmup(ops: list) -> list:
    """One reduced-size op per op kind, in first-seen order."""
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())
