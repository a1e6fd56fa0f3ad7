"""Independent checker for one CLI export (data file plus sidecar).

It knows the column schema and the expected row count of every
subcommand from closed formulas, and recomputes the lambda and t columns
from the p columns with its own vectorised numpy code.  Nothing here
imports quditgeom, so a defect in the program cannot hide in the check.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

SIMPLEX_TOL = 1e-9
INVARIANT_TOL = 1e-9
DERIVED_TOL = 1e-12
REGIONS = ("I", "II", "III", "boundary")
# columns that hold labels rather than numbers
TEXT_COLUMNS = ("kind", "perm", "region", "piece")


@dataclass
class Check:
    """Outcome of checking one export."""

    problems: list = field(default_factory=list)
    rows: int = 0
    out_bytes: int = 0
    invariant_defect: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _state_columns(n: int) -> list:
    return ([f"p{i}" for i in range(1, n + 1)]
            + [f"l{n * n - n + ell}" for ell in range(1, n)]
            + [f"t{ell}" for ell in range(2, n + 1)])


def expected_columns(params: dict) -> list:
    command, n = params["command"], params.get("n")
    if command == "frame":
        return ["kind", "index"] + [f"c{i}" for i in range(1, n + 1)]
    if command == "boundary":
        return ["piece", "param", "t2", "t3", "physical"]
    lead = {
        "map": [],
        "thermal": ["beta"],
        "flower": ["perm", "beta"],
        "phase-diagram": ["gminus", "gplus", "region"],
        "locus": ["alpha", "r"] if n == 3 else ["theta", "phi", "r"],
    }[command]
    return lead + _state_columns(n) + ["physical"]


def expected_rows(params: dict) -> int:
    """Closed-form row count of an export."""
    command, n = params["command"], params.get("n")
    if command == "map":
        return math.comb(params["grid"] + n - 1, n - 1)
    if command == "locus":
        return params["samples"] if n == 3 else params["mesh"][0] * params["mesh"][1]
    if command == "phase-diagram":
        return params["grid"][0] * params["grid"][1]
    if command == "thermal":
        return params["betas"]
    if command == "flower":
        return math.factorial(n) * params["betas"]
    if command == "boundary":
        return 6 * params["samples"]  # three boundary arcs and three segment images
    if command == "frame":
        return n
    raise ValueError(f"no row formula for {command!r}")


def diagonal_coefficients(n: int) -> np.ndarray:
    """Rows are the diagonals of the n - 1 diagonal su(n) generators."""
    a = np.zeros((n - 1, n))
    for ell in range(1, n):
        a[ell - 1, :ell] = 1.0
        a[ell - 1, ell] = -float(ell)
        a[ell - 1] *= math.sqrt(2.0 / (ell * (ell + 1)))
    return a


def read_table(path: str, fmt: str) -> tuple:
    """Columns and a dict of column arrays (float, or str for label columns)."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            columns = next(reader)
            body = list(reader)
        if any(len(row) != len(columns) for row in body):
            raise ValueError("ragged CSV row")
        cells = list(zip(*body)) if body else [()] * len(columns)
    else:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        columns = payload["columns"]
        cells = [[row[c] for row in payload["rows"]] for c in columns]
    data = {}
    for name, values in zip(columns, cells):
        if name in TEXT_COLUMNS:
            data[name] = np.array([str(v) for v in values], dtype=str)
        else:
            data[name] = np.array(values, dtype=float)  # JSON null reads as NaN
    return columns, data


def check_export(params: dict, path: str, returncode) -> Check:
    """Check one export written to ``path`` (and ``path + '.meta.json'``)."""
    check = Check()
    problems = check.problems
    if returncode != 0:
        problems.append(f"exit code {returncode!r}")
        return check
    fmt = params.get("format", "csv")
    try:
        columns, data = read_table(path, fmt)
        with open(path + ".meta.json", encoding="utf-8") as handle:
            meta = json.load(handle)
        check.out_bytes = os.path.getsize(path) + os.path.getsize(path + ".meta.json")
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return check

    rows = len(next(iter(data.values()))) if data else 0
    check.rows = rows
    want_columns = expected_columns(params)
    if columns != want_columns:
        problems.append(f"columns {columns} != {want_columns}")
        return check
    if meta.get("columns") != columns:
        problems.append("sidecar columns differ from the file")
    want_rows = expected_rows(params)
    if rows != want_rows:
        problems.append(f"{rows} rows, expected {want_rows}")

    counts = meta.get("counts", {})
    if counts.get("rows") != rows:
        problems.append(f"sidecar rows {counts.get('rows')} != file rows {rows}")
    if params["command"] == "frame":
        _check_frame(data, params["n"], problems)
        return check
    physical = data["physical"] == 1
    masked = 0
    if params["command"] == "boundary":
        if not np.all(np.isfinite(data["t2"]) & np.isfinite(data["t3"])):
            problems.append("non-finite boundary point")
    else:
        masked = _check_states(params, data, physical, check)
    if counts.get("physical") != int(physical.sum()):
        problems.append(f"sidecar physical {counts.get('physical')} != {int(physical.sum())}")
    if counts.get("failed_nodes") != masked:
        problems.append(f"sidecar failed_nodes {counts.get('failed_nodes')} != {masked}")
    return check


def _check_frame(data: dict, n: int, problems: list) -> None:
    coords = np.column_stack([data[f"c{i}"] for i in range(1, n + 1)])
    if not np.allclose(coords[0], 1.0 / n, rtol=0.0, atol=DERIVED_TOL):
        problems.append("frame centre is not the centroid")
    axes = coords[1:]
    if np.abs(axes @ axes.T - np.eye(n - 1)).max() > DERIVED_TOL:
        problems.append("frame axes are not orthonormal")
    if np.abs(axes.sum(axis=1)).max() > DERIVED_TOL:
        problems.append("frame axes leave the simplex plane")


def _check_states(params: dict, data: dict, physical: np.ndarray, check: Check) -> int:
    """Check the p/lambda/t columns; returns the number of masked rows."""
    n = params["n"]
    problems = check.problems
    p = np.column_stack([data[f"p{i}"] for i in range(1, n + 1)])
    lam = np.column_stack([data[f"l{n * n - n + ell}"] for ell in range(1, n)])
    t = np.column_stack([data[f"t{ell}"] for ell in range(2, n + 1)])
    finite = np.all(np.isfinite(p), axis=1)

    if np.any(physical & ~finite):
        problems.append("physical row with non-finite p")
    ok = physical & finite
    if np.any(np.abs(p[ok].sum(axis=1) - 1.0) > SIMPLEX_TOL) or np.any(p[ok] < -SIMPLEX_TOL):
        problems.append("physical row violates the simplex constraints")

    want_lam = p[finite] @ diagonal_coefficients(n).T
    want_t = np.stack([(p[finite] ** ell).sum(axis=1) for ell in range(2, n + 1)], axis=1)
    if want_lam.size and np.abs(lam[finite] - want_lam).max() > DERIVED_TOL:
        problems.append("lambda columns do not match p")
    if want_t.size and np.abs(t[finite] - want_t).max() > DERIVED_TOL:
        problems.append("t columns do not match p")
    masked = ~finite
    if np.any(np.isfinite(lam[masked])) or np.any(np.isfinite(t[masked])):
        problems.append("masked row carries finite lambda or t")

    command = params["command"]
    if command == "locus":
        ell = int(params["which"][1])
        defect = np.abs((p[ok] ** ell).sum(axis=1) - params["value"])
        check.invariant_defect = float(defect.max()) if defect.size else 0.0
        if check.invariant_defect > INVARIANT_TOL:
            problems.append(f"t{ell} misses its target by {check.invariant_defect:.3e}")
    elif np.any(~physical):
        problems.append("unphysical row in a dataset of states")
    if command == "phase-diagram":
        bad = set(np.unique(data["region"])) - set(REGIONS)
        if bad:
            problems.append(f"unknown phase regions {sorted(bad)}")
    if command == "flower" and t.shape[0] == expected_rows(params):
        # every permutation copy has the invariants of the identity copy
        copies = t.reshape(math.factorial(n), -1, n - 1)
        if np.abs(copies - copies[:1]).max() > DERIVED_TOL:
            problems.append("permutation copies change the invariants")
    return int(masked.sum())
