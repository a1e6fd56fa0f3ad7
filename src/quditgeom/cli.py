"""Command line exporter for simplex, thermal and phase-diagram datasets.

Subcommands
-----------
frame           simplex centroid and orthonormal axes for a dimension
map             p / lambda / t coordinates of given or grid-sampled states
thermal         thermal trajectory of a linear or LMG spectrum over a beta grid
phase-diagram   thermal map of the LMG coupling plane at fixed beta
locus           constant-invariant curve (n = 3) or surface (n = 4)
boundary        t-space boundary arcs and segment images for the qutrit
flower          permutation images of a thermal trajectory

Every run writes one data file (CSV or JSON, fixed column order, shortest
round-trip float formatting) plus a JSON sidecar ``<out>.meta.json``
echoing the configuration, the column schema, node counts and any notes
about closed forms that disagree with the invariant map.  Exit codes:
0 success, 2 configuration error, 3 I/O error, 4 numerical failure with
zero successful nodes (also used when --validate finds a violation).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .basis import simplex_frame
from .curves import (
    ParamCurve,
    constant_invariant_surface_ququart,
    constant_t2_locus,
    constant_t3_locus_qutrit,
    lambda_segment_images,
    permutation_images,
    t_space_boundary_qutrit,
)
from .errors import DimensionError, PositivityError
from .models import LMGParams, linear_spectrum, lmg_spectrum, phase_sweep
from .representations import check_probability_vector, invariants, p_to_lambda
from .thermal import trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class Dataset:
    """Rows plus schema and bookkeeping for one export."""

    columns: list
    rows: list
    notes: list = field(default_factory=list)
    failed_nodes: int = 0

    @property
    def physical_count(self) -> int:
        if "physical" not in self.columns:
            return len(self.rows)
        idx = self.columns.index("physical")
        return sum(1 for row in self.rows if row[idx] == 1)


def _fmt(value) -> str:
    """Shortest round-trip decimal; -0.0 normalized, NaN spelled 'nan'."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if x == 0.0:
            x = 0.0
        return repr(x)
    return str(value)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return 1 if value else 0
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return None
        if x == 0.0:
            x = 0.0
        return x
    return str(value)


def _parse_spin(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/")
            j = float(num) / float(den)
        else:
            j = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse spin {text!r}") from exc
    if not math.isfinite(j) or j <= 0 or abs(2 * j - round(2 * j)) > 1e-12:
        raise ConfigError(f"2J must be a positive integer, got {text!r}")
    return j


def _parse_range(text: str) -> np.ndarray:
    """A 'lo:hi:count' linear range or a single numeric value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            return np.linspace(lo, hi, count)
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {text!r}: {exc}") from exc
    raise ConfigError(f"ranges must look like 'lo:hi:count' or a number, got {text!r}")


def _parse_beta_grid(text: str) -> np.ndarray:
    """Comma-separated mix of numbers, 'log:lo:hi:count' and 'lin:lo:hi:count'."""
    values = []
    for item in text.split(","):
        item = item.strip()
        if item.startswith(("log:", "lin:")):
            kind, rest = item.split(":", 1)
            parts = rest.split(":")
            if len(parts) != 3:
                raise ConfigError(f"grid spec must be '{kind}:lo:hi:count', got {item!r}")
            try:
                lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ConfigError(f"cannot parse grid spec {item!r}") from exc
            if count < 1:
                raise ConfigError("grid count must be >= 1")
            if kind == "log":
                if lo <= 0 or hi <= 0:
                    raise ConfigError("log grids need positive endpoints")
                values.append(np.logspace(math.log10(lo), math.log10(hi), count))
            else:
                values.append(np.linspace(lo, hi, count))
        else:
            try:
                values.append(np.array([float(item)]))
            except ValueError as exc:
                raise ConfigError(f"cannot parse beta value {item!r}") from exc
    grid = np.unique(np.concatenate(values))
    if grid.size == 0:
        raise ConfigError("beta grid is empty")
    if grid[0] < 0 or not np.all(np.isfinite(grid)):
        raise ConfigError("beta values must be finite and >= 0")
    return grid


def _lambda_names(n: int) -> list:
    return [f"l{n * n - n + ell}" for ell in range(1, n)]


def _p_names(n: int) -> list:
    return [f"p{i}" for i in range(1, n + 1)]


def _t_names(n: int) -> list:
    return [f"t{ell}" for ell in range(2, n + 1)]


def _state_columns(n: int) -> list:
    return _p_names(n) + _lambda_names(n) + _t_names(n)


def _state_values(p_row: np.ndarray) -> list:
    lam = p_to_lambda(p_row, validate=False)
    t = invariants(p_row, validate=False)
    return [*p_row, *lam, *t]


def _spectrum_from_args(args):
    if args.model == "linear":
        return linear_spectrum(args.spin, args.omega)
    if args.model == "lmg":
        params = _lmg_params_from_args(args)
        return lmg_spectrum(args.spin, params)
    raise ConfigError(f"unknown model {args.model!r}")


def _lmg_params_from_args(args) -> LMGParams:
    has_xy = args.gx is not None or args.gy is not None
    has_pm = getattr(args, "gminus_val", None) is not None or getattr(args, "gplus_val", None) is not None
    if has_xy and has_pm:
        raise ConfigError("give either --gx/--gy or --gminus/--gplus, not both")
    try:
        if has_pm:
            return LMGParams.from_plus_minus(
                g_minus=args.gminus_val or 0.0,
                g_plus=args.gplus_val or 0.0,
                omega=args.omega,
            )
        return LMGParams(omega=args.omega, g_x=args.gx or 0.0, g_y=args.gy or 0.0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# dataset builders


def _build_frame(args) -> Dataset:
    frame = simplex_frame(args.n)
    columns = ["kind", "index"] + [f"c{i}" for i in range(1, args.n + 1)]
    rows = [["center", 0, *frame.center]]
    for ell, axis in enumerate(frame.axes, start=1):
        rows.append(["axis", ell, *axis])
    return Dataset(columns=columns, rows=rows)


def _barycentric_grid(n: int, divisions: int) -> np.ndarray:
    points = []
    for cut in itertools.combinations(range(divisions + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(divisions + n - 2 - prev)
        points.append(parts)
    return np.array(points, dtype=float) / divisions


def _build_map(args) -> Dataset:
    n = args.n
    if args.point:
        pts = []
        for text in args.point:
            try:
                vec = np.array([float(x) for x in text.split(",")])
            except ValueError as exc:
                raise ConfigError(f"cannot parse point {text!r}") from exc
            if vec.size != n:
                raise ConfigError(f"point {text!r} has {vec.size} entries, expected {n}")
            try:
                check_probability_vector(vec, tol=1e-9)
            except (PositivityError, ValueError) as exc:
                raise ConfigError(f"point {text!r} is not a probability vector: {exc}") from exc
            pts.append(vec)
        grid = np.vstack(pts)
    else:
        if args.grid < 1:
            raise ConfigError("--grid must be >= 1")
        grid = _barycentric_grid(n, args.grid)
    columns = _state_columns(n) + ["physical"]
    rows = [[*_state_values(p), 1] for p in grid]
    return Dataset(columns=columns, rows=rows)


def _build_thermal(args) -> Dataset:
    spectrum = _spectrum_from_args(args)
    traj = trajectory(spectrum, _parse_beta_grid(args.beta_grid))
    n = spectrum.n
    columns = ["beta"] + _state_columns(n) + ["physical"]
    rows = [
        [beta, *traj.p[i], *traj.lam[i], *traj.t[i], 1]
        for i, beta in enumerate(traj.beta)
    ]
    return Dataset(columns=columns, rows=rows)


def _build_phase_diagram(args) -> Dataset:
    if args.model != "lmg":
        raise ConfigError("phase-diagram supports --model lmg only")
    g_first = _parse_range(args.gminus)
    g_second = _parse_range(args.gplus)
    beta = args.beta
    if beta is None or beta < 0 or not math.isfinite(beta):
        raise ConfigError("phase-diagram needs a finite --beta >= 0")
    n = int(round(2 * args.spin)) + 1
    columns = ["gminus", "gplus", "region"] + _state_columns(n) + ["physical"]
    points = phase_sweep(
        args.spin, g_first, g_second, beta=beta, omega=args.omega, coords=args.coords
    )
    rows = [
        [point.params.g_minus, point.params.g_plus, point.region.region_id,
         *point.p, *point.lam, *point.t, 1]
        for point in points
    ]
    return Dataset(columns=columns, rows=rows)


def _curve_rows(curve, n: int) -> tuple:
    rows = []
    failed = 0
    for i in range(curve.parameter.size):
        p = curve.points[i]
        radius = curve.radius[i] if curve.radius is not None else math.nan
        if not np.all(np.isfinite(p)):
            failed += 1
            rows.append([curve.parameter[i], radius,
                         *([math.nan] * (3 * n - 2)), 0])
            continue
        rows.append([curve.parameter[i], radius, *_state_values(p),
                     1 if curve.physical[i] else 0])
    return rows, failed


def _build_locus(args) -> Dataset:
    n = args.n
    chosen = [(name, getattr(args, name)) for name in ("t2", "t3", "t4")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ConfigError("locus needs exactly one of --t2, --t3, --t4")
    which, value = chosen[0]
    try:
        if n == 3:
            if which == "t4":
                raise ConfigError("t4 is not defined for n = 3")
            if which == "t2":
                locus = constant_t2_locus(3, value, samples=args.samples)
            else:
                locus = constant_t3_locus_qutrit(value, alpha_samples=args.samples)
        elif n == 4:
            if which == "t2":
                locus = constant_t2_locus(
                    4, value,
                    theta_samples=args.theta_samples, phi_samples=args.phi_samples,
                )
            else:
                locus = constant_invariant_surface_ququart(
                    which, value,
                    theta_samples=args.theta_samples, phi_samples=args.phi_samples,
                )
        else:
            raise ConfigError("locus supports --n 3 or --n 4")
    except (ValueError, DimensionError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    if hasattr(locus, "parameter"):
        columns = ["alpha", "r"] + _state_columns(n) + ["physical"]
        rows, failed = _curve_rows(locus, n)
        return Dataset(columns=columns, rows=rows, failed_nodes=failed)
    columns = ["theta", "phi", "r"] + _state_columns(n) + ["physical"]
    rows = []
    failed = 0
    mu, mv = locus.u.shape
    for i in range(mu):
        for k in range(mv):
            p = locus.points[i, k]
            radius = locus.radius[i, k] if locus.radius is not None else math.nan
            if not np.all(np.isfinite(p)):
                failed += 1
                rows.append([locus.u[i, k], locus.v[i, k], radius,
                             *([math.nan] * (3 * n - 2)), 0])
                continue
            rows.append([locus.u[i, k], locus.v[i, k], radius, *_state_values(p),
                         1 if locus.physical[i, k] else 0])
    return Dataset(columns=columns, rows=rows, failed_nodes=failed)


def _build_boundary(args) -> Dataset:
    if args.n != 3:
        raise ConfigError("the t-space boundary is exported for --n 3 only")
    pieces = t_space_boundary_qutrit(t2_samples=args.samples)
    segments = lambda_segment_images(samples=args.samples)
    columns = ["piece", "param", "t2", "t3", "physical"]
    rows = []
    notes = []
    for curve in (*pieces, *segments):
        for i in range(curve.parameter.size):
            rows.append([curve.label, curve.parameter[i],
                         curve.points[i, 0], curve.points[i, 1], 1])
        if curve.meta.get("matches_closed_form") is False:
            notes.append(
                f"{curve.label}: closed form {curve.meta['closed_form']} does not match "
                f"the invariant map; emitted the verified curve"
            )
    return Dataset(columns=columns, rows=rows, notes=notes)


def _build_flower(args) -> Dataset:
    spectrum = _spectrum_from_args(args)
    traj = trajectory(spectrum, _parse_beta_grid(args.beta_grid))
    n = spectrum.n
    base = ParamCurve(
        space="p",
        points=traj.p,
        parameter=traj.beta,
        physical=np.ones(traj.beta.size, dtype=bool),
        label="thermal",
    )
    columns = ["perm", "beta"] + _state_columns(n) + ["physical"]
    rows = []
    for copy in permutation_images(base):
        perm_label = "".join(str(i + 1) for i in copy.meta["permutation"])
        for i in range(copy.parameter.size):
            rows.append([perm_label, copy.parameter[i], *_state_values(copy.points[i]), 1])
    return Dataset(columns=columns, rows=rows)


_BUILDERS = {
    "frame": _build_frame,
    "map": _build_map,
    "thermal": _build_thermal,
    "phase-diagram": _build_phase_diagram,
    "locus": _build_locus,
    "boundary": _build_boundary,
    "flower": _build_flower,
}


# ---------------------------------------------------------------------------
# output


def _write_csv(path: str, dataset: Dataset) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(dataset.columns)
        for row in dataset.rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path: str, dataset: Dataset) -> None:
    payload = {
        "columns": dataset.columns,
        "rows": [
            {col: _json_value(val) for col, val in zip(dataset.columns, row)}
            for row in dataset.rows
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _write_sidecar(path: str, args, dataset: Dataset) -> None:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func",) and value is not None
    }
    payload = {
        "tool": "quditgeom",
        "version": __version__,
        "command": args.command,
        "config": config,
        "columns": dataset.columns,
        "counts": {
            "rows": len(dataset.rows),
            "physical": dataset.physical_count,
            "failed_nodes": dataset.failed_nodes,
        },
        "discrepancies": dataset.notes,
    }
    with open(path + ".meta.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _read_rows(path: str, fmt: str):
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            columns = next(reader)
            return columns, [row for row in reader]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    columns = payload["columns"]
    rows = [[row.get(col) for col in columns] for row in payload["rows"]]
    return columns, rows


def _validate_output(path: str, fmt: str, args) -> list:
    """Re-read the emitted file and re-check all physical rows."""
    columns, rows = _read_rows(path, fmt)
    problems = []
    p_cols = [i for i, c in enumerate(columns) if c.startswith("p") and c[1:].isdigit()]
    if not p_cols or "physical" not in columns:
        return problems
    phys_idx = columns.index("physical")
    target = None
    if args.command == "locus":
        for name in ("t2", "t3", "t4"):
            if getattr(args, name, None) is not None:
                target = (int(name[1]), getattr(args, name))
    for row_number, row in enumerate(rows, start=2):
        if str(row[phys_idx]) not in ("1", "1.0"):
            continue
        try:
            p = np.array([float(row[i]) for i in p_cols])
        except (TypeError, ValueError):
            problems.append(f"row {row_number}: physical row has unreadable p")
            continue
        if not np.all(np.isfinite(p)):
            problems.append(f"row {row_number}: physical row has non-finite p")
            continue
        if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-9:
            problems.append(f"row {row_number}: p violates the simplex constraints")
        if target is not None:
            ell, value = target
            if abs((p**ell).sum() - value) > 1e-9:
                problems.append(f"row {row_number}: t{ell} deviates from {value!r}")
    return problems


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output data file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--validate", action="store_true",
                        help="re-read the output and re-check all physical rows")


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("linear", "lmg"), required=True)
    parser.add_argument("--J", dest="spin_text", required=True,
                        help="spin, e.g. 1, 3/2 or 1.5")
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--gx", type=float, default=None)
    parser.add_argument("--gy", type=float, default=None)
    parser.add_argument("--gminus", dest="gminus_val", type=float, default=None)
    parser.add_argument("--gplus", dest="gplus_val", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditgeom",
        description="Export qudit simplex geometry, thermal trajectories and "
                    "LMG phase diagrams as CSV or JSON.",
    )
    parser.add_argument("--version", action="version", version=f"quditgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frame", help="simplex centroid and orthonormal axes")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("map", help="p/lambda/t coordinates of states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point", action="append", default=None,
                   help="comma-separated probabilities; repeatable")
    p.add_argument("--grid", type=int, default=20,
                   help="barycentric subdivisions when no --point is given")
    _add_common(p)

    p = sub.add_parser("thermal", help="thermal trajectory over a beta grid")
    _add_model(p)
    p.add_argument("--beta-grid", dest="beta_grid", default="0,log:1e-3:1e3:200",
                   help="comma-separated numbers and log:/lin: lo:hi:count specs")
    _add_common(p)

    p = sub.add_parser("phase-diagram", help="thermal map of the LMG coupling plane")
    p.add_argument("--model", choices=("linear", "lmg"), default="lmg")
    p.add_argument("--J", dest="spin_text", required=True)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gminus", required=True, help="lo:hi:count or a single value")
    p.add_argument("--gplus", required=True, help="lo:hi:count or a single value")
    p.add_argument("--coords", choices=("gpm", "gxy"), default="gpm")
    _add_common(p)

    p = sub.add_parser("locus", help="constant-invariant curve or surface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t2", type=float, default=None)
    p.add_argument("--t3", type=float, default=None)
    p.add_argument("--t4", type=float, default=None)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--theta-samples", dest="theta_samples", type=int, default=128)
    p.add_argument("--phi-samples", dest="phi_samples", type=int, default=256)
    _add_common(p)

    p = sub.add_parser("boundary", help="qutrit t-space boundary and segment images")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=512)
    _add_common(p)

    p = sub.add_parser("flower", help="permutation images of a thermal trajectory")
    _add_model(p)
    p.add_argument("--beta-grid", dest="beta_grid", default="0,log:1e-3:1e3:200")
    _add_common(p)

    # let range values like "-6:6:200" pass as option arguments
    matcher = re.compile(r"^-\d[\d.:eE+-]*$")
    for sub_parser in sub.choices.values():
        sub_parser._negative_number_matcher = matcher

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "spin_text"):
        try:
            args.spin = _parse_spin(args.spin_text)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    try:
        dataset = _BUILDERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DimensionError, PositivityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if not dataset.rows:
        print("error: the requested grid produced no rows", file=sys.stderr)
        return EXIT_CONFIG
    if dataset.failed_nodes and dataset.failed_nodes == len(dataset.rows):
        print("numerical-failure: no node produced a finite result", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        if args.format == "csv":
            _write_csv(args.out, dataset)
        else:
            _write_json(args.out, dataset)
        _write_sidecar(args.out, args, dataset)
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return EXIT_IO

    if dataset.failed_nodes:
        print(
            f"note: {dataset.failed_nodes} of {len(dataset.rows)} nodes had no "
            "admissible solution and were masked",
            file=sys.stderr,
        )

    if args.validate:
        try:
            problems = _validate_output(args.out, args.format, args)
        except OSError as exc:
            print(f"io-error: {exc}", file=sys.stderr)
            return EXIT_IO
        if problems:
            for problem in problems[:20]:
                print(f"validate: {problem}", file=sys.stderr)
            return EXIT_NUMERICAL

    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
