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
about closed forms that disagree with the invariant map.  Each dataset is
built as named numpy columns and written column by column in bounded
chunks of rows.  Only one chunk of cell texts is held at a time, plus one
text per distinct value of each float column with at most half its rows
distinct: such a column formats each distinct value once and looks its
cells up.  Both files are written atomically: into temporary files
in the destination directory, moved into place with ``os.replace`` only
once both are complete (the data file last, and the sidecar removed again
if that move fails), so a failed run leaves neither new file behind.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure with zero successful nodes (also used when --validate finds a
violation).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .basis import _check_dimension, simplex_frame
from .curves import (
    ParamCurve,
    SurfaceMesh,
    constant_invariant_surface_ququart,
    constant_t2_locus,
    constant_t3_locus_qutrit,
    lambda_segment_images,
    permutation_images,
    t_space_boundary_qutrit,
)
from .config import DEFAULT
from .errors import DimensionError
from .models import LMGParams, _check_spin, linear_spectrum, lmg_spectrum, phase_grid
from .representations import check_probability_vector, invariants, p_to_lambda
from .thermal import trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

#: slack on simplex membership for p read from text (``--point`` values and
#: the file re-read by ``--validate``): decimals typed or rounded by hand,
#: such as 0.333333333 for 1/3, miss the simplex by more than ``DEFAULT.simplex``
_TEXT_SIMPLEX_SLACK = 1e-9


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class Dataset:
    """Named columns of one export, plus bookkeeping.

    ``columns`` maps each output column name, in output order, to a 1-D
    numpy array; all arrays have one entry per row.  Float columns are
    written as shortest round-trip decimals, integer and boolean columns
    as integers and string columns as text.
    """

    columns: dict
    notes: list = field(default_factory=list)
    failed_nodes: int = 0

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def physical_count(self) -> int:
        physical = self.columns.get("physical")
        return len(self) if physical is None else int(np.count_nonzero(physical == 1))


def _parse_spin(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/")
            j = float(num) / float(den)
        else:
            j = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse spin {text!r}") from exc
    try:
        return _check_spin(j)
    except DimensionError as exc:
        raise ConfigError(f"2J must be a positive integer, got {text!r}") from exc


def _parse_spec(spec: str, what: str) -> tuple:
    """``(lo, hi, count)`` of a 'lo:hi:count' ``spec``; ``what`` names it in errors."""
    parts = spec.split(":")
    try:
        if len(parts) != 3:
            raise ValueError("expected 'lo:hi:count'")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("count must be >= 1")
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from exc
    return lo, hi, count


def _parse_range(text: str) -> np.ndarray:
    """A 'lo:hi:count' linear range or a single numeric value."""
    if ":" in text:
        return np.linspace(*_parse_spec(text, f"range {text!r}"))
    try:
        return np.array([float(text)])
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {text!r}: not a number or lo:hi:count") from exc


def _parse_beta_grid(text: str) -> np.ndarray:
    """Comma-separated mix of numbers, 'log:lo:hi:count' and 'lin:lo:hi:count'."""
    values = []
    for item in text.split(","):
        item = item.strip()
        kind, _, spec = item.partition(":")
        if kind in ("lin", "log"):
            lo, hi, count = _parse_spec(spec, f"grid spec {item!r}")
            if kind == "lin":
                values.append(np.linspace(lo, hi, count))
            elif lo <= 0 or hi <= 0:
                raise ConfigError("log grids need positive endpoints")
            else:
                values.append(np.logspace(math.log10(lo), math.log10(hi), count))
        else:
            try:
                values.append(np.array([float(item)]))
            except ValueError as exc:
                raise ConfigError(f"cannot parse beta value {item!r}") from exc
    grid = np.unique(np.concatenate(values))
    if grid[0] < 0 or not np.all(np.isfinite(grid)):
        raise ConfigError("beta values must be finite and >= 0")
    return grid


def _lambda_names(n: int) -> list:
    return [f"l{n * n - n + ell}" for ell in range(1, n)]


def _p_names(n: int) -> list:
    return [f"p{i}" for i in range(1, n + 1)]


def _t_names(n: int) -> list:
    return [f"t{ell}" for ell in range(2, n + 1)]


def _spectrum_from_args(args):
    if args.model == "linear":
        return linear_spectrum(args.spin, args.omega)
    return lmg_spectrum(args.spin, _lmg_params_from_args(args))


def _lmg_params_from_args(args) -> LMGParams:
    has_xy = args.gx is not None or args.gy is not None
    has_pm = args.gminus_val is not None or args.gplus_val is not None
    if has_xy and has_pm:
        raise ConfigError("give either --gx/--gy or --gminus/--gplus, not both")
    if has_pm:
        return LMGParams.from_plus_minus(
            g_minus=args.gminus_val or 0.0,
            g_plus=args.gplus_val or 0.0,
            omega=args.omega,
        )
    return LMGParams(omega=args.omega, g_x=args.gx or 0.0, g_y=args.gy or 0.0)


# ---------------------------------------------------------------------------
# dataset builders


def _node_table(lead: dict, p, *, physical=None) -> Dataset:
    """A dataset of ``lead`` columns, then p, lambda, t and physical.

    ``p`` holds one state per row; lambda and t are derived from the whole
    block at once.  Rows whose p is not all finite are masked nodes: their
    state columns are NaN, their physical flag is 0 and they count as
    failed.  ``physical`` defaults to 1 on every unmasked row.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[1]
    masked = ~np.isfinite(p).all(axis=1)
    if masked.any():
        p = np.where(masked[:, None], np.nan, p)
    lam = p_to_lambda(p, validate=False)
    t = invariants(p, validate=False)
    flags = np.ones(len(p), dtype=np.int64) if physical is None else physical.astype(np.int64)
    flags[masked] = 0
    columns = dict(lead)
    columns.update(zip(_p_names(n), p.T))
    columns.update(zip(_lambda_names(n), lam.T))
    columns.update(zip(_t_names(n), t.T))
    columns["physical"] = flags
    return Dataset(columns=columns, failed_nodes=int(masked.sum()))


def _build_frame(args) -> Dataset:
    frame = simplex_frame(args.n)
    kind = np.array(["center"] + ["axis"] * len(frame.axes))
    coords = np.vstack([frame.center, frame.axes])
    columns = {"kind": kind, "index": np.arange(len(kind))}
    columns.update((f"c{i}", col) for i, col in enumerate(coords.T, start=1))
    return Dataset(columns=columns)


def _barycentric_grid(n: int, divisions: int) -> np.ndarray:
    """All points of the simplex with coordinates in multiples of 1/divisions.

    Rows run in ascending lexicographic order of their coordinates.
    """
    # each pass appends one coordinate: every partial row splits into one
    # row per value 0..left, in ascending order, where left is what remains
    parts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([divisions])
    for _ in range(n - 1):
        counts = left + 1
        rows = np.repeat(np.arange(left.size), counts)
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = np.column_stack([parts[rows], value])
        left = left[rows] - value
    return np.column_stack([parts, left]) / divisions


def _build_map(args) -> Dataset:
    n = _check_dimension(args.n)
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
                check_probability_vector(vec, tol=_TEXT_SIMPLEX_SLACK)
            except ValueError as exc:
                raise ConfigError(f"point {text!r} is not a probability vector: {exc}") from exc
            pts.append(vec)
        grid = np.vstack(pts)
    else:
        if args.grid < 1:
            raise ConfigError("--grid must be >= 1")
        grid = _barycentric_grid(n, args.grid)
    return _node_table({}, grid)


def _build_thermal(args) -> Dataset:
    spectrum = _spectrum_from_args(args)
    traj = trajectory(spectrum, _parse_beta_grid(args.beta_grid))
    return _node_table({"beta": traj.beta}, traj.p)


def _build_phase_diagram(args) -> Dataset:
    g_first = _parse_range(args.gminus)
    g_second = _parse_range(args.gplus)
    grid = phase_grid(
        args.spin, g_first, g_second, beta=args.beta, omega=args.omega, coords=args.coords
    )
    lead = {"gminus": grid.g_minus, "gplus": grid.g_plus, "region": grid.region}
    return _node_table(lead, grid.p)


def _build_locus(args) -> Dataset:
    n = args.n
    chosen = [(name, getattr(args, name)) for name in ("t2", "t3", "t4")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ConfigError("locus needs exactly one of --t2, --t3, --t4")
    which, value = chosen[0]
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

    # a curve has one parameter per node, a surface mesh a (theta, phi) pair
    if isinstance(locus, SurfaceMesh):
        lead = {"theta": locus.u, "phi": locus.v}
    else:
        lead = {"alpha": locus.parameter}
    lead["r"] = locus.radius
    return _node_table(
        {name: col.ravel() for name, col in lead.items()},
        locus.points.reshape(-1, n),
        physical=locus.physical.ravel(),
    )


def _build_boundary(args) -> Dataset:
    if args.n != 3:
        raise ConfigError("the t-space boundary is exported for --n 3 only")
    pieces = (*t_space_boundary_qutrit(t2_samples=args.samples),
              *lambda_segment_images(samples=args.samples))
    notes = [
        f"{curve.label}: closed form {curve.meta['closed_form']} does not match "
        f"the invariant map; emitted the verified curve"
        for curve in pieces
        if curve.meta.get("matches_closed_form") is False
    ]
    points = np.vstack([curve.points for curve in pieces])
    columns = {
        "piece": np.repeat([curve.label for curve in pieces],
                           [curve.parameter.size for curve in pieces]),
        "param": np.concatenate([curve.parameter for curve in pieces]),
        "t2": points[:, 0],
        "t3": points[:, 1],
        "physical": np.ones(len(points), dtype=np.int64),
    }
    return Dataset(columns=columns, notes=notes)


def _build_flower(args) -> Dataset:
    spectrum = _spectrum_from_args(args)
    traj = trajectory(spectrum, _parse_beta_grid(args.beta_grid))
    base = ParamCurve(
        space="p",
        points=traj.p,
        parameter=traj.beta,
        physical=np.ones(traj.beta.size, dtype=bool),
        label="thermal",
    )
    copies = permutation_images(base)
    labels = ["".join(str(i + 1) for i in copy.meta["permutation"]) for copy in copies]
    lead = {
        "perm": np.repeat(labels, traj.beta.size),
        "beta": np.tile(traj.beta, len(copies)),
    }
    return _node_table(lead, np.vstack([copy.points for copy in copies]))


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

#: cells formatted and written at a time (whole rows, at least one): only
#: one chunk of cell strings is ever held, plus one text per distinct value
#: of each float column longer than this whose rows are at most half
#: distinct (see ``_column_cells``)
_CHUNK_CELLS = 2048
_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def _cells(column: np.ndarray, *, for_json: bool) -> list:
    """The cells of one column as text, each as ``csv.writer`` writes its
    ``repr`` or as ``json.dumps`` writes it: -0.0 becomes 0.0 and NaN
    becomes ``nan`` or ``null``."""
    kind = column.dtype.kind
    if kind == "f":
        cells = list(map(repr, (column + 0.0).tolist()))
        if for_json and not np.isfinite(column).all():
            cells = [_JSON_NONFINITE.get(cell, cell) for cell in cells]
        return cells
    if kind in "biu":
        return list(map(repr, column.astype(np.int64).tolist()))
    texts = column.tolist()
    quote = json.dumps if for_json else _csv_field
    quoted = {text: quote(text) for text in set(texts)}
    return [quoted[text] for text in texts]


def _half_distinct(values: np.ndarray):
    """The distinct values of a float array, ascending, when there are at
    most half as many as entries; else None.  Each NaN counts as distinct."""
    ordered = np.sort(values)
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    return distinct if 2 * distinct.size <= values.size else None


def _column_cells(column: np.ndarray, *, for_json: bool):
    """A function from each slice of ``column`` to its cells, as ``_cells``.

    A float column longer than ``_CHUNK_CELLS`` rows whose values repeat
    (a strided sample of about ``_CHUNK_CELLS`` of them, and then the whole
    column, at most half distinct) formats each distinct value once; its
    slices look their cells up by ``np.searchsorted``.
    """
    repeats = (column.dtype.kind == "f" and column.size > _CHUNK_CELLS
               and _half_distinct(column[::column.size // _CHUNK_CELLS]) is not None)
    distinct = _half_distinct(column) if repeats else None
    if distinct is None:
        return lambda part: _cells(part, for_json=for_json)
    texts = _cells(distinct, for_json=for_json)
    return lambda part: list(map(texts.__getitem__, distinct.searchsorted(part).tolist()))


def _text_chunks(dataset: Dataset, separators: list, *, for_json: bool):
    """The rows as text, one string per chunk of rows.

    Each row reads ``separators[0] cell separators[1] cell ... separators[-1]``.
    The cells of a chunk are interleaved with the separators into a single
    join, so no string per row is built.
    """
    columns = list(dataset.columns.values())
    formats = [_column_cells(col, for_json=for_json) for col in columns]
    rows = max(1, _CHUNK_CELLS // len(columns))
    for start in range(0, len(dataset), rows):
        cells = [cells_of(col[start:start + rows]) for cells_of, col in zip(formats, columns)]
        fill = [itertools.repeat(sep, len(cells[0])) for sep in separators]
        streams = [stream for pair in zip(fill, cells) for stream in pair] + fill[-1:]
        yield "".join(itertools.chain.from_iterable(zip(*streams)))


def _write_csv(handle, dataset: Dataset) -> None:
    """The bytes of ``csv.writer(lineterminator="\\n")`` over the header and
    the rows, written one chunk of rows at a time."""
    handle.write(",".join(map(_csv_field, dataset.columns)) + "\n")
    separators = [""] + [","] * (len(dataset.columns) - 1) + ["\n"]
    for text in _text_chunks(dataset, separators, for_json=False):
        handle.write(text)


def _write_json(handle, dataset: Dataset) -> None:
    """The bytes of ``json.dump({"columns": [...], "rows": [{...}, ...]},
    indent=1)`` and a final newline, written one chunk of rows at a time
    (at least one row: empty datasets are refused before writing)."""
    keys = [json.dumps(name) for name in dataset.columns]
    handle.write('{\n "columns": [\n' + ",\n".join(f"  {key}" for key in keys)
                 + '\n ],\n "rows": [')
    # every row opens with the ",\n" that separates it from the one before;
    # the first row of the file opens with "\n" instead
    separators = [f",\n  {{\n   {keys[0]}: "] + [f",\n   {key}: " for key in keys[1:]] + ["\n  }"]
    for number, text in enumerate(_text_chunks(dataset, separators, for_json=True)):
        handle.write(text if number else text[1:])
    handle.write("\n ]\n}\n")


def _sidecar(args, dataset: Dataset) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if value is not None
    }
    return {
        "tool": "quditgeom",
        "version": __version__,
        "command": args.command,
        "config": config,
        "columns": list(dataset.columns),
        "counts": {
            "rows": len(dataset),
            "physical": dataset.physical_count,
            "failed_nodes": dataset.failed_nodes,
        },
        "discrepancies": dataset.notes,
    }


def _write_outputs(path: str, args, dataset: Dataset) -> None:
    """Write the data file and its sidecar atomically.

    Both go to temporary files in the destination directory first and are
    moved into place with ``os.replace`` only once both are complete, the
    sidecar first and the data file last; if that last move fails, the
    sidecar just moved is removed again.  On any error the temporary files
    are removed and no new file is left at ``path`` or beside it.
    """
    write_data = _write_csv if args.format == "csv" else _write_json
    payload = _sidecar(args, dataset)
    sidecar = path + ".meta.json"
    jobs = (
        (path, lambda handle: write_data(handle, dataset)),
        (sidecar, lambda handle: handle.write(json.dumps(payload, indent=1) + "\n")),
    )
    suffix = f".{os.getpid()}-{os.urandom(4).hex()}.tmp"
    written = []
    try:
        for target, write in jobs:
            temp = target + suffix
            with open(temp, "x", newline="", encoding="utf-8") as handle:
                written.append(temp)
                write(handle)
        data_temp, sidecar_temp = written
        os.replace(sidecar_temp, sidecar)
        try:
            os.replace(data_temp, path)
        except OSError:
            os.remove(sidecar)
            raise
    finally:
        for temp in written:
            if os.path.exists(temp):
                os.remove(temp)


def _is_p(name: str) -> bool:
    return name.startswith("p") and name[1:].isdigit()


class _KeptKeys(dict):
    """Whether ``_read_columns`` keeps a JSON key, worked out once per key."""

    def __missing__(self, key: str) -> bool:
        self[key] = keep = key in ("columns", "rows", "physical") or _is_p(key)
        return keep


def _physical(cells) -> np.ndarray:
    """Which cells of the physical column read 1 (as ``1`` or ``1.0``)."""
    return np.isin(np.asarray(cells, dtype=str), ("1", "1.0"))


def _read_columns(path: str, fmt: str):
    """The p columns and ``physical`` of an exported file, or None without them.

    Returns ``(p, unreadable, physical)``: one row of p per data row (NaN
    where a cell does not read as a number), a mask of the rows with such a
    cell and a mask of the rows whose physical cell reads 1.  Only these
    columns are kept.  A CSV file is read by one ``np.loadtxt``, and again
    by ``csv.reader`` cell by cell when that meets a cell it cannot parse.
    Raises ValueError or ``csv.Error`` when the file itself does not parse.
    """
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as handle:
            names = next(csv.reader(handle), [])
            wanted = [i for i, name in enumerate(names) if _is_p(name)]
            if not wanted or "physical" not in names:
                return None
            wanted.append(names.index("physical"))
            # physical is compared with "1" and "1.0": a longer cell cut to
            # four characters still differs from both
            dtype = [(f"p{i}", float) for i in wanted[:-1]] + [("physical", "U4")]
            try:
                table = np.loadtxt(handle, dtype=dtype, delimiter=",", quotechar='"',
                                   comments=None, usecols=wanted, ndmin=1)
            except ValueError:
                handle.seek(0)
                # np.loadtxt skips blank lines, so the row numbers skip them here too
                rows = [row for row in itertools.islice(csv.reader(handle), 1, None) if row]
            else:
                p = np.column_stack([table[name] for name in table.dtype.names[:-1]])
                return p, np.zeros(len(table), dtype=bool), _physical(table["physical"])
        for number, row in enumerate(rows, start=2):
            if len(row) <= max(wanted):
                raise ValueError(f"row {number} has {len(row)} of {len(names)} fields")
        cells = {i: [row[i] for row in rows] for i in wanted}
        physical = cells.pop(wanted[-1])
    else:
        # each object keeps only the keys read here, as it is decoded: the
        # other cells of a row are freed at once, not held for the whole
        # file, and each row is a small dict rather than one of every column
        kept = _KeptKeys()
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle, object_pairs_hook=lambda pairs: {
                key: value for key, value in pairs if kept[key]})
        names = payload["columns"]
        if "physical" not in names or not any(map(_is_p, names)):
            return None
        rows = payload["rows"]
        cells = {name: [row.get(name) for row in rows] for name in names if _is_p(name)}
        physical = [row.get("physical") for row in rows]
    read = [_floats(column) for column in cells.values()]
    p = np.column_stack([values for values, _ in read])
    unreadable = np.column_stack([bad for _, bad in read]).any(axis=1)
    return p, unreadable, _physical(physical)


def _floats(values: list) -> tuple:
    """Values as floats, and a mask of those that do not read as a number."""
    try:
        if None not in values:
            return np.array(values, dtype=float), np.zeros(len(values), dtype=bool)
    except (TypeError, ValueError):
        pass
    out = np.full(len(values), math.nan)
    unreadable = np.zeros(len(values), dtype=bool)
    for i, value in enumerate(values):
        try:
            out[i] = float(value)
        except (TypeError, ValueError):
            unreadable[i] = True
    return out, unreadable


def _validate_output(path: str, fmt: str, args) -> list:
    """Re-read the p columns and ``physical`` of the emitted file and
    re-check all physical rows."""
    try:
        read = _read_columns(path, fmt)
    except (ValueError, csv.Error) as exc:
        return [f"cannot parse the {fmt.upper()} file: {exc}"]
    if read is None:
        return []
    p, unreadable, physical = read
    target = None
    if args.command == "locus":
        for name in ("t2", "t3", "t4"):
            if getattr(args, name, None) is not None:
                target = (int(name[1]), getattr(args, name))
    unreadable = physical & unreadable
    nonfinite = physical & ~unreadable & ~np.isfinite(p).all(axis=1)
    checked = physical & ~unreadable & ~nonfinite
    with np.errstate(invalid="ignore", over="ignore"):  # unchecked rows may hold anything
        off_simplex = checked & ((np.abs(p.sum(axis=1) - 1.0) > _TEXT_SIMPLEX_SLACK)
                                 | (p.min(axis=1) < -_TEXT_SIMPLEX_SLACK))
        off_target = np.zeros_like(checked)
        if target is not None:
            ell, value = target
            defect = np.abs((p**ell).sum(axis=1) - value)
            off_target = checked & (defect > DEFAULT.invariant_recheck)
    problems = []
    for i in np.flatnonzero(unreadable | nonfinite | off_simplex | off_target):
        row_number = int(i) + 2
        if unreadable[i]:
            problems.append(f"row {row_number}: physical row has unreadable p")
        elif nonfinite[i]:
            problems.append(f"row {row_number}: physical row has non-finite p")
        else:
            if off_simplex[i]:
                problems.append(f"row {row_number}: p violates the simplex constraints")
            if off_target[i]:
                problems.append(f"row {row_number}: t{target[0]} deviates from {target[1]!r}")
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
    parser.add_argument("--beta-grid", dest="beta_grid", default="0,log:1e-3:1e3:200",
                        help="comma-separated numbers and log:/lin: lo:hi:count specs")


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
    _add_common(p)

    p = sub.add_parser("phase-diagram", help="thermal map of the LMG coupling plane")
    p.add_argument("--model", choices=("lmg",), default="lmg")
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
    _add_common(p)

    # let range values like "-6:6:200" pass as option arguments
    matcher = re.compile(r"^-\d[\d.:eE+-]*$")
    for sub_parser in sub.choices.values():
        sub_parser._negative_number_matcher = matcher

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # ConfigError and the library's DimensionError and PositivityError are
    # all ValueErrors: each is a configuration error
    try:
        if hasattr(args, "spin_text"):
            args.spin = _parse_spin(args.spin_text)
        dataset = _BUILDERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if not len(dataset):
        print("error: the requested grid produced no rows", file=sys.stderr)
        return EXIT_CONFIG
    if dataset.failed_nodes and dataset.failed_nodes == len(dataset):
        print("numerical-failure: no node produced a finite result", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        _write_outputs(args.out, args, dataset)
        if dataset.failed_nodes:
            print(
                f"note: {dataset.failed_nodes} of {len(dataset)} nodes had no "
                "admissible solution and were masked",
                file=sys.stderr,
            )
        problems = _validate_output(args.out, args.format, args) if args.validate else []
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return EXIT_IO

    for problem in problems[:20]:
        print(f"validate: {problem}", file=sys.stderr)
    return EXIT_NUMERICAL if problems else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
