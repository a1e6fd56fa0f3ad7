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

``--validate`` re-reads only the p columns and ``physical`` of the data
file, after the dataset is released, so the data is not held twice.  A
CSV file is read in one ``np.loadtxt`` call.  A JSON file laid out exactly
as the writer emits it is read in fixed blocks of bytes, each scanned by
one regex that captures only the p and ``physical`` cells, so that memory
does not grow with the file beyond the kept cells.  Any other JSON file is
read by ``json.load``, so that its values and its errors are
``json.load``'s.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure with zero successful nodes (also used when --validate finds a
violation).
"""

from __future__ import annotations

import argparse
import array
import csv
import functools
import io
import itertools
import json
import math
import operator
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
from .representations import _simplex_violations, check_probability_vector, invariants, p_to_lambda
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
        # a NaN endpoint makes NaN values, which are refused where they are read
        if math.isinf(lo) or math.isinf(hi):
            raise ValueError("lo and hi must be finite")
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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty float array, ascending, as
    ``np.unique`` finds them, save that each NaN counts as distinct, and
    without the import of ``numpy.ma`` that ``np.unique`` makes."""
    ordered = np.sort(values)
    return ordered[np.r_[True, ordered[1:] != ordered[:-1]]]


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
    grid = _distinct(np.concatenate(values))
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


def _locus_target(args) -> tuple:
    """The one invariant target ``(name, value)`` of a locus run: --t2, --t3 or --t4."""
    chosen = [(name, getattr(args, name, None)) for name in ("t2", "t3", "t4")
              if getattr(args, name, None) is not None]
    if len(chosen) != 1:
        raise ConfigError("locus needs exactly one of --t2, --t3, --t4")
    return chosen[0]


def _build_locus(args) -> Dataset:
    n = args.n
    which, value = _locus_target(args)
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
#: one chunk of cell strings is ever held.  A float column longer than this
#: whose values are at most half distinct also keeps the text of each
#: distinct value, in one numpy array of 24-character strings, and formats
#: them this many at a time (see ``_column_cells``)
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


def _column_cells(column: np.ndarray, *, for_json: bool):
    """A function from each slice of ``column`` to its cells, as ``_cells``.

    A float column longer than ``_CHUNK_CELLS`` rows whose values are at
    most half distinct (``_distinct`` over the whole column) formats
    each distinct value once, ``_CHUNK_CELLS`` at a time, into one numpy
    array of texts (no float ``repr`` is longer than 24 characters); its
    slices look their cells up by ``np.searchsorted``.  Any other column
    formats each slice as it comes.
    """
    distinct = (_distinct(column) if column.dtype.kind == "f"
                and column.size > _CHUNK_CELLS else None)
    if distinct is None or 2 * distinct.size > column.size:
        return lambda part: _cells(part, for_json=for_json)
    texts = np.empty(distinct.size, dtype="U24")
    for start in range(0, distinct.size, _CHUNK_CELLS):
        stop = start + _CHUNK_CELLS
        texts[start:stop] = _cells(distinct[start:stop], for_json=for_json)
    return lambda part: texts[distinct.searchsorted(part)].tolist()


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


#: the text of a JSON export before its column names, between two of them
#: and after them, up to its first row; what separates two rows; and the
#: text after the last row
_JSON_HEAD = ('{\n "columns": [\n  ', ',\n  ', '\n ],\n "rows": [')
_JSON_ROW_JOIN = ",\n  "
_JSON_TAIL = "\n ]\n}\n"


def _json_row_layout(names) -> list:
    """The text around the cells of one row of a JSON export with columns
    ``names``: ``layout[0] cell layout[1] ... cell layout[-1]``."""
    keys = [json.dumps(name) for name in names]
    return [f"{{\n   {keys[0]}: "] + [f",\n   {key}: " for key in keys[1:]] + ["\n  }"]


def _write_json(handle, dataset: Dataset) -> None:
    """The bytes of ``json.dump({"columns": [...], "rows": [{...}, ...]},
    indent=1)`` and a final newline, written one chunk of rows at a time."""
    keys = [json.dumps(name) for name in dataset.columns]
    handle.write(_JSON_HEAD[0] + _JSON_HEAD[1].join(keys) + _JSON_HEAD[2])
    # every row opens with the ",\n" that separates it from the one before;
    # the first row of the file opens with "\n" instead
    separators = _json_row_layout(dataset.columns)
    separators[0] = _JSON_ROW_JOIN + separators[0]
    for number, text in enumerate(_text_chunks(dataset, separators, for_json=True)):
        handle.write(text if number else text[1:])
    handle.write(_JSON_TAIL)


def _unread_options(args) -> set:
    """The options of ``args`` that the run does not read: the output path,
    which differs between runs of one configuration, the sample counts of
    the locus kind not built and ``--grid`` beside ``--point``."""
    unread = {"out"}
    if args.command == "locus":
        unread |= {"theta_samples", "phi_samples"} if args.n == 3 else {"samples"}
    elif args.command == "map" and args.point:
        unread.add("grid")
    return unread


def _sidecar(args, dataset: Dataset) -> dict:
    unread = _unread_options(args)
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if value is not None and key not in unread
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


def _physical(cells) -> np.ndarray:
    """Which cells of the physical column read 1 (as ``1`` or ``1.0``)."""
    return np.isin(np.asarray(cells, dtype=str), ("1", "1.0"))


#: bytes the JSON re-read of the writer's layout reads at a time
_JSON_BLOCK = 1 << 14
#: JSON texts the layout path reads: a p cell is a float as the writer
#: writes it (a number with a fraction or an exponent, NaN or +-Infinity)
#: or null; another cell any scalar json decodes alike, numbers with at
#: most 20 integer digits (int() refuses very long ones, as json then does)
#: and ASCII strings without escapes or control characters; a column name
#: any ASCII JSON string
_JSON_FLOAT = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)|NaN|-?Infinity"
_JSON_SCALAR = (rb"-?(?:0|[1-9][0-9]{0,19})(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|-?Infinity"
                rb'|"[^"\\\x00-\x1f\x80-\xff]*"|true|false|null')
_JSON_NAME = rb'"(?:[^"\\\x00-\x1f\x80-\xff]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*"'
#: the head of a JSON export, to the end of the line that opens its rows;
#: the group is its column names as the items of a JSON list
_JSON_COLUMNS = re.compile(rb"%s(%s(?:%s%s)*)%s\n" % (
    re.escape(_JSON_HEAD[0].encode()), _JSON_NAME,
    re.escape(_JSON_HEAD[1].encode()), _JSON_NAME, re.escape(_JSON_HEAD[2].encode())))


@functools.lru_cache(maxsize=64)
def _json_rows_pattern(names: tuple):
    """``(regex, p_at, physical_at)`` for the rows of a JSON export with
    columns ``names`` in the exact layout ``_write_json`` emits; None unless
    the names are distinct.

    ``regex`` matches the bytes of one row from the start of its line, up
    to the start of the next row or to the end of the file.  It captures
    the p cells of the row (None for a null one), its physical cell, in
    column order, and last the end of the file; ``p_at`` and
    ``physical_at`` (None without ``physical``) index them among its groups.
    """
    if len(set(names)) != len(names):
        return None
    cells = [rb"(?:(%s)|null)" % _JSON_FLOAT if _is_p(name) else rb"([01])" if name == "physical"
             else rb"(?:%s)" % _JSON_SCALAR for name in names]
    layout = [re.escape(text.encode()) for text in _json_row_layout(names)]
    row = b"".join(itertools.chain.from_iterable(zip(layout, cells))) + layout[-1]
    # a row that another follows ends in ",\n", and the next line opens with "  "
    join, indent = (re.escape(text.encode()) for text in (_JSON_ROW_JOIN[:2], _JSON_ROW_JOIN[2:]))
    tail = re.escape(_JSON_TAIL.encode())
    regex = re.compile(rb"%s%s(?:%s|(%s)\Z)" % (indent, row, join, tail))
    captured = [name for name in names if _is_p(name) or name == "physical"]
    p_at = [i for i, name in enumerate(captured) if name != "physical"]
    return regex, p_at, captured.index("physical") if "physical" in captured else None


def _read_json_layout(handle):
    """What ``_read_json`` reads of a JSON export open in binary ``handle``
    when the file is laid out exactly as ``_write_json`` emits it; else None.

    The head is read a line at a time and matched whole.  The rows are
    read ``_JSON_BLOCK`` bytes at a time, and each block, after the cut row
    the one before left, is scanned by the ``_json_rows_pattern`` regex;
    the matches are taken apart without a Python loop per row.  Only the p
    cells and the physical flags are kept.
    """
    last = _JSON_HEAD[2].rpartition("\n")[2].encode() + b"\n"
    lines = []
    for line in handle:
        lines.append(line)
        if line == last:
            break
    head = _JSON_COLUMNS.fullmatch(b"".join(lines))
    if head is None:
        return None
    names = json.loads(b"[%s]" % head[1])
    pattern = _json_rows_pattern(tuple(names))
    if pattern is None:
        return None
    regex, p_at, physical_at = pattern
    p, unreadable, physical = array.array("d"), array.array("q"), bytearray()
    count, held, ended = 0, b"", False
    while data := handle.read(_JSON_BLOCK):
        if ended:
            return None
        # each block, and all made of it, is dropped before the next read:
        # the matches hold the whole block
        held += data
        del data
        rows = list(iter(regex.scanner(held).match, None))
        if not rows:
            # a row of the layout holds "\n  }" only at its end: once that
            # and the longest ending after it are held, a row that does not
            # match never will, and the rest of the file need not be read
            end = held.find(b"\n  }")
            if 0 <= end <= len(held) - 4 - len(_JSON_TAIL):
                return None
            continue
        held, ended = held[rows[-1].end():], rows[-1].group(regex.groups) is not None
        cells = list(zip(*map(re.Match.groups, rows)))
        del rows
        # the p cells of the block, row by row; they repeat often
        texts = list(itertools.chain.from_iterable(zip(*map(cells.__getitem__, p_at))))
        values = {text: math.nan if text is None else float(text) for text in set(texts)}
        if None in values:
            unreadable.extend(count + k // len(p_at) for k, text in enumerate(texts)
                              if text is None)
        p.extend(map(values.__getitem__, texts))
        if physical_at is not None:
            physical += b"".join(cells[physical_at])
        count += len(cells[-1])
        del cells, texts, values
    if not ended:
        return None
    mask = np.zeros(count, dtype=bool)
    mask[np.asarray(unreadable, dtype=np.intp)] = True
    return (names, np.asarray(p).reshape(count, len(p_at)), mask,
            np.frombuffer(physical, dtype=np.uint8) == ord("1"))


def _read_json(path: str):
    """``(names, p, unreadable, physical)`` of a JSON export: its
    ``columns``, one row of its distinct p columns per row (NaN where a
    cell does not read as a number), a mask of the rows with such a cell
    and a mask of the rows whose physical cell reads 1.

    A file in the writer's own layout is read by ``_read_json_layout``;
    any other by ``json.load``, so that its values and its errors are
    ``json.load``'s.  Raises ValueError when the file does not decode, or
    is not an object holding a ``columns`` list of names and a ``rows``
    list of objects.
    """
    with open(path, "rb") as handle:
        read = _read_json_layout(handle)
    if read is not None:
        return read
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        payload = {}
    names, rows = payload.get("columns"), payload.get("rows")
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)
            and isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ValueError("not an object with a 'columns' list of names "
                         "and a 'rows' list of objects")
    p_keys = list(dict.fromkeys(filter(_is_p, names)))
    # a JSON string is no number, though float() reads "0.5" and "1_0"
    cells = (row.get(key) for row in rows for key in p_keys)
    values, bad = _floats([None if isinstance(cell, str) else cell for cell in cells])
    shape = (len(rows), len(p_keys))
    return (names, values.reshape(shape), bad.reshape(shape).any(axis=1),
            _physical([str(row.get("physical")) for row in rows]))


def _read_columns(path: str, fmt: str):
    """The p columns and ``physical`` of an exported file, or None without them.

    Returns ``(p, unreadable, physical)``: one row of p per data row (NaN
    where a cell does not read as a number), a mask of the rows with such a
    cell and a mask of the rows whose physical cell reads 1.  Only these
    columns are kept.  A CSV file is read by one ``np.loadtxt``, and again
    by ``csv.reader`` cell by cell when that meets a cell it cannot parse;
    a JSON file by ``_read_json``.  Raises ValueError or ``csv.Error`` when
    the file itself does not parse, or when a JSON file is not an object
    holding a ``columns`` list of names and a ``rows`` list of objects.
    """
    if fmt == "json":
        names, *read = _read_json(path)
        return tuple(read) if any(map(_is_p, names)) and "physical" in names else None
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
            # np.loadtxt skips blank lines, so the row numbers skip them here
            # too; a short row is reported once the whole file has parsed
            pick, last, kept, short = operator.itemgetter(*wanted), max(wanted), [], None
            rows = filter(None, itertools.islice(csv.reader(handle), 1, None))
            for number, row in enumerate(rows, start=2):
                if len(row) > last:
                    kept.extend(pick(row))
                elif short is None:
                    short = f"row {number} has {len(row)} of {len(names)} fields"
        else:
            p = np.column_stack([table[name] for name in table.dtype.names[:-1]])
            return p, np.zeros(len(table), dtype=bool), _physical(table["physical"])
    if short:
        raise ValueError(short)
    read = [_floats(kept[k::len(wanted)]) for k in range(len(wanted) - 1)]
    p = np.column_stack([values for values, _ in read])
    unreadable = np.column_stack([bad for _, bad in read]).any(axis=1)
    return p, unreadable, _physical(kept[len(wanted) - 1::len(wanted)])


def _floats(values: list) -> tuple:
    """Values as floats, and a mask of those that do not read as a number."""
    try:
        if None not in values:
            out = np.array(values, dtype=float)
            if out.ndim == 1:    # a cell that is a list adds a dimension
                return out, np.zeros(len(values), dtype=bool)
    except (TypeError, ValueError, OverflowError):
        pass
    out = np.full(len(values), math.nan)
    unreadable = np.zeros(len(values), dtype=bool)
    for i, value in enumerate(values):
        try:
            out[i] = float(value)
        except (TypeError, ValueError, OverflowError):
            unreadable[i] = True
    return out, unreadable


def _validate_output(path: str, fmt: str, args) -> list:
    """Re-read the p columns and ``physical`` of the emitted file and
    re-check all physical rows, with the simplex rule ``--point`` applies."""
    try:
        read = _read_columns(path, fmt)
    except (ValueError, csv.Error) as exc:
        return [f"cannot parse the {fmt.upper()} file: {exc}"]
    if read is None:
        return []
    p, unreadable, physical = read
    unreadable = physical & unreadable
    nonfinite = physical & ~unreadable & ~np.isfinite(p).all(axis=1)
    checked = physical & ~unreadable & ~nonfinite
    with np.errstate(invalid="ignore", over="ignore"):  # unchecked rows may hold anything
        outside, defect = _simplex_violations(p, _TEXT_SIMPLEX_SLACK)
        off_simplex = checked & (outside.any(axis=1) | (defect > 0.0))
        off_target = np.zeros_like(checked)
        if args.command == "locus":
            name, value = _locus_target(args)
            t = invariants(p, validate=False)[:, int(name[1]) - 2]
            off_target = checked & (np.abs(t - value) > DEFAULT.invariant_recheck)
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
                problems.append(f"row {row_number}: {name} deviates from {value!r}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
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


def _export(args) -> tuple:
    """Build the dataset of ``args`` and write it unless every node failed;
    return only ``(failed_nodes, rows)``, so that the dataset is released
    before ``--validate`` re-reads the file."""
    dataset = _BUILDERS[args.command](args)
    failed, rows = dataset.failed_nodes, len(dataset)
    if not failed or failed < rows:
        _write_outputs(args.out, args, dataset)
    return failed, rows


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # ConfigError and the library's DimensionError and PositivityError are
    # all ValueErrors: each is a configuration error, as is an --out path
    # that open() refuses outright (one holding a NUL)
    try:
        if hasattr(args, "spin_text"):
            args.spin = _parse_spin(args.spin_text)
        failed, rows = _export(args)
        if failed and failed == rows:
            print("numerical-failure: no node produced a finite result", file=sys.stderr)
            return EXIT_NUMERICAL
        if failed:
            print(f"note: {failed} of {rows} nodes had no admissible solution and were masked",
                  file=sys.stderr)
        problems = _validate_output(args.out, args.format, args) if args.validate else []
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return EXIT_IO

    for problem in problems[:20]:
        print(f"validate: {problem}", file=sys.stderr)
    return EXIT_NUMERICAL if problems else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
