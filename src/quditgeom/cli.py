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
Python string per distinct value of each numeric column with at most half
its rows distinct: such a column formats each distinct value once, with
the separator before it, and hands out those same strings as its cells.
Both files are written atomically: into temporary files in the
destination directory, moved into place with ``os.replace`` only once
both are complete (the data file last; an earlier sidecar is parked and
moved back if a move fails), so a failed run leaves the earlier pair, or
none, as it found it.

Every export re-checks every physical row of the dataset in memory,
before it is written, in blocks of rows, and reads each chunk of the
temporary data file back right after writing it, to prove that the file
holds the bytes written and ends after the last.  The sidecar records the
BLAKE2b-512 digest of those bytes (what ``b2sum`` prints); each byte is
hashed once, as written.  ``--validate`` is still accepted and has no
effect.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure with zero successful nodes, or a row or file that fails its check.
A ``--J`` that the library refuses, 2J not a positive integer or more
than 1,024 levels 2J + 1, is a configuration error, raised before any
matrix or spectrum is built.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

# CPython's own BLAKE2b, not ``hashlib``'s: ``hashlib`` loads OpenSSL, which
# adds about 3.4 MB to the resident memory of every run, more than a whole
# row check holds.  At its default 64-byte digest the hex digest
# is what coreutils ``b2sum`` prints.
from _blake2 import blake2b

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
from .models import LMGParams, _check_spin, linear_spectrum, lmg_spectrum, phase_grid
from .representations import _simplex_violations, check_probability_vector, invariants, p_to_lambda
from .thermal import trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

#: slack on simplex membership for p given as text (``--point`` values) and
#: for the rows every export re-checks, which a file holds as text:
#: decimals typed or rounded by hand, such as 0.333333333 for 1/3, miss the
#: simplex by more than the library's 1e-12
_TEXT_SIMPLEX_SLACK = 1e-9
#: allowed defect when a generated locus is re-checked through the invariants
_INVARIANT_RECHECK = 1e-9


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
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
        if math.isinf(hi - lo):  # a float subtraction, which does not warn as numpy's does
            raise ValueError("hi - lo must be finite")
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
    """The distinct values of a non-empty numeric array, ascending, as
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
    block at once, t first: the power temporaries of ``invariants`` are
    freed before lambda is allocated, so the peak memory stays near that
    of the finished table.  Rows whose p is not all finite are masked
    nodes: their state columns are NaN, their physical flag is 0 and they
    count as failed.  ``physical`` defaults to 1 on every unmasked row.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[1]
    masked = ~np.isfinite(p).all(axis=1)
    if masked.any():
        p = np.where(masked[:, None], np.nan, p)
    t = invariants(p, validate=False)
    lam = p_to_lambda(p, validate=False)
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

    Rows run in ascending lexicographic order of their coordinates, in one
    C-contiguous float array: its only other arrays are one integer array
    per coordinate, so the peak memory is about twice the grid's.
    """
    # each pass appends one coordinate: every partial row splits into one
    # row per value 0..left, in ascending order, where left is what remains
    coordinates = []
    left = np.array([divisions])
    for _ in range(n - 1):
        counts = left + 1
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        coordinates = [np.repeat(part, counts) for part in coordinates] + [value]
        left = np.repeat(left, counts) - value
    grid = np.empty((left.size, n))
    for k, part in enumerate(coordinates + [left]):
        np.divide(part, divisions, out=grid[:, k])
    return grid


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
#: one chunk of cell strings is ever held.  A numeric column longer than this
#: whose values are at most half distinct also keeps the text of each
#: distinct value, led by its separator and, in the last column, followed by
#: the row's terminator, as Python strings in one object array, and formats
#: them this many at a time (see ``_column_cells``).  The row check takes
#: this many rows at a time
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


def _column_cells(column: np.ndarray, separator: str, terminator: str, *, for_json: bool):
    """A function from each slice of ``column`` to the streams of text of
    its rows, as ``_text_chunks`` zips them: cell k of the slice reads
    ``separator``, its cell as ``_cells`` makes it, then ``terminator``.

    A numeric column longer than ``_CHUNK_CELLS`` rows whose values are at
    most half distinct (``_distinct`` over the whole column) formats each
    distinct value once, ``_CHUNK_CELLS`` at a time, into one object array
    of the ``str`` ``separator + cell + terminator``; its slices look their
    texts up by ``np.searchsorted`` and get those same strings back as one
    stream, with no conversion per cell.  Any other column formats each
    slice as it comes and adds one ``itertools.repeat`` stream for each of
    ``separator`` and ``terminator`` that is not empty.
    """
    distinct = (_distinct(column) if column.dtype.kind in "biuf"
                and column.size > _CHUNK_CELLS else None)
    if distinct is None or 2 * distinct.size > column.size:
        before = [itertools.repeat(separator)] if separator else []
        after = [itertools.repeat(terminator)] if terminator else []
        return lambda part: [*before, _cells(part, for_json=for_json), *after]
    texts = np.empty(distinct.size, dtype=object)
    for start in range(0, distinct.size, _CHUNK_CELLS):
        stop = start + _CHUNK_CELLS
        texts[start:stop] = [separator + cell + terminator
                             for cell in _cells(distinct[start:stop], for_json=for_json)]
    return lambda part: [texts[distinct.searchsorted(part)].tolist()]


def _text_chunks(dataset: Dataset, separators: list, *, for_json: bool):
    """The rows as text, one string per chunk of rows.

    Each row reads ``separators[0] cell separators[1] cell ... separators[-1]``.
    The streams of the columns' texts (see ``_column_cells``; the last
    column carries ``separators[-1]``) are zipped into a single join per
    chunk, so no string per row is built.
    """
    columns = list(dataset.columns.values())
    terminators = [""] * (len(columns) - 1) + separators[-1:]
    formats = [_column_cells(col, separator, terminator, for_json=for_json)
               for col, separator, terminator in zip(columns, separators, terminators)]
    rows = max(1, _CHUNK_CELLS // len(columns))
    for start in range(0, len(dataset), rows):
        streams = [stream for streams_of, col in zip(formats, columns)
                   for stream in streams_of(col[start:start + rows])]
        yield "".join(itertools.chain.from_iterable(zip(*streams)))


def _csv_chunks(dataset: Dataset):
    """The text of ``csv.writer(lineterminator="\\n")`` over the header and
    the rows: the header, then one chunk of rows at a time."""
    yield ",".join(map(_csv_field, dataset.columns)) + "\n"
    separators = [""] + [","] * (len(dataset.columns) - 1) + ["\n"]
    yield from _text_chunks(dataset, separators, for_json=False)


def _json_chunks(dataset: Dataset):
    """The text of ``json.dump({"columns": [...], "rows": [{...}, ...]},
    indent=1)`` and a final newline: the head, one chunk of rows at a time
    and the tail."""
    keys = [json.dumps(name) for name in dataset.columns]
    yield '{\n "columns": [\n  ' + ",\n  ".join(keys) + '\n ],\n "rows": ['
    # every row opens with the ",\n" that separates it from the one before;
    # the first row of the file opens with "\n" instead
    separators = ([f",\n  {{\n   {keys[0]}: "] + [f",\n   {key}: " for key in keys[1:]]
                  + ["\n  }"])
    for number, text in enumerate(_text_chunks(dataset, separators, for_json=True)):
        yield text if number else text[1:]
    yield "\n ]\n}\n"


def _unread_options(args) -> set:
    """The options of ``args`` that the run does not read: the output path,
    which differs between runs of one configuration, ``--validate``, which
    has no effect, the sample counts of the locus kind not built, ``--grid``
    beside ``--point`` and the LMG couplings of a linear model."""
    unread = {"out", "validate"}
    if args.command == "locus":
        unread |= {"theta_samples", "phi_samples"} if args.n == 3 else {"samples"}
    elif args.command == "map" and args.point:
        unread.add("grid")
    elif getattr(args, "model", None) == "linear":
        unread |= {"gx", "gy", "gminus_val", "gplus_val"}
    return unread


def _sidecar(args, dataset: Dataset, digest: str) -> dict:
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
        "blake2b": digest,
    }


def _write_outputs(path: str, args, dataset: Dataset) -> list:
    """Write the data file and its sidecar atomically; return the problems
    of the data file, at most one.

    Each chunk of text is encoded once, fed to one BLAKE2b-512, written,
    and read back from the temporary data file right after it is written,
    with one byte more: it must equal the bytes written, so after the last
    chunk the file must end there.  The first difference is the one
    problem.  The sidecar records the digest under ``blake2b``.  Both files
    go to temporary files in the destination directory first and are moved
    into place with ``os.replace`` only once both are complete, the sidecar
    first and the data file last.  An earlier sidecar is parked under a
    ``.tmp`` name first and moved back if either move fails, so on any error
    the temporary files are removed and ``path`` and its sidecar are as the
    run found them.  The parked copy is deleted once the data file is in
    place; if only that deletion fails, the new pair stands, the earlier
    sidecar stays under its ``.tmp`` name and the run exits 3.
    """
    chunks = (_csv_chunks if args.format == "csv" else _json_chunks)(dataset)
    sidecar = path + ".meta.json"
    suffix = f".{os.getpid()}-{os.urandom(4).hex()}.tmp"
    data_temp, sidecar_temp = path + suffix, sidecar + suffix
    written, problems = [], []
    try:
        digest = blake2b()
        with open(data_temp, "x+b") as handle:
            written.append(data_temp)
            for text in chunks:
                data = text.encode()
                digest.update(data)
                handle.write(data)
                if not problems:
                    # flushed, so the read-back comes from the file, not the buffer
                    handle.flush()
                    start = handle.seek(-len(data), os.SEEK_CUR)
                    if handle.read(len(data) + 1) != data:
                        problems.append(f"the data file does not hold the {len(data)} "
                                        f"bytes written at byte {start}")
        payload = _sidecar(args, dataset, digest.hexdigest())
        with open(sidecar_temp, "xb") as handle:
            written.append(sidecar_temp)
            handle.write((json.dumps(payload, indent=1) + "\n").encode())
        parked = sidecar + ".old" + suffix if os.path.exists(sidecar) else None
        if parked:
            os.replace(sidecar, parked)
        try:
            os.replace(sidecar_temp, sidecar)
            os.replace(data_temp, path)
        except OSError:
            if parked:
                os.replace(parked, sidecar)
            elif os.path.exists(sidecar):  # none was there before this run
                os.remove(sidecar)
            raise
        if parked:
            os.remove(parked)
    finally:
        for temp in written:
            if os.path.exists(temp):
                os.remove(temp)
    return problems


def _validate_dataset(dataset: Dataset, args) -> list:
    """Re-check every physical row of ``dataset``: its p must be finite and
    on the simplex by the rule ``--point`` applies and, for ``locus``, hit
    the target invariant.  Rows are checked ``_CHUNK_CELLS`` at a time, so
    no array of the whole table is stacked.  Row i is reported as row
    i + 2, its line in a CSV file."""
    columns = dataset.columns
    p_columns = [col for name, col in columns.items()
                 if name.startswith("p") and name[1:].isdigit()]
    if not p_columns or "physical" not in columns:
        return []
    target = _locus_target(args) if args.command == "locus" else None
    problems = []
    for start in range(0, len(dataset), _CHUNK_CELLS):
        p = np.column_stack([col[start:start + _CHUNK_CELLS] for col in p_columns])
        physical = columns["physical"][start:start + _CHUNK_CELLS] == 1
        nonfinite = physical & ~np.isfinite(p).all(axis=1)
        checked = physical & ~nonfinite
        with np.errstate(invalid="ignore", over="ignore"):  # unchecked rows may hold anything
            outside, defect = _simplex_violations(p, _TEXT_SIMPLEX_SLACK)
            off_simplex = checked & (outside.any(axis=1) | (defect > 0.0))
            off_target = np.zeros_like(checked)
            if target:
                name, value = target
                t = invariants(p, validate=False)[:, int(name[1]) - 2]
                off_target = checked & (np.abs(t - value) > _INVARIANT_RECHECK)
        for i in np.flatnonzero(nonfinite | off_simplex | off_target):
            row_number = start + int(i) + 2
            if nonfinite[i]:
                problems.append(f"row {row_number}: physical row has non-finite p")
                continue
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
                        help="no effect: every run re-checks all physical rows and reads "
                             "each written chunk back to compare its bytes")


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

    # let range values like "-6:6:200" and grids like "-0,1" pass as option arguments
    matcher = re.compile(r"^-\d[\d.:,eE+-]*$")
    for sub_parser in sub.choices.values():
        sub_parser._negative_number_matcher = matcher

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # ConfigError and the library's DimensionError and PositivityError are
    # all ValueErrors: each is a configuration error, as is an --out path
    # that open() refuses outright (one holding a NUL)
    try:
        if hasattr(args, "spin_text"):
            args.spin = _parse_spin(args.spin_text)
        dataset = _BUILDERS[args.command](args)
        failed, rows = dataset.failed_nodes, len(dataset)
        if failed and failed == rows:
            print("numerical-failure: no node produced a finite result", file=sys.stderr)
            return EXIT_NUMERICAL
        problems = _validate_dataset(dataset, args) + _write_outputs(args.out, args, dataset)
        if failed:
            print(f"note: {failed} of {rows} nodes had no admissible solution and were masked",
                  file=sys.stderr)
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
