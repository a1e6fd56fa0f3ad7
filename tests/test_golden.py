"""Golden exports: every subcommand, CSV and JSON, compared cell by cell.

The files under ``tests/data/golden/`` were written by the row-by-row
exporter that preceded the columnar pipeline, one ``<case>.csv``, one
``<case>.json`` and one ``<case>.meta.json`` (the sidecar's ``columns``,
``counts`` and ``discrepancies``) per case.  Headers, row counts and
every cell must match exactly, except the lambda cells (columns ``l<k>``),
which may differ by ``FLOAT_ATOL``: a batched ``p @ A.T`` may round their
last bit differently from the per-row product it replaced.

Rewrite the fixtures (only after a deliberate change of the output) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import json
import math
import pathlib
import re
import sys

import pytest

from quditgeom.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
FLOAT_ATOL = 1e-15
LAMBDA_COLUMN = re.compile(r"l\d+")

CASES = {
    "frame-n3": ["frame", "--n", "3"],
    "frame-n5": ["frame", "--n", "5"],
    "map-n3-grid4": ["map", "--n", "3", "--grid", "4"],
    "map-n4-grid3": ["map", "--n", "4", "--grid", "3"],
    "map-points": ["map", "--n", "3", "--point", "0.5,0.3,0.2", "--point", "1,0,0"],
    "thermal-linear": ["thermal", "--model", "linear", "--J", "3/2",
                       "--beta-grid", "0,log:1e-2:1e2:6"],
    "thermal-lmg-j1": ["thermal", "--model", "lmg", "--J", "1", "--gx", "1", "--gy", "0.5",
                       "--beta-grid", "0,lin:0.5:3:4"],
    "thermal-lmg-j2": ["thermal", "--model", "lmg", "--J", "2", "--gminus", "0.3",
                       "--gplus", "-1.2", "--beta-grid", "0,1,10"],
    "phase-j1-gpm": ["phase-diagram", "--J", "1", "--beta", "0.7",
                     "--gminus", "-3:3:7", "--gplus", "-3:3:7"],
    "phase-j1-gxy": ["phase-diagram", "--J", "1", "--beta", "2.5", "--coords", "gxy",
                     "--gminus", "-3:3:7", "--gplus", "-2:2:5"],
    "phase-j32-gpm": ["phase-diagram", "--J", "3/2", "--beta", "1.3",
                      "--gminus", "-3:3:7", "--gplus", "-3:3:7"],
    "phase-j32-gxy": ["phase-diagram", "--J", "3/2", "--beta", "0.4", "--coords", "gxy",
                      "--gminus", "-2.5:2.5:6", "--gplus", "-3:3:7"],
    "locus-n3-t2": ["locus", "--n", "3", "--t2", "0.5", "--samples", "8"],
    "locus-n3-t3": ["locus", "--n", "3", "--t3", "0.3", "--samples", "12"],
    "locus-n3-t3-masked": ["locus", "--n", "3", "--t3", "0.8", "--samples", "12"],
    "locus-n4-t2": ["locus", "--n", "4", "--t2", "0.4",
                    "--theta-samples", "4", "--phi-samples", "6"],
    "locus-n4-t3": ["locus", "--n", "4", "--t3", "0.1",
                    "--theta-samples", "5", "--phi-samples", "7"],
    "locus-n4-t4-masked": ["locus", "--n", "4", "--t4", "0.3",
                           "--theta-samples", "5", "--phi-samples", "7"],
    "boundary": ["boundary", "--samples", "8"],
    "flower-linear": ["flower", "--model", "linear", "--J", "1",
                      "--beta-grid", "0,log:0.1:10:4"],
    "flower-lmg": ["flower", "--model", "lmg", "--J", "3/2", "--gx", "0.5", "--gy", "-0.3",
                   "--beta-grid", "0,1,2"],
}


def _export(argv, out, fmt) -> dict:
    assert main([*argv, "--format", fmt, "--out", str(out)]) == EXIT_OK
    meta = json.loads(pathlib.Path(f"{out}.meta.json").read_text())
    return {key: meta[key] for key in ("columns", "counts", "discrepancies")}


def _table(path, fmt) -> tuple:
    """Header and rows of cells; JSON cells keep their decoded types."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        return rows[0], rows[1:]
    payload = json.loads(pathlib.Path(path).read_text())
    columns = payload["columns"]
    assert all(list(row) == columns for row in payload["rows"])
    return columns, [[row[c] for c in columns] for row in payload["rows"]]


def _close(got, want) -> bool:
    if got == want:
        return True
    if got is None or want is None:
        return False
    got, want = float(got), float(want)
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= FLOAT_ATOL


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden_export(tmp_path, case, fmt):
    out = tmp_path / f"{case}.{fmt}"
    meta = _export(CASES[case], out, fmt)
    assert meta == json.loads((GOLDEN / f"{case}.meta.json").read_text())
    columns, rows = _table(out, fmt)
    want_columns, want_rows = _table(GOLDEN / f"{case}.{fmt}", fmt)
    assert columns == want_columns
    assert len(rows) == len(want_rows) == meta["counts"]["rows"]
    for number, (row, want) in enumerate(zip(rows, want_rows), start=1):
        for name, got, expected in zip(columns, row, want):
            if LAMBDA_COLUMN.fullmatch(name):
                assert _close(got, expected), (number, name, got, expected)
            else:
                assert repr(got) == repr(expected), (number, name)


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        metas = [_export(argv, GOLDEN / f"{case}.{fmt}", fmt) for fmt in ("csv", "json")]
        assert metas[0] == metas[1], case
        for fmt in ("csv", "json"):
            pathlib.Path(f"{GOLDEN / f'{case}.{fmt}'}.meta.json").unlink()
        (GOLDEN / f"{case}.meta.json").write_text(json.dumps(metas[0], indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
