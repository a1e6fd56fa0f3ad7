import csv
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from unittest import mock

import numpy as np
import pytest

import quditgeom
from quditgeom.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    _barycentric_grid,
    _build_map,
    _parse_beta_grid,
    _parse_range,
    _parse_spin,
    build_parser,
    main,
)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _traced_peak(function, *args):
    """``function(*args)`` and the peak bytes ``tracemalloc`` saw during the call."""
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _compositions(n, divisions):
    """The points of ``_barycentric_grid(n, divisions)`` by stars and bars:
    each choice of n - 1 bar positions among divisions + n - 1 slots splits
    the divisions into n parts, each divided by ``divisions`` as a float."""
    rows = []
    for bars in itertools.combinations(range(divisions + n - 1), n - 1):
        edges = (-1, *bars, divisions + n - 1)
        rows.append([(hi - lo - 1) / divisions for lo, hi in zip(edges, edges[1:])])
    return rows


class TestParsers:
    def test_spin_formats(self):
        assert _parse_spin("1") == 1.0
        assert _parse_spin("3/2") == 1.5
        assert _parse_spin("1.5") == 1.5

    def test_spin_rejects_bad_values(self):
        from quditgeom.cli import ConfigError

        for bad in ("0", "1e-13", "-1", "0.3", "x", "1/0"):
            with pytest.raises(ConfigError):
                _parse_spin(bad)

    def test_range(self):
        np.testing.assert_allclose(_parse_range("-6:6:5"), np.linspace(-6, 6, 5))
        np.testing.assert_allclose(_parse_range("2.5"), [2.5])

    def test_beta_grid_mixes_literals_and_specs(self):
        grid = _parse_beta_grid("0,log:1e-2:1e2:5")
        assert grid[0] == 0.0
        assert grid.size == 6
        assert np.all(np.diff(grid) > 0)
        lin = _parse_beta_grid("lin:0:1:3")
        np.testing.assert_allclose(lin, [0.0, 0.5, 1.0])

    def test_beta_grid_rejects_negative(self):
        from quditgeom.cli import ConfigError

        with pytest.raises(ConfigError):
            _parse_beta_grid("-1,1")
        with pytest.raises(ConfigError):
            _parse_beta_grid("log:0:1:5")

    DEFAULT_BETA_GRID = build_parser().parse_args(
        ["thermal", "--model", "linear", "--J", "1", "--out", "x"]).beta_grid

    @pytest.mark.parametrize("text", [
        DEFAULT_BETA_GRID,
        "log:1e-2:1e2:9,lin:0:100:11,0.1,lin:1:10:10,log:1:10:4",
        "2,1,2,0.5,1,2,0.5",
        "0,-0", "-0,0", "0.5,-0,0,1,-0",
    ], ids=["default", "overlapping-specs", "repeated-literals", "zero-minus-zero",
            "minus-zero-zero", "zeros-among-values"])
    def test_beta_grid_is_what_np_unique_makes_of_the_values(self, text):
        import quditgeom.cli as cli_mod

        grid = _parse_beta_grid(text)
        with mock.patch.object(cli_mod, "_distinct", np.unique):
            expected = _parse_beta_grid(text)
        # values, signs of zero, length and order
        assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("command", ["thermal", "flower"])
    def test_default_beta_grid_is_the_library_default(self, command):
        args = build_parser().parse_args([command, "--model", "lmg", "--J", "1", "--out", "x"])
        grid, expected = _parse_beta_grid(args.beta_grid), quditgeom.default_beta_grid()
        assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["-1,1", "0,-1e-300", "nan", "1,nan,nan", "lin:nan:1:3",
                                      "-inf,2", "inf"])
    def test_beta_grid_refuses_negative_and_nan_values_as_np_unique_did(self, text):
        import quditgeom.cli as cli_mod
        from quditgeom.cli import ConfigError

        message = r"^beta values must be finite and >= 0$"
        with pytest.raises(ConfigError, match=message):
            _parse_beta_grid(text)
        with mock.patch.object(cli_mod, "_distinct", np.unique), \
                pytest.raises(ConfigError, match=message):
            _parse_beta_grid(text)


class TestThermalCommand:
    def test_columns_and_endpoints(self, tmp_path):
        out = tmp_path / "thermal.csv"
        code = main([
            "thermal", "--model", "linear", "--J", "1", "--omega", "1",
            "--beta-grid", "log:1e-3:1e3:200", "--out", str(out),
        ])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["beta", "p1", "p2", "p3", "l7", "l8", "t2", "t3", "physical"]
        assert len(rows) == 200
        first = np.array([float(x) for x in rows[0][1:4]])
        last = np.array([float(x) for x in rows[-1][1:4]])
        np.testing.assert_allclose(first, np.full(3, 1 / 3), atol=2e-3)
        np.testing.assert_allclose(last, [1, 0, 0], atol=1e-12)

    def test_sidecar_written(self, tmp_path):
        out = tmp_path / "thermal.csv"
        main([
            "thermal", "--model", "linear", "--J", "3/2",
            "--beta-grid", "0,lin:0.5:2:4", "--out", str(out),
        ])
        meta = json.loads((out.parent / "thermal.csv.meta.json").read_text())
        assert meta["tool"] == "quditgeom"
        assert meta["command"] == "thermal"
        assert meta["counts"]["rows"] == 5
        assert meta["columns"][0] == "beta"
        assert meta["config"]["spin_text"] == "3/2"

    def test_lmg_model(self, tmp_path):
        out = tmp_path / "lmg.csv"
        code = main([
            "thermal", "--model", "lmg", "--J", "1", "--gx", "1.0", "--gy", "0.5",
            "--beta-grid", "lin:0:1:3", "--out", str(out),
        ])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 3

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "thermal", "--model", "linear", "--J", "1",
            "--beta-grid", "log:1e-2:1e2:50",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command, fmt", [("thermal", "csv"), ("flower", "json")])
    def test_negative_zero_beta_writes_what_zero_does(self, tmp_path, command, fmt):
        outs = []
        for grid in ("0", "-0", "0,-0", "-0,0"):
            for option in ([f"--beta-grid={grid}"], ["--beta-grid", grid]):
                outs.append(tmp_path / f"{len(outs)}.{fmt}")
                assert main([command, "--model", "lmg", "--J", "1", "--gx", "0.5", *option,
                             "--format", fmt, "--validate", "--out", str(outs[-1])]) == EXIT_OK
        assert len({out.read_bytes() for out in outs}) == 1


class TestSidecar:
    @pytest.mark.parametrize("argv, unread", [
        (["locus", "--n", "3", "--t3", "0.8", "--samples", "16"], {"theta_samples", "phi_samples"}),
        (["locus", "--n", "4", "--t2", "0.5", "--theta-samples", "4", "--phi-samples", "5"],
         {"samples"}),
        (["map", "--n", "3", "--point", "0.5,0.25,0.25"], {"grid"}),
        (["thermal", "--model", "linear", "--J", "1", "--beta-grid", "lin:0:1:3"], set()),
        (["thermal", "--model", "linear", "--J", "1", "--gx", "3", "--gminus", "2",
          "--beta-grid", "0,1"], {"gx", "gminus_val"}),
        (["flower", "--model", "linear", "--J", "1", "--gy", "1", "--gplus", "2",
          "--beta-grid", "0,1"], {"gy", "gplus_val"}),
    ], ids=["locus-n3", "locus-n4", "map-point", "thermal", "thermal-linear-couplings",
            "flower-linear-couplings"])
    def test_runs_into_two_directories_write_equal_sidecars(self, tmp_path, argv, unread):
        outs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            outs.append(tmp_path / name / "table.json")
            assert main(argv + ["--format", "json", "--out", str(outs[-1])]) == EXIT_OK
        first, second = (json.loads((out.parent / "table.json.meta.json").read_text())
                         for out in outs)
        assert first == second
        assert not (unread | {"out"}) & set(first["config"])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert first["blake2b"] == hashlib.blake2b(outs[0].read_bytes()).hexdigest()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["frame", "--n", "3"],
        ["map", "--n", "3", "--grid", "6"],
        ["thermal", "--model", "lmg", "--J", "2", "--gx", "0.5", "--beta-grid", "0,lin:0.5:2:4"],
        ["phase-diagram", "--J", "3/2", "--beta", "1", "--gminus=-3:3:5", "--gplus=-3:3:5"],
        ["locus", "--n", "3", "--t3", "0.3", "--samples", "32"],
        ["boundary", "--samples", "16"],
        ["flower", "--model", "linear", "--J", "1", "--beta-grid", "0,1,2"],
    ], ids=lambda argv: argv[0])
    def test_plain_and_validated_runs_write_equal_files(self, tmp_path, argv, fmt):
        outs = []
        for name, validate in (("plain", []), ("validated", ["--validate"])):
            (tmp_path / name).mkdir()
            outs.append(tmp_path / name / f"table.{fmt}")
            assert main([*argv, "--format", fmt, *validate, "--out", str(outs[-1])]) == EXIT_OK
        plain, validated = ([out.read_bytes(), out.with_name(out.name + ".meta.json").read_bytes()]
                            for out in outs)
        assert plain == validated  # the data files, and the sidecars
        assert "validate" not in json.loads(plain[1])["config"]

    @pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["plain", "validate"])
    @pytest.mark.parametrize("argv", [
        ["map", "--n", "3", "--grid", "40", "--format", "csv"],
        ["map", "--n", "4", "--grid", "6", "--format", "json"],
        ["locus", "--n", "3", "--t3", "0.3", "--samples", "64", "--format", "json"],
        ["phase-diagram", "--J", "1", "--beta", "1", "--gminus=-3:3:9", "--gplus=-3:3:9"],
        ["frame", "--n", "5"],
    ], ids=["map-csv", "map-json", "locus", "phase-diagram", "frame"])
    def test_each_export_hashes_its_bytes_once(self, tmp_path, monkeypatch, argv, validate):
        import quditgeom.cli as cli_mod

        fed = []

        class CountingBlake2b:
            def __init__(self):
                self.digest = hashlib.blake2b()
                fed.append(0)

            def update(self, data):
                fed[-1] += len(data)
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

        monkeypatch.setattr(cli_mod, "blake2b", CountingBlake2b)
        out = tmp_path / "table"
        assert main([*argv, *validate, "--out", str(out)]) == EXIT_OK
        data = out.read_bytes()
        assert fed == [len(data)]
        assert json.loads((tmp_path / "table.meta.json").read_text())["blake2b"] == \
            hashlib.blake2b(data).hexdigest()


class TestPhaseDiagramCommand:
    def test_grid_and_regions(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = main([
            "phase-diagram", "--model", "lmg", "--J", "1", "--beta", "0.25",
            "--gminus", "-6:6:7", "--gplus", "-6:6:7", "--out", str(out),
        ])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[:3] == ["gminus", "gplus", "region"]
        assert len(rows) == 49
        regions = {row[2] for row in rows}
        assert {"I", "II", "III"} <= regions

    def test_beta_zero_coalesces(self, tmp_path):
        out = tmp_path / "pd0.csv"
        main([
            "phase-diagram", "--J", "1", "--beta", "0",
            "--gminus", "-2:2:3", "--gplus", "-2:2:3", "--out", str(out),
        ])
        _, rows = read_csv(out)
        for row in rows:
            p = np.array([float(x) for x in row[3:6]])
            np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-14)

    def test_regions_land_in_their_own_sectors(self, tmp_path):
        # fixed labels: the most occupied column identifies the ground label
        out = tmp_path / "pd.csv"
        main([
            "phase-diagram", "--J", "1", "--beta", "0.5",
            "--gminus", "-6:6:9", "--gplus", "-6:6:9", "--out", str(out),
        ])
        _, rows = read_csv(out)
        for row in rows:
            p = np.array([float(x) for x in row[3:6]])
            if row[2] == "I":
                assert p.argmax() == 0
            elif row[2] in ("II", "III"):
                assert p.argmax() == 1


    @pytest.mark.parametrize("bad", [
        ["--gminus", "nan", "--gplus", "0"],
        ["--gminus", "0", "--gplus", "inf"],
        ["--gminus", "0", "--gplus", "0", "--omega", "0"],
        ["--gminus", "0", "--gplus", "0", "--omega", "-1"],
        ["--gminus", "0", "--gplus", "0", "--beta", "-1"],
    ])
    def test_invalid_couplings_omega_and_beta_exit_two(self, tmp_path, bad):
        argv = ["phase-diagram", "--J", "3/2", "--beta", "1", *bad, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_CONFIG
        assert os.listdir(tmp_path) == []


class TestLocusCommand:
    def test_qutrit_t3_locus_self_consistent(self, tmp_path):
        out = tmp_path / "locus.csv"
        code = main([
            "locus", "--n", "3", "--t3", "0.25", "--samples", "64",
            "--out", str(out), "--validate",
        ])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[:2] == ["alpha", "r"]
        worst = max(
            abs(sum(float(x) ** 3 for x in row[2:5]) - 0.25)
            for row in rows
            if row[-1] == "1"
        )
        assert worst < 1e-10

    def test_ququart_surface(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = main([
            "locus", "--n", "4", "--t4", "0.078125",
            "--theta-samples", "7", "--phi-samples", "9",
            "--out", str(out), "--validate",
        ])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[:3] == ["theta", "phi", "r"]
        assert len(rows) == 63

    def test_ququart_t4_default_mesh_validates(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["locus", "--n", "4", "--t4", "0.039321", "--out", str(out), "--validate"]) == EXIT_OK

    def test_exactly_one_invariant_required(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["locus", "--n", "3", "--out", str(out)]) == EXIT_CONFIG
        assert main([
            "locus", "--n", "3", "--t2", "0.5", "--t3", "0.2", "--out", str(out),
        ]) == EXIT_CONFIG

    def test_out_of_range_invariant_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["locus", "--n", "3", "--t3", "0.01", "--out", str(out)]) == EXIT_CONFIG

    def test_json_format(self, tmp_path):
        out = tmp_path / "locus.json"
        code = main([
            "locus", "--n", "3", "--t2", "0.5", "--samples", "8",
            "--format", "json", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "alpha"
        assert len(payload["rows"]) == 8
        assert payload["rows"][0]["physical"] == 1


class TestBoundaryCommand:
    def test_pieces_and_discrepancy_note(self, tmp_path):
        out = tmp_path / "boundary.csv"
        code = main(["boundary", "--n", "3", "--samples", "16", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        pieces = {row[0] for row in rows}
        assert pieces == {
            "two-equal-upper", "two-equal-lower", "zero-eigenvalue",
            "center-to-vertex", "center-to-midpoint", "midpoint-to-vertex",
        }
        meta = json.loads((out.parent / "boundary.csv.meta.json").read_text())
        assert any("midpoint-to-vertex" in note for note in meta["discrepancies"])

    def test_requires_qutrit(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["boundary", "--n", "4", "--out", str(out)]) == EXIT_CONFIG


class TestFlowerCommand:
    def test_six_petals_for_qutrit(self, tmp_path):
        out = tmp_path / "flower.csv"
        code = main([
            "flower", "--model", "linear", "--J", "1",
            "--beta-grid", "0,log:0.1:10:5", "--out", str(out),
        ])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        perms = {row[0] for row in rows}
        assert len(perms) == 6
        assert len(rows) == 36
        # every copy has the same invariant image at matching beta
        by_beta = {}
        for row in rows:
            t = np.array([float(row[7]), float(row[8])])
            by_beta.setdefault(row[1], []).append(t)
        for images in by_beta.values():
            stack = np.vstack(images)
            assert np.abs(stack - stack[0]).max() < 1e-14


class TestMapAndFrame:
    def test_map_explicit_point(self, tmp_path):
        out = tmp_path / "map.csv"
        code = main([
            "map", "--n", "3", "--point", "0.5,0.3,0.2", "--out", str(out),
        ])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[:3] == ["p1", "p2", "p3"]
        assert len(rows) == 1
        lam = [float(rows[0][3]), float(rows[0][4])]
        np.testing.assert_allclose(lam, [0.2, (1 - 0.6) / math.sqrt(3)], atol=1e-12)

    def test_map_rejects_bad_point(self, tmp_path):
        out = tmp_path / "map.csv"
        assert main(["map", "--n", "3", "--point", "1,1,1", "--out", str(out)]) == EXIT_CONFIG
        assert main(["map", "--n", "3", "--point", "0.5,0.5", "--out", str(out)]) == EXIT_CONFIG
        assert main(["map", "--n", "3", "--point", "nan,0.5,0.5", "--out", str(out)]) == EXIT_CONFIG
        assert main(["map", "--n", "3", "--grid", "0", "--out", str(out)]) == EXIT_CONFIG

    def test_map_grid_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["map", "--n", "3", "--grid", "4", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 15  # C(4+2, 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_grid_equals_the_compositions_in_order(self, n):
        for divisions in range(1, 9):
            self._assert_grid_equals_compositions(n, divisions)

    @pytest.mark.parametrize("n, divisions", [(3, 280), (4, 60), (5, 29)])
    def test_benchmark_grids_equal_the_compositions_in_order(self, n, divisions):
        self._assert_grid_equals_compositions(n, divisions)

    @staticmethod
    def _assert_grid_equals_compositions(n, divisions):
        # lambda is bit-stable only for this layout: the same float64 bytes,
        # C-contiguous rows in ascending lexicographic order
        expected = _compositions(n, divisions)
        assert expected == sorted(expected)
        grid = _barycentric_grid(n, divisions)
        assert grid.dtype == np.float64 and grid.flags.c_contiguous
        assert grid.shape == (len(expected), n)
        assert grid.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_grid_peaks_below_two_and_a_half_grids(self):
        grid, peak = _traced_peak(_barycentric_grid, 5, 29)
        assert peak <= 2.5 * grid.nbytes

    def test_map_build_peaks_near_its_columns(self):
        args = build_parser().parse_args(["map", "--n", "5", "--grid", "29", "--out", "unused"])
        dataset, peak = _traced_peak(_build_map, args)
        assert len(dataset) == 40920
        assert peak <= 1.1 * sum(column.nbytes for column in dataset.columns.values())

    def test_frame_rows(self, tmp_path):
        out = tmp_path / "frame.csv"
        assert main(["frame", "--n", "4", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["kind", "index", "c1", "c2", "c3", "c4"]
        assert rows[0][0] == "center"
        assert len(rows) == 4
        axis3 = np.array([float(x) for x in rows[3][2:]])
        np.testing.assert_allclose(axis3, np.array([1, 1, 1, -3]) / (2 * math.sqrt(3)), atol=1e-15)


PHASE = ["phase-diagram", "--J", "1", "--beta", "1", "--gplus", "0"]
LINEAR = ["thermal", "--model", "linear", "--J", "1"]


class SpectrumReached(Exception):
    """Raised by a spectrum builder that a test forbids the CLI to call."""


class TestErrorPaths:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == EXIT_CONFIG

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["thermal", "--model", "linear", "--J", "1"])
        assert excinfo.value.code == EXIT_CONFIG

    def test_unwritable_path_exits_three(self, tmp_path):
        code = main([
            "frame", "--n", "3", "--out", str(tmp_path / "missing-dir" / "x.csv"),
        ])
        assert code == EXIT_IO

    def test_bad_spin_exits_two(self, tmp_path):
        code = main([
            "thermal", "--model", "linear", "--J", "0.3",
            "--beta-grid", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_CONFIG

    def test_conflicting_couplings_exit_two(self, tmp_path):
        code = main([
            "thermal", "--model", "lmg", "--J", "1", "--gx", "1", "--gminus", "0.5",
            "--beta-grid", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, message", [
        (["locus", "--n", "3", "--t3", "0.01"], "t3 must lie in [1/9, 1], got 0.01"),
        (["locus", "--n", "5", "--t2", "0.5"], "locus supports --n 3 or --n 4"),
        (["locus", "--n", "3", "--t4", "0.1"], "t4 is not defined for n = 3"),
        (["thermal", "--model", "lmg", "--J", "1", "--gx", "nan", "--beta-grid", "0"],
         "couplings must be finite"),
        (["thermal", "--model", "linear", "--J", "0.3"],
         "2J must be a positive integer, got J = 0.3"),
        (["frame", "--n", "1"], "dimension must be >= 2, got 1"),
        (["map", "--n", "0"], "dimension must be >= 2, got 0"),
        (["phase-diagram", "--J", "2", "--beta", "1", "--gminus", "0", "--gplus", "0"],
         "closed forms exist only for J in {1, 3/2}, got J = 2"),
        (["map", "--n", "3", "--point", "0.5,0.6,-0.1"],
         "point '0.5,0.6,-0.1' is not a probability vector: p[3] = -0.1 lies outside [0, 1]"),
        (["locus", "--n", "3", "--t2", "0.5", "--samples", "-3"], "need at least 3 angle samples"),
        (["locus", "--n", "3", "--t2", "0.5", "--samples", "1"], "need at least 3 angle samples"),
        (["locus", "--n", "4", "--t3", "0.1", "--phi-samples", "-1"],
         "need at least 2 theta samples and 3 phi samples"),
        (["locus", "--n", "4", "--t4", "0.01"], "t4 must lie in [1/64, 1], got 0.01"),
        (PHASE + ["--gminus", "0:1"], "cannot parse range '0:1': expected 'lo:hi:count'"),
        (PHASE + ["--gminus", "0:1:0"], "cannot parse range '0:1:0': count must be >= 1"),
        (PHASE + ["--gminus", "x"], "cannot parse range 'x': not a number or lo:hi:count"),
        (LINEAR + ["--beta-grid", "lin:0:1:2.5"],
         "cannot parse grid spec 'lin:0:1:2.5': invalid literal for int() with base 10: '2.5'"),
        (LINEAR + ["--beta-grid", "1,,2"], "cannot parse beta value ''"),
        (LINEAR + ["--beta-grid", "lin:1:nan:3"], "beta values must be finite and >= 0"),
        (["map", "--n", "3", "--point", "0.5,x,0.5"], "cannot parse point '0.5,x,0.5'"),
    ], ids=["t3-range", "locus-n", "t4-qutrit", "nan-coupling", "spin", "frame-n", "map-n",
            "closed-form-J", "map-point", "t2-negative-samples", "t2-one-sample",
            "ququart-phi-samples", "t4-range", "range-two-parts", "range-zero-count",
            "range-not-a-number", "beta-grid-fractional-count", "beta-grid-empty-item",
            "beta-grid-nan", "map-point-not-a-number"])
    def test_configuration_errors_print_one_line_and_exit_two(self, tmp_path, capsys,
                                                               argv, message):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, spec", [
        (PHASE + ["--gminus", "0:inf:3"], "range '0:inf:3'"),
        (PHASE + ["--gminus=-inf:0:3"], "range '-inf:0:3'"),
        (LINEAR + ["--beta-grid", "lin:0:inf:3"], "grid spec 'lin:0:inf:3'"),
        (LINEAR + ["--beta-grid", "0,log:1:1e400:3"], "grid spec 'log:1:1e400:3'"),
    ], ids=["range-inf", "range-minus-inf", "beta-grid-lin-inf", "beta-grid-log-overflow"])
    def test_infinite_range_endpoints_exit_two_without_a_warning(self, tmp_path, capsys,
                                                                 argv, spec):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot parse {spec}: lo and hi must be finite\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, spec", [
        (PHASE + ["--gminus=-1e308:1e308:3"], "range '-1e308:1e308:3'"),
        (PHASE + ["--gminus=-1e308:1e308:1"], "range '-1e308:1e308:1'"),
        (LINEAR + ["--beta-grid", "lin:-1e308:1e308:3"], "grid spec 'lin:-1e308:1e308:3'"),
    ], ids=["range-span", "range-span-one-value", "beta-grid-lin-span"])
    def test_range_whose_span_overflows_exits_two_without_a_warning(self, tmp_path, capsys,
                                                                    argv, spec):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot parse {spec}: hi - lo must be finite\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    def test_point_whose_sum_overflows_exits_two_without_a_warning(self, tmp_path, capsys):
        argv = ["map", "--n", "3", "--point", "1e308,1e308,-1e308"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: point '1e308,1e308,-1e308' is not a probability vector: "
            "p[1] = 1e+308 lies outside [0, 1]\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spin", ["2", "5/2", "4"])
    def test_overflowing_lmg_levels_exit_two_without_a_warning(self, tmp_path, capsys, spin):
        argv = ["thermal", "--model", "lmg", "--J", spin, "--omega", "1e308", "--gx", "1"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: energies must be finite\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spin", ["2", "4"])
    def test_overflowing_linear_levels_exit_two_without_a_warning(self, tmp_path, capsys, spin):
        argv = ["thermal", "--model", "linear", "--J", spin, "--omega", "1e308"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: energies must be finite\n"
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _refuse_spectra(monkeypatch):
        """Make every spectrum builder the CLI calls raise ``SpectrumReached``."""
        import quditgeom.cli as cli_mod

        def refuse(*args, **kwargs):
            raise SpectrumReached
        monkeypatch.setattr(cli_mod, "linear_spectrum", refuse)
        monkeypatch.setattr(cli_mod, "lmg_spectrum", refuse)

    # 1,025, 1,026, 200,001 and about 2e300 levels: refused by the count alone
    @pytest.mark.parametrize("spin", ["512", "1025/2", "100000", "1e300"])
    @pytest.mark.parametrize("model", ["linear", "lmg"])
    @pytest.mark.parametrize("command", ["thermal", "flower"])
    def test_spin_past_the_level_bound_exits_two_before_any_spectrum(
            self, tmp_path, capsys, monkeypatch, command, model, spin):
        self._refuse_spectra(monkeypatch)
        argv = [command, "--model", model, "--J", spin, "--out", str(tmp_path / "x.csv")]
        shown = {"512": "512", "1025/2": "512.5", "100000": "100000", "1e300": "1e+300"}[spin]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: J = {shown} is too large: 2J + 1 may be at most 1024 (J <= 511.5)\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("model", ["linear", "lmg"])
    @pytest.mark.parametrize("command", ["thermal", "flower"])
    def test_spin_of_1024_levels_reaches_the_spectrum(self, tmp_path, monkeypatch,
                                                      command, model):
        self._refuse_spectra(monkeypatch)
        with pytest.raises(SpectrumReached):
            main([command, "--model", model, "--J", "1023/2", "--out", str(tmp_path / "x.csv")])
        assert os.listdir(tmp_path) == []

    def test_phase_diagram_refuses_linear_model_while_parsing(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "phase-diagram", "--model", "linear", "--J", "1", "--beta", "1",
                "--gminus", "0", "--gplus", "0", "--out", str(tmp_path / "x.csv"),
            ])
        assert excinfo.value.code == EXIT_CONFIG

    def test_all_nodes_failing_exits_four(self, tmp_path, monkeypatch):
        import quditgeom.cli as cli_mod
        from quditgeom.curves import ParamCurve

        def all_nan_locus(value, alpha_samples=512):
            m = alpha_samples
            return ParamCurve(
                space="p",
                points=np.full((m, 3), np.nan),
                parameter=np.linspace(0, 2 * math.pi, m, endpoint=False),
                physical=np.zeros(m, dtype=bool),
                radius=np.full(m, np.nan),
            )

        monkeypatch.setattr(cli_mod, "constant_t3_locus_qutrit", all_nan_locus)
        from quditgeom.cli import EXIT_NUMERICAL

        code = main([
            "locus", "--n", "3", "--t3", "0.25", "--samples", "8",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_NUMERICAL

    def test_failed_validate_read_exits_three(self, tmp_path, monkeypatch, capsys):
        def unreadable(path):
            raise OSError(5, "Input/output error")

        log = _watch_data_file(monkeypatch, before_read=unreadable)
        out = tmp_path / "grid.csv"
        code = main(["map", "--n", "3", "--grid", "4", "--validate", "--out", str(out)])
        assert code == EXIT_IO
        assert len(log) == 1 and len(log[0]["reads"]) == 1
        assert capsys.readouterr().err == "io-error: [Errno 5] Input/output error\n"
        assert os.listdir(tmp_path) == []

    def test_out_path_holding_a_nul_exits_two(self, tmp_path, capsys):
        code = main(["frame", "--n", "3", "--out", str(tmp_path / "x\0.csv")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: embedded null byte\n"
        assert os.listdir(tmp_path) == []


class TestWriters:
    FLOATS = [-0.0, math.nan, 5e-324, 1e-5, 1e16, 0.1, -2.5, 1 / 3, math.nan, 1e-5]
    LABELS = ["a", 'q"uote', "c,omma", "", "II", "line\nbreak", "a", "boundary", "b", "a"]

    def _dataset(self):
        from quditgeom.cli import Dataset

        return Dataset(columns={
            "x": np.array(self.FLOATS),
            "count": np.arange(len(self.FLOATS)) - 3,
            "label": np.array(self.LABELS),
            "physical": np.array([1, 0] * 5),
        })

    @pytest.mark.parametrize("chunk_cells", [1, 12, 4096])
    def test_csv_matches_csv_writer(self, monkeypatch, chunk_cells):
        import io

        import quditgeom.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_CHUNK_CELLS", chunk_cells)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["x", "count", "label", "physical"])
        for k, (x, label) in enumerate(zip(self.FLOATS, self.LABELS)):
            writer.writerow([repr(x + 0.0), repr(k - 3), label, repr(1 - k % 2)])
        got = "".join(cli_mod._csv_chunks(self._dataset()))
        assert got == expected.getvalue()

    @pytest.mark.parametrize("chunk_cells", [1, 12, 4096])
    def test_json_matches_json_dumps(self, monkeypatch, chunk_cells):
        import quditgeom.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_CHUNK_CELLS", chunk_cells)
        payload = {
            "columns": ["x", "count", "label", "physical"],
            "rows": [
                {"x": None if math.isnan(x) else x + 0.0, "count": k - 3, "label": label,
                 "physical": 1 - k % 2}
                for k, (x, label) in enumerate(zip(self.FLOATS, self.LABELS))
            ],
        }
        got = "".join(cli_mod._json_chunks(self._dataset()))
        assert got == json.dumps(payload, indent=1) + "\n"

    def test_column_that_repeats_off_a_strided_sample_formats_each_value_once(
            self, monkeypatch):
        import io

        import quditgeom.cli as cli_mod
        from quditgeom.cli import _CHUNK_CELLS, Dataset

        # three chunks of rows; every third row (a strided sample) holds a
        # new value and the two rows after it repeat that value, so the
        # sample is all distinct and the column one third distinct
        special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]
        sampled = np.concatenate([special, np.arange(_CHUNK_CELLS - len(special)) / 7.0 - 9.5])
        x = np.repeat(sampled, 3)
        x[2] = 0.0
        values = x.tolist()
        formatted = []
        cells = cli_mod._cells
        monkeypatch.setattr(cli_mod, "_cells", lambda column, *, for_json: (
            formatted.append(column.copy()) or cells(column, for_json=for_json)))

        got = "".join(cli_mod._csv_chunks(Dataset(columns={"x": x})))
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([["x"]] + [[repr(v + 0.0)]
                                                                       for v in values])
        assert got == expected.getvalue()
        got = "".join(cli_mod._json_chunks(Dataset(columns={"x": x})))
        payload = {"columns": ["x"],
                   "rows": [{"x": None if math.isnan(v) else v + 0.0} for v in values]}
        assert got == json.dumps(payload, indent=1) + "\n"

        # per writer: each number once, and each NaN row (each counts as distinct)
        formatted = np.concatenate(formatted)
        numbers = formatted[~np.isnan(formatted)]
        assert numbers.size == np.unique(numbers).size * 2 == (len(sampled) - 1) * 2
        assert np.isnan(formatted).sum() == 3 * 2


def _watch_data_file(monkeypatch, before_read=lambda path: None):
    """Watch the handle of each run's temporary data file.

    ``before_read(path)`` runs before each read of the handle: it may change
    the file on disk, which holds what the run wrote only if the run flushed
    it, or raise.  Returns one record per open of a data file: its mode, its
    number of writes and the size of each read.
    """
    import quditgeom.cli as cli_mod

    log = []

    class Watched:
        def __init__(self, handle, path, record):
            self.handle, self.path, self.record = handle, path, record

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def write(self, data):
            self.record["writes"] += 1
            return self.handle.write(data)

        def read(self, size):
            self.record["reads"].append(size)
            before_read(self.path)
            return self.handle.read(size)

    def watched_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        if not path.endswith(".tmp") or ".meta.json." in path:
            return handle
        log.append({"mode": mode, "writes": 0, "reads": []})
        return Watched(handle, path, log[-1])

    monkeypatch.setattr(cli_mod, "open", watched_open, raising=False)
    return log


def _dataset_of_rows(rows):
    """A dataset whose p1, p2, p3 and physical columns hold ``rows``."""
    from quditgeom.cli import Dataset

    p1, p2, p3, physical = (np.array(column) for column in zip(*rows))
    return Dataset(columns={"p1": p1, "p2": p2, "p3": p3, "physical": physical})


#: each format, run with ``--validate`` and without it: both check the same
_EACH_FORMAT_BOTH_WAYS = pytest.mark.parametrize("fmt, validate", [
    ("csv", ["--validate"]), ("json", ["--validate"]), ("csv", []), ("json", []),
], ids=["csv", "json", "csv-plain", "json-plain"])


class TestValidate:
    READ_BACK_PROBLEM = (r"validate: the data file does not hold the (\d+) bytes written "
                         r"at byte (\d+)\n")

    @staticmethod
    def _run(tmp_path, monkeypatch, argv, dataset, fmt, validate=("--validate",)):
        """The exit code of ``argv`` exported in ``fmt`` with the options
        ``validate``, with ``dataset`` in place of what its builder makes."""
        import quditgeom.cli as cli_mod

        monkeypatch.setitem(cli_mod._BUILDERS, argv[0], lambda args: dataset)
        return main([*argv, "--format", fmt, *validate, "--out", str(tmp_path / f"v.{fmt}")])

    @_EACH_FORMAT_BOTH_WAYS
    def test_reports_each_bad_physical_row(self, tmp_path, monkeypatch, capsys, fmt, validate):
        import quditgeom.cli as cli_mod

        dataset = _dataset_of_rows([
            (0.5, 0.25, 0.25, 1),          # fine, t2 = 0.375
            (0.5, 0.5, 0.5, 1),            # off the simplex, and t2 off target
            (0.25, 0.5, 0.25, 1),          # fine
            (math.nan, 0.5, 0.5, 1),       # non-finite
            (math.inf, math.nan, 2.0, 0),  # not physical: never checked
            (0.2, 0.3, 0.5, 1),            # t2 off target only
        ])
        problems = [
            "row 3: p violates the simplex constraints",
            "row 3: t2 deviates from 0.375",
            "row 5: physical row has non-finite p",
            "row 7: t2 deviates from 0.375",
        ]
        args = Namespace(command="locus", t2=0.375)
        for rows_per_block in (1, 4, 4096):  # row numbers count across blocks
            monkeypatch.setattr(cli_mod, "_CHUNK_CELLS", rows_per_block)
            assert cli_mod._validate_dataset(dataset, args) == problems
        assert self._run(tmp_path, monkeypatch, ["locus", "--n", "3", "--t2", "0.375"],
                         dataset, fmt, validate) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "".join(f"validate: {line}\n" for line in problems)
        assert sorted(os.listdir(tmp_path)) == [f"v.{fmt}", f"v.{fmt}.meta.json"]

    def test_failure_prints_twenty_problems_exits_four_and_keeps_files(self, tmp_path,
                                                                       monkeypatch, capsys):
        import quditgeom.cli as cli_mod

        # a negative recheck slack turns every physical row into a problem
        monkeypatch.setattr(cli_mod, "_INVARIANT_RECHECK", -1.0)
        out = tmp_path / "locus.csv"
        code = main(["locus", "--n", "3", "--t2", "0.5", "--samples", "30", "--validate",
                     "--out", str(out)])
        assert code == cli_mod.EXIT_NUMERICAL
        assert capsys.readouterr().err == "".join(
            f"validate: row {row}: t2 deviates from 0.5\n" for row in range(2, 22))
        assert sorted(os.listdir(tmp_path)) == ["locus.csv", "locus.csv.meta.json"]

    def test_validate_stacks_no_whole_table_array(self, tmp_path, monkeypatch):
        import quditgeom.cli as cli_mod

        validate, peaks = cli_mod._validate_dataset, []

        def traced(dataset, args):
            problems, peak = _traced_peak(validate, dataset, args)
            peaks.append(peak)
            return problems

        monkeypatch.setattr(cli_mod, "_validate_dataset", traced)
        assert main(["map", "--n", "5", "--grid", "29", "--validate",
                     "--out", str(tmp_path / "grid.csv")]) == EXIT_OK
        # 40,920 rows, whose p columns alone take 1.6 MB
        assert len(peaks) == 1 and peaks[0] < 40920 * 5 * 8 / 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_masked_locus_rows_validate_without_a_warning(self, tmp_path, fmt):
        out = tmp_path / f"locus.{fmt}"
        assert main(["locus", "--n", "4", "--t4", "0.3", "--theta-samples", "16",
                     "--phi-samples", "32", "--format", fmt, "--validate",
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((tmp_path / f"locus.{fmt}.meta.json").read_text())
        assert meta["counts"]["failed_nodes"] > 0  # masked rows hold NaN p

    @_EACH_FORMAT_BOTH_WAYS
    def test_flipped_byte_on_disk_is_one_problem_and_keeps_files(self, tmp_path, monkeypatch,
                                                                 capsys, fmt, validate):
        flipped = []

        def flip_byte_40_once(path):
            # before the read-back of the first chunk that reaches byte 40
            with open(path, "r+b") as handle:
                if flipped or handle.seek(0, os.SEEK_END) <= 40:
                    return
                handle.seek(40)
                byte = handle.read(1)[0]
                handle.seek(40)
                handle.write(bytes([byte ^ 1]))
            flipped.append(path)

        log = _watch_data_file(monkeypatch, before_read=flip_byte_40_once)
        out = tmp_path / f"grid.{fmt}"
        assert main(["map", "--n", "3", "--grid", "4", "--format", fmt, *validate,
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert len(flipped) == 1 and len(log) == 1
        err = capsys.readouterr().err
        match = re.fullmatch(self.READ_BACK_PROBLEM, err)
        size, start = map(int, match.groups())
        assert start <= 40 < start + size
        assert log[0]["reads"][-1] == size + 1  # nothing is read after that chunk
        assert sorted(os.listdir(tmp_path)) == [f"grid.{fmt}", f"grid.{fmt}.meta.json"]
        written = json.loads((tmp_path / f"grid.{fmt}.meta.json").read_text())["blake2b"]
        on_disk = bytearray(out.read_bytes())
        assert hashlib.blake2b(on_disk).hexdigest() != written
        on_disk[40] ^= 1
        assert hashlib.blake2b(on_disk).hexdigest() == written

    @_EACH_FORMAT_BOTH_WAYS
    def test_extra_byte_after_the_last_chunk_is_one_problem(self, tmp_path, monkeypatch,
                                                            capsys, fmt, validate):
        argv = ["map", "--n", "3", "--grid", "4", "--format", fmt, *validate]
        log = _watch_data_file(monkeypatch)
        assert main([*argv, "--out", str(tmp_path / f"clean.{fmt}")]) == EXIT_OK
        clean = (tmp_path / f"clean.{fmt}").read_bytes()
        chunks, reads = log[0]["writes"], []

        def append_before_the_last_read(path):
            reads.append(path)
            if len(reads) == chunks:
                with open(path, "ab") as handle:
                    handle.write(b"\n")

        log = _watch_data_file(monkeypatch, before_read=append_before_the_last_read)
        out = tmp_path / f"grid.{fmt}"
        assert main([*argv, "--out", str(out)]) == EXIT_NUMERICAL
        assert len(log[0]["reads"]) == chunks
        err = capsys.readouterr().err
        match = re.fullmatch(self.READ_BACK_PROBLEM, err)
        assert sum(map(int, match.groups())) == len(clean)  # the last chunk
        assert out.read_bytes() == clean + b"\n"
        written = json.loads((tmp_path / f"grid.{fmt}.meta.json").read_text())["blake2b"]
        assert written == hashlib.blake2b(clean).hexdigest()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_plain_and_validated_runs_read_back_every_chunk(self, tmp_path, monkeypatch, fmt):
        log = _watch_data_file(monkeypatch)
        argv = ["map", "--n", "3", "--grid", "4", "--format", fmt]
        assert main([*argv, "--out", str(tmp_path / f"grid.{fmt}")]) == EXIT_OK
        assert main([*argv, "--validate", "--out", str(tmp_path / f"v.{fmt}")]) == EXIT_OK
        assert len(log) == 2  # one handle each, nothing else opens the data file
        for record in log:
            assert record["mode"] == "x+b"
            assert len(record["reads"]) == record["writes"] > 1
        assert log[0]["reads"] == log[1]["reads"]
        assert (tmp_path / f"grid.{fmt}").read_bytes() == (tmp_path / f"v.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_validate_and_point_apply_one_simplex_rule(self, tmp_path, monkeypatch, capsys,
                                                       fmt):
        # within 1e-9 of summing to 1 and of 0, but p1 lies above 1 + 1e-9
        row = "1.0000000015,-7.5e-10,-7.5e-10"
        assert main(["map", "--n", "3", "--point", row, "--out", str(tmp_path / "p.csv")]) \
            == EXIT_CONFIG
        assert "is not a probability vector" in capsys.readouterr().err
        dataset = _dataset_of_rows([(*map(float, row.split(",")), 1)])
        assert self._run(tmp_path, monkeypatch, ["map", "--n", "3"], dataset, fmt) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "validate: row 2: p violates the simplex constraints\n"


class TestAtomicOutput:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, fmt):
        import quditgeom.cli as cli_mod

        writes = []

        class FailingFile:
            """Passes the header and the first chunk of rows, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

            def __getattr__(self, name):  # the read-back's flush, seek and read
                return getattr(self.handle, name)

            def write(self, text):
                if len(writes) == 2:
                    raise OSError(28, "No space left on device")
                writes.append(text)
                return self.handle.write(text)

        monkeypatch.setattr(cli_mod, "_CHUNK_CELLS", 64)  # 8 rows of 8 columns
        monkeypatch.setattr(cli_mod, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                            raising=False)
        out = tmp_path / f"grid.{fmt}"
        code = main(["map", "--n", "3", "--grid", "6", "--format", fmt, "--out", str(out)])
        assert code == EXIT_IO
        assert len(writes) == 2 and b"0.0" in writes[1]  # the first chunk went out
        assert not out.exists()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("failing", ["grid.csv.meta.json", "grid.csv"])
    def test_failed_move_leaves_nothing(self, tmp_path, monkeypatch, failing):
        import quditgeom.cli as cli_mod

        real_replace = os.replace

        def replace(source, target):
            if os.path.basename(target) == failing:
                raise OSError(13, "Permission denied")
            real_replace(source, target)

        monkeypatch.setattr(cli_mod.os, "replace", replace)
        out = tmp_path / "grid.csv"
        code = main(["map", "--n", "3", "--grid", "6", "--out", str(out)])
        assert code == EXIT_IO
        assert os.listdir(tmp_path) == []

    def test_success_leaves_only_the_outputs(self, tmp_path):
        out = tmp_path / "grid.csv"
        out.write_text("stale\n")
        assert main(["map", "--n", "3", "--grid", "6", "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(tmp_path)) == ["grid.csv", "grid.csv.meta.json"]
        assert out.read_text().startswith("p1,p2,p3,")


# alpha = 0 row of the purity-1/2 qutrit circle: radius 1/sqrt(6) along e1,
# p = (1/3 + 1/sqrt(12), 1/3 - 1/sqrt(12), 1/3), l7 = p1 - p2 = 1/sqrt(3),
# l8 = 0 up to rounding, t2 = 1/2, t3 = sum p^3 = 0.27777...
GOLDEN_T2_FIRST_ROW = (
    "0.0,0.408248290463863,0.6220084679281461,0.04465819873852045,"
    "0.3333333333333333,0.5773502691896257,-5.264861623741528e-17,"
    "0.4999999999999999,0.2777777777777776,1"
)


def test_golden_first_row_locus_t2(tmp_path):
    # frozen regression: hand-verified row, guards the float formatting too
    out = tmp_path / "golden.csv"
    assert main(["locus", "--n", "3", "--t2", "0.5", "--samples", "8", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert ",".join(rows[0]) == GOLDEN_T2_FIRST_ROW


def _fresh_interpreter_exit_code(code, *args):
    src = os.path.dirname(os.path.dirname(quditgeom.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=60).returncode


def test_import_does_not_load_scipy():
    code = "import sys, quditgeom, quditgeom.cli; sys.exit('scipy' in sys.modules)"
    assert _fresh_interpreter_exit_code(code) == 0


def test_thermal_and_flower_exports_do_not_load_numpy_ma(tmp_path):
    # numpy.ma costs about 1.5 MB of memory, and np.unique imports it
    code = """if True:
        import os, sys
        from quditgeom.cli import main
        runs = [(["thermal", "--format", "csv"], "thermal.csv"),
                (["flower", "--format", "json"], "flower.json")]
        codes = [main([*argv, "--model", "linear", "--J", "1", "--validate",
                       "--out", os.path.join(sys.argv[1], name)]) for argv, name in runs]
        sys.exit(codes != [0, 0] or "numpy.ma" in sys.modules)
    """
    assert _fresh_interpreter_exit_code(code, str(tmp_path)) == 0


def test_validated_exports_do_not_load_openssl(tmp_path):
    # hashlib loads OpenSSL, about 3.4 MB of resident memory
    code = """if True:
        import os, sys
        from quditgeom.cli import main
        code = main(["map", "--n", "3", "--grid", "4", "--format", "json", "--validate",
                     "--out", os.path.join(sys.argv[1], "grid.json")])
        sys.exit(code or not {"hashlib", "_hashlib"}.isdisjoint(sys.modules))
    """
    assert _fresh_interpreter_exit_code(code, str(tmp_path)) == 0
