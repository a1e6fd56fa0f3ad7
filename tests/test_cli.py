import csv
import json
import math
import os
import subprocess
import sys
from argparse import Namespace
from unittest import mock

import numpy as np
import pytest

import quditgeom
from quditgeom.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
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
            outs.append(tmp_path / f"{len(outs)}.{fmt}")
            assert main([command, "--model", "lmg", "--J", "1", "--gx", "0.5",
                         f"--beta-grid={grid}", "--format", fmt, "--validate",
                         "--out", str(outs[-1])]) == EXIT_OK
        assert len({out.read_bytes() for out in outs}) == 1


class TestSidecar:
    @pytest.mark.parametrize("argv, unread", [
        (["locus", "--n", "3", "--t3", "0.8", "--samples", "16"], {"theta_samples", "phi_samples"}),
        (["locus", "--n", "4", "--t2", "0.5", "--theta-samples", "4", "--phi-samples", "5"],
         {"samples"}),
        (["map", "--n", "3", "--point", "0.5,0.25,0.25"], {"grid"}),
        (["thermal", "--model", "linear", "--J", "1", "--beta-grid", "lin:0:1:3"], set()),
    ], ids=["locus-n3", "locus-n4", "map-point", "thermal"])
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
         "2J must be a positive integer, got '0.3'"),
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
        import quditgeom.cli as cli_mod

        def unreadable(path, fmt):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(cli_mod, "_read_columns", unreadable)
        out = tmp_path / "grid.csv"
        code = main(["map", "--n", "3", "--grid", "4", "--validate", "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "io-error: [Errno 5] Input/output error\n"
        assert sorted(os.listdir(tmp_path)) == ["grid.csv", "grid.csv.meta.json"]

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
        got = io.StringIO()
        cli_mod._write_csv(got, self._dataset())
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("chunk_cells", [1, 12, 4096])
    def test_json_matches_json_dumps(self, monkeypatch, chunk_cells):
        import io

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
        got = io.StringIO()
        cli_mod._write_json(got, self._dataset())
        assert got.getvalue() == json.dumps(payload, indent=1) + "\n"

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

        got = io.StringIO()
        cli_mod._write_csv(got, Dataset(columns={"x": x}))
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([["x"]] + [[repr(v + 0.0)]
                                                                       for v in values])
        assert got.getvalue() == expected.getvalue()
        got = io.StringIO()
        cli_mod._write_json(got, Dataset(columns={"x": x}))
        payload = {"columns": ["x"],
                   "rows": [{"x": None if math.isnan(v) else v + 0.0} for v in values]}
        assert got.getvalue() == json.dumps(payload, indent=1) + "\n"

        # per writer: each number once, and each NaN row (each counts as distinct)
        formatted = np.concatenate(formatted)
        numbers = formatted[~np.isnan(formatted)]
        assert numbers.size == np.unique(numbers).size * 2 == (len(sampled) - 1) * 2
        assert np.isnan(formatted).sum() == 3 * 2


class TestValidate:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_validate_runs_after_the_dataset_is_released(self, tmp_path, monkeypatch, fmt):
        import weakref

        import quditgeom.cli as cli_mod

        refs, checked = [], []
        build, validate = cli_mod._BUILDERS["map"], cli_mod._validate_output

        def build_and_keep_a_ref(args):
            dataset = build(args)
            refs.append(weakref.ref(dataset))
            return dataset

        def validate_once_released(*args):
            assert refs[-1]() is None, "the dataset is still held"
            checked.append(args)
            return validate(*args)

        monkeypatch.setitem(cli_mod._BUILDERS, "map", build_and_keep_a_ref)
        monkeypatch.setattr(cli_mod, "_validate_output", validate_once_released)
        assert main(["map", "--n", "4", "--grid", "12", "--validate", "--format", fmt,
                     "--out", str(tmp_path / f"grid.{fmt}")]) == EXIT_OK
        assert len(refs) == len(checked) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_each_bad_physical_row(self, tmp_path, fmt):
        from argparse import Namespace

        from quditgeom.cli import _validate_output

        rows = [
            (0.5, 0.25, 0.25, 1),      # fine, t2 = 0.375
            (0.5, 0.5, 0.5, 1),        # off the simplex, and t2 off target
            ("x", 0.5, 0.5, 1),        # unreadable
            (math.nan, 0.5, 0.5, 1),   # non-finite
            ("x", math.nan, 2.0, 0),   # not physical: never checked
            (0.2, 0.3, 0.5, 1.0),      # t2 off target only
        ]
        path = tmp_path / f"v.{fmt}"
        if fmt == "csv":
            path.write_text("p1,p2,p3,physical\n"
                            + "".join(",".join(map(str, row)) + "\n" for row in rows))
        else:
            path.write_text(json.dumps({"columns": ["p1", "p2", "p3", "physical"], "rows": [
                dict(zip(["p1", "p2", "p3", "physical"],
                         [None if isinstance(x, float) and math.isnan(x) else x for x in row]))
                for row in rows]}))
        problems = _validate_output(str(path), fmt, Namespace(command="locus", t2=0.375))
        nonfinite = "unreadable" if fmt == "json" else "non-finite"  # JSON null is no number
        assert problems == [
            "row 3: p violates the simplex constraints",
            "row 3: t2 deviates from 0.375",
            "row 4: physical row has unreadable p",
            f"row 5: physical row has {nonfinite} p",
            "row 7: t2 deviates from 0.375",
        ]

    def test_failure_prints_twenty_problems_exits_four_and_keeps_files(self, tmp_path,
                                                                       monkeypatch, capsys):
        import quditgeom.cli as cli_mod
        from quditgeom import Tolerances

        # a negative recheck slack turns every physical row into a problem
        monkeypatch.setattr(cli_mod, "DEFAULT", Tolerances(invariant_recheck=-1.0))
        out = tmp_path / "locus.csv"
        code = main(["locus", "--n", "3", "--t2", "0.5", "--samples", "30", "--validate",
                     "--out", str(out)])
        assert code == cli_mod.EXIT_NUMERICAL
        assert capsys.readouterr().err == "".join(
            f"validate: row {row}: t2 deviates from 0.5\n" for row in range(2, 22))
        assert sorted(os.listdir(tmp_path)) == ["locus.csv", "locus.csv.meta.json"]

    @pytest.mark.parametrize("fmt, grid, message", [
        ("csv", "4", "cannot parse the CSV file: row 3 has 1 of 8 fields"),
        ("csv", "60", "cannot parse the CSV file: field larger than field limit (131072)"),
        ("json", "4", "cannot parse the JSON file: Unterminated string starting at: "
                      "line 85 column 4 (char 1140)"),
    ], ids=["csv-short-row", "csv-field-limit", "json-truncated"])
    def test_file_that_does_not_parse_is_one_problem(self, tmp_path, monkeypatch, capsys,
                                                      fmt, grid, message):
        import quditgeom.cli as cli_mod

        write_outputs = cli_mod._write_outputs

        def write_then_break(path, args, dataset):
            # an unterminated quote opening the second data row, or half a JSON file
            write_outputs(path, args, dataset)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            if fmt == "json":
                text = text[: len(text) // 2]
            else:
                header, first, rest = text.split("\n", 2)
                text = f'{header}\n{first}\n"{rest}'
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

        monkeypatch.setattr(cli_mod, "_write_outputs", write_then_break)
        out = tmp_path / f"grid.{fmt}"
        code = main(["map", "--n", "3", "--grid", grid, "--format", fmt, "--validate",
                     "--out", str(out)])
        assert code == cli_mod.EXIT_NUMERICAL
        assert capsys.readouterr().err == f"validate: {message}\n"
        assert sorted(os.listdir(tmp_path)) == [f"grid.{fmt}", f"grid.{fmt}.meta.json"]

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_truncated_json_reads_alike_at_every_block_size(self, tmp_path, monkeypatch,
                                                            capsys, block):
        import quditgeom.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_JSON_BLOCK", block)
        self.test_file_that_does_not_parse_is_one_problem(
            tmp_path, monkeypatch, capsys, "json", "4",
            "cannot parse the JSON file: Unterminated string starting at: "
            "line 85 column 4 (char 1140)")

    @pytest.mark.parametrize("text", [
        "[]",
        '"x"',
        '{"columns": ["p1", "p2", "physical"]}',
        '{"columns": ["p1", "p2", "physical"], "rows": [[0.5, 0.5, 1]]}',
        '{"columns": 3, "rows": []}',
    ], ids=["list", "string", "no-rows", "row-is-list", "columns-not-list"])
    def test_json_of_another_shape_is_one_problem(self, tmp_path, monkeypatch, capsys, text):
        import quditgeom.cli as cli_mod

        write_outputs = cli_mod._write_outputs

        def write_then_replace(path, args, dataset):
            write_outputs(path, args, dataset)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

        monkeypatch.setattr(cli_mod, "_write_outputs", write_then_replace)
        out = tmp_path / "grid.json"
        code = main(["map", "--n", "2", "--grid", "2", "--format", "json", "--validate",
                     "--out", str(out)])
        assert code == cli_mod.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "validate: cannot parse the JSON file: not an object with a 'columns' list "
            "of names and a 'rows' list of objects\n")
        assert sorted(os.listdir(tmp_path)) == ["grid.json", "grid.json.meta.json"]

    def test_json_p_cell_that_is_a_list_is_unreadable(self, tmp_path, monkeypatch, capsys):
        import quditgeom.cli as cli_mod

        text = ('{"columns": ["p1", "p2", "physical"], '
                '"rows": [{"p1": [0.5], "p2": [0.5], "physical": 1}]}')
        path = tmp_path / "v.json"
        path.write_text(text)
        assert cli_mod._validate_output(str(path), "json", Namespace(command="map")) == [
            "row 2: physical row has unreadable p"]

        write_outputs = cli_mod._write_outputs

        def write_then_replace(path, args, dataset):
            write_outputs(path, args, dataset)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

        monkeypatch.setattr(cli_mod, "_write_outputs", write_then_replace)
        code = main(["map", "--n", "2", "--grid", "2", "--format", "json", "--validate",
                     "--out", str(tmp_path / "grid.json")])
        assert code == cli_mod.EXIT_NUMERICAL
        assert capsys.readouterr().err == "validate: row 2: physical row has unreadable p\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_validate_and_point_apply_one_simplex_rule(self, tmp_path, capsys, fmt):
        from quditgeom.cli import _validate_output

        # within 1e-9 of summing to 1 and of 0, but p1 lies above 1 + 1e-9
        row = "1.0000000015,-7.5e-10,-7.5e-10"
        assert main(["map", "--n", "3", "--point", row, "--out", str(tmp_path / "p.csv")]) \
            == EXIT_CONFIG
        assert "is not a probability vector" in capsys.readouterr().err
        path = tmp_path / f"v.{fmt}"
        p = [float(x) for x in row.split(",")]
        if fmt == "csv":
            path.write_text(f"p1,p2,p3,physical\n{row},1\n")
        else:
            path.write_text(json.dumps({"columns": ["p1", "p2", "p3", "physical"],
                                        "rows": [{"p1": p[0], "p2": p[1], "p3": p[2],
                                                  "physical": 1}]}))
        assert _validate_output(str(path), fmt, Namespace(command="map")) == [
            "row 2: p violates the simplex constraints"]


def _csv_file(path, header, rows, *, blank_after=None):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for number, row in enumerate(rows):
            writer.writerow(row)
            if number == blank_after:
                handle.write("\n")


class TestCsvReadBack:
    """The one-call ``np.loadtxt`` read of a CSV file and the ``csv.reader``
    fallback give the same columns and the same problems."""

    HEADER = ["label", "p1", "p2", "p3", "physical"]

    def _quoted(self, path):
        _csv_file(path, self.HEADER, [
            ("line\nbreak", 0.5, 0.25, 0.25, 1),
            ("c,omma", 0.5, 0.5, 0.5, 1),
            ('q"uote', 0.2, 0.3, 0.5, 1),
            ("ok", 0.25, 0.5, 0.25, 1),
            ("#hash", 0.2, 0.3, 0.5, 1),
        ], blank_after=2)

    def _unreadable(self, path):
        _csv_file(path, self.HEADER, [
            ("a", "x", 0.5, 0.5, 1),
            ("b", "nan", 0.5, 0.5, 1),
            ("c", "", 0.5, 0.5, 0),
            ("d", 0.5, 0.25, 0.25, 1),
        ])

    def _physical_float(self, path):
        _csv_file(path, self.HEADER, [
            ("a", 0.5, 0.25, 0.25, "1.0"),
            ("b", 0.5, 0.5, 0.5, "1.0"),
            ("c", 0.5, 0.5, 0.5, "1.00"),
            ("d", 0.5, 0.5, 0.5, "0.0"),
        ])

    def _map(self, path):
        assert main(["map", "--n", "4", "--grid", "12", "--out", str(path)]) == EXIT_OK

    def _flower(self, path):
        assert main(["flower", "--model", "lmg", "--J", "2", "--gx", "0.7", "--gy", "-1.3",
                     "--beta-grid", "0,log:1e-2:1e2:20", "--out", str(path)]) == EXIT_OK

    OFF_SIMPLEX = ["row 3: p violates the simplex constraints", "row 3: t2 deviates from 0.375"]

    @pytest.mark.parametrize("make, loadtxt_reads, problems", [
        ("_quoted", True, OFF_SIMPLEX + ["row 4: t2 deviates from 0.375",
                                         "row 6: t2 deviates from 0.375"]),
        ("_unreadable", False, ["row 2: physical row has unreadable p",
                                "row 3: physical row has non-finite p"]),
        ("_physical_float", True, OFF_SIMPLEX),
        ("_map", True, None),  # t2 misses 0.375 on most rows: long lists to compare
        ("_flower", True, None),
    ])
    def test_loadtxt_and_csv_reader_agree(self, tmp_path, monkeypatch, make, loadtxt_reads,
                                          problems):
        import quditgeom.cli as cli_mod

        path = tmp_path / "table.csv"
        getattr(self, make)(path)
        args = Namespace(command="locus", t2=0.375)
        loadtxt, reads = np.loadtxt, []

        def spy(*a, **k):
            table = loadtxt(*a, **k)
            reads.append(len(table))
            return table

        def refuse(*a, **k):
            raise ValueError("refused")

        def read_back():
            return (cli_mod._read_columns(str(path), "csv"),
                    cli_mod._validate_output(str(path), "csv", args))

        monkeypatch.setattr(np, "loadtxt", spy)
        (p, unreadable, physical), fast = read_back()
        assert bool(reads) == loadtxt_reads
        monkeypatch.setattr(np, "loadtxt", refuse)
        (p_slow, unreadable_slow, physical_slow), slow = read_back()
        assert p.dtype == p_slow.dtype and p.shape == p_slow.shape
        np.testing.assert_array_equal(p, p_slow)
        assert np.array_equal(unreadable, unreadable_slow)
        assert np.array_equal(physical, physical_slow)
        assert fast == slow
        assert problems is None or fast == problems


def _read_bits(path, *, layout=True):
    """What ``_read_columns`` reads of a JSON file, bit for bit, or its error;
    with ``layout`` False, as the ``json.load`` path alone reads it."""
    import quditgeom.cli as cli_mod

    with mock.patch.object(cli_mod, "_read_json_layout",
                           cli_mod._read_json_layout if layout else lambda handle: None):
        try:
            read = cli_mod._read_columns(str(path), "json")
        except ValueError as exc:
            return str(exc)
    return read and [(column.dtype, column.shape, column.tobytes()) for column in read]


class TestJsonReadBack:
    """The JSON re-read keeps only the p and physical cells of each row, and
    reads what a plain ``json.load`` of the whole file holds."""

    @staticmethod
    def _plain(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        names = [name for name in payload["columns"] if name[0] == "p" and name[1:].isdigit()]
        cells = [[row.get(name) for name in names] for row in payload["rows"]]
        p = np.array([[np.nan if c is None or isinstance(c, str) else c for c in row]
                      for row in cells], dtype=float)
        unreadable = np.array([any(c is None or isinstance(c, str) for c in row)
                               for row in cells])
        physical = np.array([str(row.get("physical")) in ("1", "1.0")
                             for row in payload["rows"]])
        return p, unreadable, physical

    def _hand_made(self, path):
        path.write_text(json.dumps({
            "note": {"p1": 9, "rows": []},
            "columns": ["label", "p1", "p2", "physical"],
            "rows": [
                {"physical": 1, "p2": 0.75, "label": {"p1": 5}, "p1": 0.25},
                {"label": "x", "p1": 0.5, "physical": 1.0},   # p2 missing
                {"p1": "x", "p2": 0.5, "physical": 0, "extra": [1, 2]},
                {"p1": 0.5, "p2": 0.5, "physical": "1"},
                {"p1": 0.5, "p2": 0.5, "physical": [1]},
                {"p1": "0.5", "p2": 0.5, "physical": 1},   # a string is no number
                {"p1": 0.5, "p2": "1_0", "physical": 1},
                {"p1": True, "p2": False, "physical": 1},
            ],
        }))

    def _map(self, path):
        assert main(["map", "--n", "4", "--grid", "12", "--format", "json",
                     "--out", str(path)]) == EXIT_OK

    ROW = '{"p1": 0.5, "p2": 0.25, "physical": 1}, {"p1": 0.5, "p2": 0.5, "physical": 1}'

    def _rows_first(self, path):
        path.write_text(f'{{"rows": [{self.ROW}], "columns": ["p1", "p2", "physical"]}}')

    def _columns_again_after_rows(self, path):
        # json.load keeps the last of two equal keys
        path.write_text(f'{{"columns": ["p1", "physical"], "rows": [{self.ROW}], '
                        '"columns": ["p1", "p2", "physical"]}')

    @pytest.mark.parametrize("make", ["_hand_made", "_map", "_rows_first",
                                      "_columns_again_after_rows"])
    def test_reads_what_json_load_holds(self, tmp_path, make):
        import quditgeom.cli as cli_mod

        path = tmp_path / "table.json"
        getattr(self, make)(path)
        p, unreadable, physical = cli_mod._read_columns(str(path), "json")
        p_plain, unreadable_plain, physical_plain = self._plain(path)
        np.testing.assert_array_equal(p, p_plain)
        assert np.array_equal(unreadable, unreadable_plain)
        assert np.array_equal(physical, physical_plain)


    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("make", ["_hand_made", "_map"])
    def test_block_size_does_not_matter(self, tmp_path, monkeypatch, make, block):
        import quditgeom.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_JSON_BLOCK", block)
        self.test_reads_what_json_load_holds(tmp_path, make)

    def test_integer_too_large_for_a_float_is_unreadable(self, tmp_path, cell="9" * 400):
        from quditgeom.cli import _validate_output

        path = tmp_path / "table.json"
        path.write_text('{"columns": ["p1", "p2", "physical"], "rows": ['
                        '{"p1": 0.5, "p2": 0.5, "physical": 1}, '
                        f'{{"p1": {cell}, "p2": 0.5, "physical": 1}}]}}')
        assert _validate_output(str(path), "json", Namespace(command="map")) == [
            "row 3: physical row has unreadable p"]

    @pytest.mark.parametrize("cell", ['"0.5"', '"1_0"'])
    def test_string_cell_is_unreadable(self, tmp_path, cell):
        # float() reads both strings, as 0.5 and as 10.0
        self.test_integer_too_large_for_a_float_is_unreadable(tmp_path, cell)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_decode_errors_read_as_json_load_reports_them(self, tmp_path, monkeypatch, block):
        import quditgeom.cli as cli_mod

        if block is not None:
            monkeypatch.setattr(cli_mod, "_JSON_BLOCK", block)
        # a file of another layout, where a number that ends a member value
        # may be cut by a block's end, and so may a literal or an escape
        text = json.dumps({
            "scale": -1.5e-3, "flags": [True, None, -math.inf, "\U0001f600"],
            "columns": ["label", "p1", "physical"],
            "rows": [{"label": "é€", "p1": 1e-7, "physical": 1}, {"p1": -0.5, "physical": 0}],
        }, indent=1, ensure_ascii=False)
        text = text.replace("\U0001f600", "\\ud83d\\ude00").replace("\n", "\r\n", 4)
        # and files in the writer's own layout, with and without string cells
        path = tmp_path / "table.json"
        raws = [text.encode("utf-8")]
        for argv in (["map", "--n", "2", "--grid", "1"],
                     ["flower", "--model", "linear", "--J", "1/2", "--beta-grid", "0"]):
            assert main([*argv, "--format", "json", "--out", str(path)]) == EXIT_OK
            raws.append(path.read_bytes())
        variants = []
        for raw in raws:
            variants += [raw[:cut] for cut in range(len(raw) + 1)]
            variants += [raw[:at] + char + raw[at + 1:]
                         for at in range(len(raw))
                         for char in (b"x", b",", b"]", b"}", b"\\", b"\xff",
                                      b"0", b"1", b" ", b"\r")]
            # a BOM, data after the end, a cut character, the last row again
            variants += [b"\xef\xbb\xbf" + raw, raw + b" x", raw[:-1] + b"\xe2\x82",
                         raw + raw[raw.rindex(b"  {"):]]
        shape = "not an object with a 'columns' list of names and a 'rows' list of objects"
        failed = 0
        for data in variants:
            path.write_bytes(data)
            try:
                with open(path, encoding="utf-8") as handle:
                    json.load(handle)
            except ValueError as exc:
                expected = str(exc)
                failed += 1
            else:
                expected = None
            read = _read_bits(path)
            assert read == _read_bits(path, layout=False), data
            if isinstance(read, str):
                assert read in (expected, shape), data
            else:
                assert expected is None, data
        assert failed > len(variants) / 2

    def test_peak_memory_stays_below_half_the_file(self, tmp_path):
        import tracemalloc

        import quditgeom.cli as cli_mod

        path = tmp_path / "map.json"
        assert main(["map", "--n", "4", "--grid", "20", "--format", "json",
                     "--out", str(path)]) == EXIT_OK
        tracemalloc.start()
        try:
            p, _, _ = cli_mod._read_columns(str(path), "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.shape == (1771, 4)
        assert peak < os.path.getsize(path) / 2

    def test_files_the_cli_writes_take_the_layout_path(self, tmp_path, monkeypatch):
        import pathlib

        import quditgeom.cli as cli_mod

        masked = tmp_path / "masked.json"
        assert main(["locus", "--n", "4", "--t4", "0.3", "--theta-samples", "16",
                     "--phi-samples", "32", "--format", "json", "--out", str(masked)]) == EXIT_OK
        assert '"p1": null' in masked.read_text()
        golden = pathlib.Path(__file__).parent / "data" / "golden"
        paths = [path for path in sorted(golden.glob("*.json"))
                 if not path.name.endswith(".meta.json")]
        assert len(paths) == 21
        loads, load = [], json.load
        monkeypatch.setattr(json, "load", lambda *a, **k: loads.append(a) or load(*a, **k))
        reads = [_read_bits(path) for path in [*paths, masked]]
        assert loads == []
        assert reads == [_read_bits(path, layout=False) for path in [*paths, masked]]
        assert len(loads) == len(reads)


class TestJsonReadBackScanned(TestJsonReadBack):
    """The same read-back tests with the layout path off, so that
    ``json.load`` reads every file."""

    # json.load holds the whole file, and is what the layout path spares
    test_peak_memory_stays_below_half_the_file = None
    test_files_the_cli_writes_take_the_layout_path = None

    @pytest.fixture(autouse=True)
    def _json_load_only(self, monkeypatch):
        import quditgeom.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_read_json_layout", lambda handle: None)


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
        assert len(writes) == 2 and "0.0" in writes[1]  # the first chunk went out
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
