"""Tests of the benchmark's own parts: generator, checker and tracer."""

import collections
import sys

import numpy as np
import pytest

import checker
import tracer as tracing
import workloads
from quditgeom import cli


def export(tmp_path, argv, name="out"):
    path = tmp_path / name
    assert cli.main([*argv, "--out", str(path)]) == 0
    return str(path)


class TestSelfTimes:
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        parent = np.array([-1, 0, 1, 0], dtype=np.int32)
        np.testing.assert_allclose(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])

    def test_summary_per_layer_and_function(self):
        spans = {
            "names": np.array(["cli.main", "linalg.real_roots", "basis.simplex_frame"]),
            "name_layer": np.array([0, 2, 6], dtype=np.int32),
            "name_id": np.array([0, 1, 2, 1], dtype=np.int32),
            "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
            "start": np.array([0.0, 1.0, 2.0, 5.0]),
            "end": np.array([10.0, 4.0, 3.0, 9.0]),
            "rows": np.full(4, -1),
        }
        summary = tracing.layer_summary(spans)
        assert summary["cli.self_s"] == pytest.approx(3.0)
        assert summary["linalg.self_s"] == pytest.approx(6.0)
        assert summary["linalg.real_roots.calls"] == 2
        assert summary["basis.self_s"] == pytest.approx(1.0)
        assert summary["linalg.jacobi_eigvalsh.calls"] == 0


class TestGenerator:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_deterministic_per_seed(self, workload):
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_work_for_every_seed(self, workload):
        def shape(seed):
            ops = workloads.generate(workload, seed)
            kinds = collections.Counter(op.kind for op in ops)
            return kinds, sum(checker.expected_rows(op.params) for op in ops)

        assert shape(1) == shape(2)

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_half_csv_half_json_and_no_seed_option(self, workload):
        ops = workloads.generate(workload, 3)
        formats = collections.Counter(op.params["format"] for op in ops)
        assert formats["csv"] == formats["json"]
        assert all("--seed" not in op.argv and "--out" not in op.argv for op in ops)

    def test_warmup_covers_every_kind_once(self):
        ops = workloads.generate("state-table", 0)
        warm = workloads.warmup(ops)
        assert sorted(op.kind for op in warm) == sorted({op.kind for op in ops})


class TestChecker:
    CASES = [
        (("map", "--n", "4", "--grid", "6"), {"command": "map", "n": 4, "grid": 6}),
        (("locus", "--n", "4", "--t4", "0.05", "--theta-samples", "8", "--phi-samples", "16"),
         {"command": "locus", "n": 4, "which": "t4", "value": 0.05, "mesh": (8, 16)}),
        (("locus", "--n", "3", "--t3", "0.3", "--samples", "64"),
         {"command": "locus", "n": 3, "which": "t3", "value": 0.3, "samples": 64}),
        (("flower", "--model", "lmg", "--J", "3/2", "--gx", "0.5", "--beta-grid", "0,1,2"),
         {"command": "flower", "n": 4, "betas": 3}),
        (("phase-diagram", "--J", "1", "--beta", "2", "--gminus", "-3:3:5", "--gplus", "-3:3:4"),
         {"command": "phase-diagram", "n": 3, "grid": (5, 4)}),
        (("thermal", "--model", "lmg", "--J", "5/2", "--gy", "1.5", "--beta-grid", "0,log:0.1:10:9"),
         {"command": "thermal", "n": 6, "betas": 10}),
        (("boundary", "--samples", "16"), {"command": "boundary", "samples": 16}),
        (("frame", "--n", "5"), {"command": "frame", "n": 5}),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, params", CASES, ids=[c[1]["command"] for c in CASES])
    def test_accepts_correct_exports(self, tmp_path, argv, params, fmt):
        path = export(tmp_path, [*argv, "--format", fmt])
        result = checker.check_export({**params, "format": fmt}, path, 0)
        assert result.ok, result.problems
        assert result.rows == checker.expected_rows(params)
        if params["command"] == "locus":
            assert result.invariant_defect <= checker.INVARIANT_TOL

    def test_rejects_one_changed_p_digit(self, tmp_path):
        params = {"command": "map", "n": 3, "grid": 5, "format": "csv"}
        path = export(tmp_path, ["map", "--n", "3", "--grid", "5"])
        with open(path) as handle:
            lines = handle.read().split("\n")
        cells = lines[2].split(",")
        assert cells[1] == "0.2"  # p2 of the second data row
        cells[1] = "0.3"
        lines[2] = ",".join(cells)
        with open(path, "w") as handle:
            handle.write("\n".join(lines))
        problems = checker.check_export(params, path, 0).problems
        assert any("simplex" in p for p in problems)
        assert any("lambda" in p for p in problems)

    def test_rejects_truncated_json(self, tmp_path):
        params = {"command": "map", "n": 3, "grid": 5, "format": "json"}
        path = export(tmp_path, ["map", "--n", "3", "--grid", "5", "--format", "json"])
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        result = checker.check_export(params, path, 0)
        assert not result.ok
        assert "unreadable" in result.problems[0]

    def test_rejects_wrong_row_count_and_exit_code(self, tmp_path):
        path = export(tmp_path, ["map", "--n", "3", "--grid", "5"])
        params = {"command": "map", "n": 3, "grid": 6, "format": "csv"}
        assert any("rows, expected" in p for p in checker.check_export(params, path, 0).problems)
        assert not checker.check_export(params, path, 2).ok


class TestTracer:
    def _snapshot(self):
        return {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if mod is not None and (name == "quditgeom" or name.startswith("quditgeom."))}

    def test_restores_every_patched_name(self, tmp_path):
        from quditgeom import curves, linalg

        before = self._snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            patched = {(mod.__name__, attr) for mod, attr, _ in tracer._patched}
            assert ("quditgeom.curves", "real_roots") in patched
            assert ("quditgeom.cli", "p_to_lambda") in patched
            assert curves.real_roots is linalg.real_roots
            assert curves.real_roots.__wrapped__ is before["quditgeom.linalg"]["real_roots"]
            export(tmp_path, ["locus", "--n", "3", "--t3", "0.3", "--samples", "16"])
        finally:
            tracer.restore()
        after = self._snapshot()
        assert after.keys() == before.keys()
        for name, namespace in before.items():
            assert all(after[name][k] is v for k, v in namespace.items()), name

        spans = tracer.arrays()
        names = list(spans["names"])
        roots = spans["name_id"][spans["parent"] < 0]
        assert [names[i] for i in roots] == ["cli.main"]
        summary = tracing.layer_summary(spans)
        assert summary["linalg.real_roots.calls"] == 16
        assert tracer.curve_nodes[0] == 16
