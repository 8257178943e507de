"""Tests for dataset ingestion and the command-line interface."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bernfit import (
    NON_INCREASING,
    BasisSpec,
    DataError,
    FunctionalDataset,
    Grid,
    ScenarioSpec,
    fit_functional,
    generate_scenario,
    read_dataset,
    reconstruct_sparse,
    write_dataset,
)
from bernfit import cli
from bernfit.cli import run_cli


@pytest.fixture
def tmp_wide(tmp_path):
    path = tmp_path / "sofr.csv"
    path.write_text(
        "id,y,t=0.0,t=0.5,t=1.0\n"
        "a,1.5,0.1,0.2,0.3\n"
        "b,2.5,0.4,0.5,0.6\n"
    )
    return path


class TestReadWide:
    def test_basic(self, tmp_wide):
        data = read_dataset(tmp_wide, "wide_csv")
        assert data.ids == ["a", "b"]
        assert np.allclose(data.y_scalar, [1.5, 2.5])
        assert np.allclose(data.x_curves, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert data.is_dense("x")

    def test_empty_cells_become_sparse(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("id,y,t=0.0,t=0.5,t=1.0\na,1.0,0.1,,0.3\nb,2.0,,0.5,\n")
        data = read_dataset(path, "wide_csv")
        assert np.isnan(data.x_curves[0, 1])
        assert np.isnan(data.x_curves[1, 0]) and np.isnan(data.x_curves[1, 2])

    def test_functional_response_layout(self, tmp_path):
        path = tmp_path / "fosr.csv"
        path.write_text("id,x,t=0.0,t=1.0\na,0.3,1.0,2.0\nb,0.9,2.0,3.0\n")
        data = read_dataset(path, "wide_csv")
        assert data.y_curves is not None and data.x_curves is None
        assert np.allclose(data.x_scalar, [0.3, 0.9])

    def test_unsorted_time_columns_sorted(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("id,y,t=1.0,t=0.0\na,1.0,9.0,3.0\n")
        data = read_dataset(path, "wide_csv")
        assert np.allclose(data.grid.points, [0.0, 1.0])
        assert np.allclose(data.x_curves[0], [3.0, 9.0])

    def test_duplicate_time_columns_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,y,t=0.5,t=0.5\na,1.0,1.0,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            read_dataset(path, "wide_csv")

    def test_non_numeric_cell_locates_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,y,t=0.0,t=1.0\na,1.0,oops,2.0\n")
        with pytest.raises(DataError, match="oops"):
            read_dataset(path, "wide_csv")

    def test_repeated_subject_id_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,y,t=0.0,t=1.0\ns1,1.0,0.0,1.0\n\ns1,2.0,1.0,2.0\n")
        with pytest.raises(DataError, match=r"dup\.csv:4: duplicate subject id 's1'"):
            read_dataset(path, "wide_csv")


class TestReadLong:
    def test_long_round_trip(self, tmp_path):
        data = generate_scenario(ScenarioSpec("B", n=12, seed=3), 0)
        path = tmp_path / "b.csv"
        write_dataset(data, path, "long_csv")
        back = read_dataset(path, "long_csv")
        assert back.x_curves.tobytes() == data.x_curves.tobytes()
        assert back.y_curves.tobytes() == data.y_curves.tobytes()
        assert np.array_equal(back.grid.points, data.grid.points)

    def test_sparse_round_trip_preserves_pattern(self, tmp_path):
        data = generate_scenario(ScenarioSpec("B_sparse", n=15, seed=4), 0)
        path = tmp_path / "sparse.csv"
        write_dataset(data, path, "long_csv")
        back = read_dataset(path, "long_csv")
        # the pooled grid of the file is the union of observed times
        col_of = {t: k for k, t in enumerate(back.grid.points)}
        for i in range(data.n_subjects):
            for k in np.flatnonzero(np.isfinite(data.y_curves[i])):
                j = col_of[data.grid.points[k]]
                assert back.y_curves[i, j] == data.y_curves[i, k]
                assert back.x_curves[i, j] == data.x_curves[i, k]
        assert np.isfinite(back.y_curves).sum() == np.isfinite(data.y_curves).sum()

    def test_duplicate_times_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,t,x,y_t\na,0.5,1.0,2.0\na,0.5,1.5,2.5\n")
        with pytest.raises(DataError, match="duplicate"):
            read_dataset(path, "long_csv")

    def test_bad_cell_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,t,x\n\n\ns1,abc,1.0\n")
        with pytest.raises(DataError, match=r"'abc' at .*gaps\.csv:4$"):
            read_dataset(path, "long_csv")

    def test_wide_round_trip_bitwise(self, tmp_path):
        data = generate_scenario(ScenarioSpec("A", n=10, seed=5), 0)
        path = tmp_path / "a.csv"
        write_dataset(data, path, "wide_csv")
        back = read_dataset(path, "wide_csv")
        assert back.x_curves.tobytes() == data.x_curves.tobytes()
        assert back.y_scalar.tobytes() == data.y_scalar.tobytes()


class TestReadScalars:
    """The companion scalar file of the long layout."""

    @staticmethod
    def read(tmp_path, scalars):
        path, companion = tmp_path / "long.csv", tmp_path / "scalars.csv"
        path.write_text("id,t,x\ns1,0.0,1.0\ns1,1.0,2.0\ns2,0.0,1.5\ns2,1.0,2.5\n")
        companion.write_text(scalars)
        return read_dataset(path, "long_csv", scalars_path=companion)

    def test_bad_cell_after_blank_lines_names_its_line(self, tmp_path):
        with pytest.raises(DataError, match=r"'abc' at .*scalars\.csv:4$"):
            self.read(tmp_path, "id,y\n\n\ns1,abc\ns2,1.0\n")

    def test_header_names_are_stripped(self, tmp_path):
        data = self.read(tmp_path, "id, y\ns1,1.0\ns2,2.0\n")
        assert data.y_scalar.tolist() == [1.0, 2.0]

    def test_repeated_subject_id_rejected_at_its_line(self, tmp_path):
        with pytest.raises(DataError, match=r"scalars\.csv:4: duplicate subject id 's1'"):
            self.read(tmp_path, "id,y\ns1,1.0\ns2,2.0\ns1,3.0\n")

    @pytest.mark.parametrize("scalars", ["id,y,z_age\ns1,1.0,3.0\ns2,,4.0\n",
                                         "id,y,z_age\ns1,1.0,3.0\ns2,2.0,\n"], ids=["y", "z"])
    def test_empty_cell_refused_at_its_line(self, tmp_path, scalars):
        # an empty cell used to drop its whole column from the dataset
        with pytest.raises(DataError, match=r"^non-numeric value '' at .*scalars\.csv:3$"):
            self.read(tmp_path, scalars)

    def test_non_numeric_extra_column_ignored_in_both_layouts(self, tmp_path):
        data = self.read(tmp_path, "id,note,y,z_age\ns1,first,1.0,3.0\ns2,,2.0,4.0\n")
        wide = tmp_path / "wide.csv"
        wide.write_text("id,note,y,z_age,t=0.0,t=1.0\ns1,first,1.0,3.0,1.0,2.0\ns2,,2.0,4.0,1.5,2.5\n")
        for read in (data, read_dataset(wide, "wide_csv")):
            assert read.y_scalar.tolist() == [1.0, 2.0]
            assert read.z_scalars.tolist() == [[3.0], [4.0]] and read.z_names == ["age"]
            assert read.x_scalar is None

    def test_unknown_subject_ids_refused(self, tmp_path):
        # ids match exactly, so S1 is not s1; these rows used to be dropped without a word
        scalars = "id,y\ns1,1.0\ns2,2.0\ns3,3.0\nS1,4.0\n"
        with pytest.raises(DataError) as info:
            self.read(tmp_path, scalars)
        assert str(info.value) == (
            f"{tmp_path / 'scalars.csv'}: scalar rows for subjects not in the long file: "
            "['s3', 'S1']"
        )

    def test_unknown_subject_ids_exit_1_from_the_cli(self, tmp_path, capsys):
        with pytest.raises(DataError):
            self.read(tmp_path, "id,y\ns1,1.0\ns2,2.0\ns3,3.0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 1}))
        argv = ["fit-sofr", "--data", str(tmp_path / "long.csv"), "--format", "long_csv",
                "--scalars", str(tmp_path / "scalars.csv"), "--config", str(config),
                "--out", str(tmp_path / "out.json")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"data error: {tmp_path / 'scalars.csv'}: scalar rows for subjects not in the "
            "long file: ['s3']\n"
        )
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("cells", [("", ""), ("1.0", ""), ("1.0", "2.0")])
    def test_z_names_never_without_z_scalars(self, tmp_path, cells):
        text = "id,z_age\n" + "".join(f"s{i},{c}\n" for i, c in enumerate(cells, 1))
        if "" in cells:
            with pytest.raises(DataError, match="non-numeric value ''"):
                self.read(tmp_path, text)
        else:
            data = self.read(tmp_path, text)
            assert data.z_names == ["age"] and data.z_scalars.tolist() == [[1.0], [2.0]]


class TestNonFinite:
    """Only an empty curve cell marks an unobserved point; a number that is not
    finite is refused where it stands, in a file or in a dataset."""

    @pytest.mark.parametrize(
        "fmt, text, token, line",
        [
            ("wide_csv", "id,y,t=0.0,t=1.0\na,1,0,1\nb,inf,1,2\n", "inf", 3),
            ("wide_csv", "id,z_a,t=0.0,t=1.0\na,nan,0,1\nb,2,1,2\n", "nan", 2),
            ("wide_csv", "id,y,t=0.0,t=1.0\na,1,0,1\nb,2,-inf,2\n", "-inf", 3),
            ("wide_csv", "id,y,t=0.0,t=1.0\na,1,NaN,1\nb,2,1,2\n", "NaN", 2),
            ("long_csv", "id,t,x,y_t\na,0,1,1\na,1,1,inf\nb,0,1,1\n", "inf", 3),
            ("long_csv", "id,t,x\na,0,1\na,nan,1\n", "nan", 3),
        ],
    )
    def test_file_cell(self, tmp_path, fmt, text, token, line):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^non-finite value '{token}' at .*data.csv:{line}"):
            read_dataset(path, fmt)

    def test_header_time(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,y,t=0.0,t=inf\na,1,0,1\n")
        with pytest.raises(DataError, match="^non-finite value 'inf' at .*data.csv header column 4"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "name, value, what",
        [
            ("y_scalar", [1.0, np.inf], "a non-finite value"),
            ("x_scalar", [np.nan, 1.0], "a non-finite value"),
            ("z_scalars", [[1.0, 2.0], [3.0, -np.inf]], "a non-finite value"),
            ("x_curves", [[0.0, 1.0], [np.nan, -np.inf]], "an infinite value"),
            ("y_curves", [[0.0, np.inf], [1.0, 1.0]], "an infinite value"),
        ],
    )
    def test_dataset_field(self, name, value, what):
        first = "b" if np.isfinite(np.asarray(value)[0]).all() else "a"
        with pytest.raises(DataError, match=f"^subject {first}: {name} holds {what}$"):
            FunctionalDataset(grid=Grid([0.0, 1.0]), ids=["a", "b"], **{name: value})

    def test_nan_in_a_curve_is_unobserved(self):
        curves = [[0.0, np.nan], [np.nan, 1.0]]
        data = FunctionalDataset(grid=Grid([0.0, 1.0]), ids=["a", "b"], x_curves=curves,
                                 y_curves=curves)
        assert data.observed_mask("x").tolist() == [[True, False], [False, True]]


def _write_sofr_data(tmp_path, n=40, seed=0, feasible=True):
    data = generate_scenario(ScenarioSpec("A", n=n, seed=seed), 0)
    path = tmp_path / "a.csv"
    write_dataset(data, path, "wide_csv")
    return path


class TestCli:
    def test_fit_sofr_end_to_end(self, tmp_path):
        data_path = _write_sofr_data(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 4, "shape": {"kind": "non_negative"}}))
        out = tmp_path / "fit.json"
        code = run_cli(
            ["fit-sofr", "--data", str(data_path), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["shape_report"]["feasible"]
        assert len(payload["beta_values"]) == 200
        assert all(np.isfinite(payload["beta_values"]))
        assert out.with_suffix(".csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        data_path = _write_sofr_data(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"model": "sofr", "order": 3, "shape": {"kind": "non_negative"}, "draws": 120})
        )
        outs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = run_cli(
                ["ci", "--data", str(data_path), "--config", str(config), "--seed", "42", "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_flag_reproducible(self, tmp_path):
        payloads = []
        for threads, name in ((1, "t1.json"), (3, "t3.json")):
            out = tmp_path / name
            code = run_cli(
                [
                    "bench", "--scenario", "A", "--n", "50", "--reps", "6",
                    "--seed", "7", "--threads", str(threads), "--out", str(out),
                ]
            )
            assert code == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    def test_bench_csv_columns(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run_cli(
            ["bench", "--scenario", "A", "--n", "50", "--reps", "3", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        # summary CSV follows the comparison-table layout
        lines = out.with_suffix(".csv").read_text().strip().splitlines()
        assert lines[0] == (
            "scenario,n,constrained_mean,constrained_sd,unconstrained_mean,"
            "unconstrained_sd,p_value_two_sample,p_value_paired"
        )
        assert len(lines) == 2
        # per-replication detail lands alongside
        rep_lines = out.with_suffix(".reps.csv").read_text().strip().splitlines()
        assert rep_lines[0] == "replication,imse_constrained,imse_unconstrained"
        assert len(rep_lines) == 4
        summary = json.loads(out.read_text())
        assert {"imse_constrained_mean", "imse_unconstrained_mean", "p_value_paired"} <= set(summary)

    def test_test_shape_zero_noise_feasible_gives_p_one(self, tmp_path):
        rng = np.random.default_rng(0)
        m = 30
        pts = np.linspace(0, 1, m)
        from bernfit import BasisSpec, FunctionalDataset, Grid
        from bernfit.basis import sofr_design

        x = rng.normal(size=(25, 4)) @ np.vstack([pts**k for k in range(4)])
        w = sofr_design(x, Grid(pts), BasisSpec(3))
        y = 0.2 + w @ np.array([0.1, 0.5, 0.9, 1.5])
        data = FunctionalDataset(grid=Grid(pts), ids=[f"s{i}" for i in range(25)], x_curves=x, y_scalar=y)
        data_path = tmp_path / "clean.csv"
        write_dataset(data, data_path, "wide_csv")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"model": "sofr", "order": 3, "shape": {"kind": "non_decreasing"}, "bootstrap": 100}
            )
        )
        out = tmp_path / "test.json"
        code = run_cli(
            ["test-shape", "--data", str(data_path), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["p_value"] == 1.0

    def test_simulate_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(["simulate", "--scenario", "B", "--n", "12", "--seed", "3", "--out", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
        back = read_dataset(out, meta["format"])
        assert back.n_subjects == 12
        regenerated = generate_scenario(ScenarioSpec("B", n=12, seed=3), 0)
        assert back.y_curves.tobytes() == regenerated.y_curves.tobytes()

    def test_cv_order_cli(self, tmp_path):
        data_path = _write_sofr_data(tmp_path, n=60)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "model": "sofr",
                    "shape": {"kind": "non_negative"},
                    "candidates": [2, 3, 4],
                    "folds": 5,
                }
            )
        )
        out = tmp_path / "cv.json"
        code = run_cli(["cv-order", "--data", str(data_path), "--config", str(config), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chosen"] in (2, 3, 4)

    @pytest.mark.filterwarnings("ignore:predictors outside the training range")
    def test_cv_order_qfosr_cli(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        pts = np.linspace(0, 1, 20)
        n = 40
        z = rng.uniform(0, 1, size=(n, 1))
        q = pts[None, :] * (1.0 - 0.2 * z) + 0.01 * rng.uniform(0, 1, (n, 20)).cumsum(axis=1) / 20
        from bernfit import FunctionalDataset, Grid

        data = FunctionalDataset(
            grid=Grid(pts), ids=[f"s{i}" for i in range(n)], y_curves=q, z_scalars=z, z_names=["age"]
        )
        data_path = tmp_path / "q.csv"
        write_dataset(data, data_path, "wide_csv")
        config = tmp_path / "config.json"
        out = tmp_path / "cv.json"
        argv = ["cv-order", "--data", str(data_path), "--config", str(config), "--out", str(out)]
        settings = {"model": "qfosr", "candidates": [2, 3], "folds": 4}
        config.write_text(json.dumps({**settings, "extra_shapes": {"1": {"kind": "non_increasing"}}}))
        assert run_cli(argv) == 0
        assert json.loads(out.read_text())["chosen"] in (2, 3)
        # extra shapes given as a list instead of a block mapping
        config.write_text(json.dumps({**settings, "extra_shapes": [{"kind": "non_increasing"}]}))
        assert run_cli(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_each_distinct_warning_printed_once(self, tmp_path, capsys):
        # every qfosr cross-validation fold that predicts outside its training
        # range warns; the run prints that warning once, under the caller's
        # "always" filter too, and leaves the caller's filters in place
        rng = np.random.default_rng(3)
        pts = np.linspace(0, 1, 15)
        z = rng.uniform(0, 1, size=(40, 3))
        q = pts * (1.0 - 0.5 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
        q = q + 0.5 * np.abs(rng.standard_normal((40, 15))).cumsum(axis=1) / 15
        data = FunctionalDataset(
            grid=Grid(pts), ids=[f"q{i}" for i in range(40)], y_curves=q, z_scalars=z
        )
        data_path = tmp_path / "q.csv"
        write_dataset(data, data_path, "wide_csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "qfosr", "candidates": [2, 3, 4]}))
        argv = ["cv-order", "--data", str(data_path), "--config", str(config),
                "--out", str(tmp_path / "cv.json")]

        def to_stderr(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = to_stderr
            filters = list(warnings.filters)
            assert run_cli(argv) == 0
            assert warnings.filters == filters
            assert warnings.showwarning is to_stderr
        lines = capsys.readouterr().err.splitlines()
        assert sum("predictors outside the training range" in line for line in lines) == 1

    def test_bench_with_no_successful_replication(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run_cli(
            ["bench", "--scenario", "B_sparse", "--n", "40", "--reps", "1", "--seed", "16",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["failures"] == 1 and payload["replications"] == 0

    def test_bench_with_identical_arms(self, tmp_path):
        # the shape never binds: the paired p-value is 1.0, not a non-finite value
        out = tmp_path / "bench.json"
        code = run_cli(
            ["bench", "--scenario", "A", "--n", "100", "--reps", "2", "--seed", "10",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["p_value_paired"] == 1.0
        assert payload["imse_constrained_mean"] == payload["imse_unconstrained_mean"]

    def test_missing_file_is_clean_data_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 3}))
        code = run_cli(
            ["fit-sofr", "--data", str(tmp_path / "nope.csv"), "--config", str(config),
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_exit_code_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,y,t=0.0,t=1.0\na,1.0,oops,2.0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 3}))
        code = run_cli(["fit-sofr", "--data", str(bad), "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_exit_code_config_error(self, tmp_path):
        data_path = _write_sofr_data(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 1, "shape": {"kind": "convex"}}))
        code = run_cli(["fit-sofr", "--data", str(data_path), "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bernfit.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "bench" in proc.stdout

    def test_fit_flcm_long_format(self, tmp_path):
        data = generate_scenario(ScenarioSpec("B", n=30, seed=2), 0)
        data_path = tmp_path / "b.csv"
        write_dataset(data, data_path, "long_csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 5, "shape": {"kind": "non_increasing"}}))
        out = tmp_path / "flcm.json"
        code = run_cli(
            [
                "fit-flcm", "--data", str(data_path), "--format", "long_csv",
                "--config", str(config), "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["shape_report"]["feasible"]
        assert len(payload["beta1_values"]) == 200
        assert payload["rss_whitened"] is not None

    def test_fit_sparse_flcm(self, tmp_path):
        data = generate_scenario(ScenarioSpec("B_sparse", n=60, seed=6), 0)
        data_path = tmp_path / "sparse.csv"
        write_dataset(data, data_path, "long_csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 5, "shape": {"kind": "non_increasing"}}))
        out = tmp_path / "sparse_fit.json"
        code = run_cli(
            [
                "fit-flcm", "--data", str(data_path), "--format", "long_csv",
                "--config", str(config), "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["shape_report"]["feasible"]

    def test_fit_fosr_wide_layout(self, tmp_path):
        rng = np.random.default_rng(5)
        m, n = 20, 40
        pts = np.linspace(0, 1, m)
        from bernfit import BasisSpec, FunctionalDataset, Grid
        from bernfit.basis import eval_basis_matrix

        basis = eval_basis_matrix(pts, BasisSpec(3))
        x = rng.normal(size=n)
        y = basis @ np.array([1.0, 1.2, 1.4, 1.9]) + x[:, None] * (
            basis @ np.array([2.0, 1.4, 0.8, 0.1])
        ) + 0.05 * rng.standard_normal((n, m))
        data = FunctionalDataset(grid=Grid(pts), ids=[f"s{i}" for i in range(n)], x_scalar=x, y_curves=y)
        data_path = tmp_path / "fosr.csv"
        write_dataset(data, data_path, "wide_csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 3, "shape": {"kind": "non_increasing"}}))
        out = tmp_path / "fosr.json"
        code = run_cli(
            ["fit-fosr", "--data", str(data_path), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["shape_report"]["feasible"]
        assert np.all(np.diff(payload["beta1_coefs"]) <= 1e-8)

    def test_fit_fofr_cli(self, tmp_path):
        rng = np.random.default_rng(3)
        m, n = 15, 30
        pts = np.linspace(0, 1, m)
        from bernfit import BasisSpec, FunctionalDataset, Grid
        from bernfit.basis import eval_basis_matrix, fofr_design

        tensor = BasisSpec(2)
        surface = np.cumsum(np.cumsum(np.ones((3, 3)), axis=0), axis=1).ravel()
        x = rng.normal(size=(n, 3)) @ np.vstack([pts**k for k in range(3)])
        basis0 = eval_basis_matrix(pts, BasisSpec(2))
        y = np.vstack(
            [
                basis0 @ np.array([1.0, 0.5, 2.0])
                + fofr_design(x[i], Grid(pts), tensor, pts) @ surface
                + 0.1 * rng.standard_normal(m)
                for i in range(n)
            ]
        )
        data = FunctionalDataset(grid=Grid(pts), ids=[f"s{i}" for i in range(n)], x_curves=x, y_curves=y)
        data_path = tmp_path / "fofr.csv"
        write_dataset(data, data_path, "long_csv")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"model": "fofr", "order": 2, "shape": {"kind": "bivariate_monotone"}})
        )
        out = tmp_path / "fofr.json"
        code = run_cli(
            [
                "fit-fofr", "--data", str(data_path), "--format", "long_csv",
                "--config", str(config), "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["shape_report"]["feasible"]
        assert len(payload["surface_values"]) == 50

    def test_ci_functional_cli(self, tmp_path):
        data = generate_scenario(ScenarioSpec("B", n=40, seed=8), 0)
        data_path = tmp_path / "b.csv"
        write_dataset(data, data_path, "long_csv")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"model": "flcm", "order": 5, "shape": {"kind": "non_increasing"}, "draws": 120}
            )
        )
        out = tmp_path / "band.json"
        code = run_cli(
            [
                "ci", "--data", str(data_path), "--format", "long_csv",
                "--config", str(config), "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["lower"]) == 200
        assert all(lo <= hi for lo, hi in zip(payload["lower"], payload["upper"]))

    def test_qfosr_cli(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        pts = np.linspace(0, 1, 25)
        n = 30
        z = rng.uniform(0, 1, size=(n, 1))
        q = pts[None, :] * (1.0 - 0.2 * z)
        from bernfit import FunctionalDataset, Grid

        data = FunctionalDataset(
            grid=Grid(pts), ids=[f"s{i}" for i in range(n)], y_curves=q, z_scalars=z, z_names=["age"]
        )
        data_path = tmp_path / "q.csv"
        write_dataset(data, data_path, "wide_csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "qfosr", "order": 3}))
        out = tmp_path / "qfit.json"
        code = run_cli(["fit-qfosr", "--data", str(data_path), "--config", str(config), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["monotone_certificate"]["feasible"]
        assert payload["predictors"] == ["age"]
        # extra shapes keyed by something other than a block number, or by no block
        for key in ("a", "2", "-1"):
            config.write_text(json.dumps({"order": 3, "extra_shapes": {key: {"kind": "convex"}}}))
            argv = ["fit-qfosr", "--data", str(data_path), "--config", str(config), "--out", str(out)]
            assert run_cli(argv) == 2
            assert "Traceback" not in capsys.readouterr().err


# quantile responses on two scalar predictors, in the wide layout
_QFOSR_DATA = "id,z_a,z_b,t=0.0,t=0.5,t=1.0\n" + "".join(
    f"s{i},{i % 3},{i % 4},0,{0.5 + 0.1 * i},{1 + 0.2 * i}\n" for i in range(12)
)
# a concurrent-model dataset in the long layout
_FLCM_DATA = "id,t,x,y_t\n" + "".join(
    f"s{i},{t},{(i * 7 + j * 3) % 5 / 4},{(i * 5 + j * 2) % 7 / 6 + t}\n"
    for i in range(12) for j, t in enumerate((0.0, 0.25, 0.5, 0.75, 1.0))
)
# the covariate curves of a sofr dataset in the long layout, its scalars in a companion
_SOFR_LONG_DATA = "id,t,x\n" + "".join(
    f"s{i},{t},{(i * 7 + j * 3) % 5 / 4}\n" for i in range(6) for j, t in enumerate((0.0, 0.5, 1.0))
)
# a sofr dataset in the wide layout
_SOFR_DATA = "id,y,t=0.0,t=0.5,t=1.0\n" + "".join(
    f"s{i},{i % 5 / 2},{i % 3},{(i * 7) % 5 / 4},{i % 2}\n" for i in range(12)
)
_NON_INCREASING = {"kind": "non_increasing"}
_QUANTILE = {"kind": "quantile_monotone", "n_predictors": 1}


def _with_cell(text: str, line: int, column: int, value: str) -> bytes:
    """``text`` with the cell at 0-based ``line`` and ``column`` set to ``value``."""
    rows = [row.split(",") for row in text.splitlines()]
    rows[line][column] = value
    return "".join(",".join(row) + "\n" for row in rows).encode()

# (subcommand, config object or raw config bytes, raw data bytes or None for valid data);
# a (long-layout data bytes, companion scalar bytes or None) pair is read as long_csv
_MALFORMED_INPUTS = {
    "config-order": ("fit-sofr", {"order": "four"}, None),
    "config-draws": ("ci", {"model": "sofr", "order": 4, "draws": "many"}, None),
    "config-seed": ("fit-sofr", {"order": 4, "seed": "x"}, None),
    "config-bootstrap": (
        "test-shape",
        {"model": "sofr", "order": 4, "shape": {"kind": "non_negative"}, "bootstrap": "x"},
        None,
    ),
    "config-folds": ("cv-order", {"model": "sofr", "folds": "x"}, None),
    "config-level": ("ci", {"model": "sofr", "order": 4, "level": "x"}, None),
    "config-pve": ("fit-sofr", {"order": 4, "pve": "x"}, None),
    "config-block": ("ci", {"model": "qfosr", "order": 3, "block": "x"}, None),
    "config-candidates": ("cv-order", {"model": "sofr", "candidates": "abc"}, None),
    "config-shape-a0": (
        "fit-sofr", {"order": 4, "shape": {"kind": "fixed_boundaries", "a0": "x"}}, None
    ),
    "config-shape-a1": (
        "fit-sofr", {"order": 4, "shape": {"kind": "fixed_boundaries", "a1": "x"}}, None
    ),
    "config-shape-n_predictors": (
        "fit-sofr", {"order": 4, "shape": {"kind": "quantile_monotone", "n_predictors": "x"}}, None
    ),
    "config-whiten": ("fit-sofr", {"order": 4, "whiten": "false"}, None),
    "config-shape-in_s": (
        "fit-sofr",
        {"order": 4, "extra_shapes": {"0": {"kind": "bivariate_monotone", "in_s": "false"}}},
        None,
    ),
    "config-shape-in_t": (
        "fit-sofr", {"order": 4, "extra_shapes": {"0": {"kind": "partial_convex", "in_t": 1}}}, None
    ),
    # only ASCII digits name an extra-shapes block; int() would read each of these
    **{
        f"config-extra-key-{name}": (
            "fit-qfosr", {"order": 3, "extra_shapes": {key: _NON_INCREASING}},
            _QFOSR_DATA.encode(),
        )
        for name, key in [
            ("underscore", "1_0"), ("spaces", " 1 "), ("plus", "+1"), ("arabic-indic", "\u0661"),
        ]
    },
    # a shape that is present must be a shape object, and a malformed one is refused
    **{
        f"config-shape-{name}": (
            "fit-flcm", {"order": 3, "shape": shape}, (_FLCM_DATA.encode(), None)
        )
        for name, shape in [
            ("empty-object", {}), ("empty-list", []), ("empty-string", ""), ("zero", 0),
            ("kind-list", {"kind": []}), ("kind-object", {"kind": {}}),
            ("parts-number", {"kind": "combination", "parts": 5}),
            ("parts-null", {"kind": "combination", "parts": None}),
        ]
    },
    # a shape on a model it does not apply to, with the model taken from the subcommand
    "config-shape-quantile-fit-flcm": (
        "fit-flcm", {"order": 3, "shape": _QUANTILE}, (_FLCM_DATA.encode(), None)
    ),
    "config-shape-quantile-fit-sofr": ("fit-sofr", {"order": 4, "shape": _QUANTILE}, None),
    "config-shape-curve-fit-qfosr": (
        "fit-qfosr", {"order": 2, "shape": _NON_INCREASING}, _QFOSR_DATA.encode()
    ),
    "config-shape-curve-ci-qfosr": (
        "ci", {"model": "qfosr", "order": 2, "shape": _NON_INCREASING}, _QFOSR_DATA.encode()
    ),
    "config-shape-curve-cv-order-qfosr": (
        "cv-order", {"model": "qfosr", "candidates": [2], "folds": 3, "shape": _NON_INCREASING},
        _QFOSR_DATA.encode(),
    ),
    # qfosr imposes its own quantile_monotone; a "shape" of that kind is refused, not ignored
    "config-shape-quantile-fit-qfosr": (
        "fit-qfosr", {"order": 3, "shape": _QUANTILE}, _QFOSR_DATA.encode()
    ),
    "config-shape-quantile-ci-qfosr": (
        "ci", {"model": "qfosr", "order": 3, "shape": _QUANTILE}, _QFOSR_DATA.encode()
    ),
    "config-shape-quantile-cv-order-qfosr": (
        "cv-order", {"model": "qfosr", "candidates": [2], "folds": 3, "shape": _QUANTILE},
        _QFOSR_DATA.encode(),
    ),
    **{
        f"config-extra-shape-quantile-block-{block}": (
            "fit-qfosr", {"order": 2, "extra_shapes": {block: _QUANTILE}}, _QFOSR_DATA.encode()
        )
        for block in ("1", "2")
    },
    # a negative seed reaches the random streams only after the data is read
    "config-seed-negative-ci": ("ci", {"model": "sofr", "order": 4, "seed": -1}, None),
    "config-seed-negative-test-shape": (
        "test-shape", {"model": "sofr", "order": 4, "shape": {"kind": "non_negative"}, "seed": -1},
        None,
    ),
    "config-seed-negative-cv-order": (
        "cv-order", {"model": "sofr", "candidates": [2, 3], "seed": -1}, None
    ),
    # an int field takes an integer only, a float field a number only; nothing is coerced
    **{
        f"config-{name}": ("fit-sofr", {"order": 4, **config}, None)
        for name, config in [
            ("order-fraction", {"order": 3.7}), ("order-bool", {"order": True}),
            ("order-string", {"order": "4"}), ("seed-fraction", {"seed": 2.9}),
            ("seed-bool", {"seed": False}), ("pve-string", {"pve": "0.5"}),
            ("pve-bool", {"pve": True}),
            ("shape-a0-bool", {"shape": {"kind": "fixed_boundaries", "a0": True}}),
        ]
    },
    "config-candidates-fraction": ("cv-order", {"model": "sofr", "candidates": [2, 3.5]}, None),
    # a negative candidate order is refused like a negative fit order, before any fold
    "config-candidates-negative": ("cv-order", {"model": "sofr", "candidates": [-1, 2]}, None),
    # fofr's surface needs order >= 1 (its MODELS row)
    "config-order-fofr-zero": ("fit-fofr", {"order": 0}, (_FLCM_DATA.encode(), None)),
    "config-bootstrap-fraction": (
        "test-shape",
        {"model": "sofr", "order": 4, "shape": {"kind": "non_negative"}, "bootstrap": 150.5},
        None,
    ),
    "config-level-string": ("ci", {"model": "sofr", "order": 4, "level": "0.9"}, None),
    # an integer too large for a float is refused, not an internal error
    "config-pve-huge-integer": ("fit-sofr", {"order": 4, "pve": 10**400}, None),
    # a boundary must be finite: NaN fitted without it, infinity failed in the solver
    **{
        f"config-shape-a0-{name}": (
            "fit-flcm", {"order": 3, "shape": {"kind": "fixed_boundaries", "a0": value}},
            (_FLCM_DATA.encode(), None),
        )
        for name, value in [("nan", float("nan")), ("nan-string", "nan"), ("inf", float("inf"))]
    },
    "config-not-utf8": ("fit-sofr", b'{"order": 4, "model": "Jos\xe9"}', None),
    "data-short-row": ("fit-sofr", {"order": 4}, b"id,y,t=0.0,t=0.5,t=1.0\ns1\n"),
    "data-not-utf8": (
        "fit-sofr", {"order": 4}, "id,y,t=0.0,t=1.0\nJos\xe9,1.0,0.5,0.25\n".encode("latin-1")
    ),
    "data-long-short-row": ("fit-flcm", {"order": 4}, (b"id,t,x\ns1,0.0,1.0\ns1\n", None)),
    "data-scalars-short-row": (
        "fit-sofr", {"order": 4}, (b"id,t,x\ns1,0.0,1.0\ns1,1.0,2.0\n", b"id,y\ns1\n")
    ),
    "data-duplicate-id": (
        "fit-sofr", {"order": 1},
        b"id,y,t=0.0,t=0.5,t=1.0\ns1,1,0,1,2\ns2,2,1,2,4\ns3,3,1,3,3\ns1,2,1,2,3\n",
    ),
    "data-scalars-duplicate-id": (
        "fit-sofr", {"order": 1},
        (b"id,t,x\ns1,0.0,1.0\ns1,1.0,2.0\ns2,0.0,1.0\ns2,1.0,3.0\ns3,0.0,2.0\ns3,1.0,1.0\n",
         b"id,y\ns1,1\ns2,2\ns3,3\ns1,5\n"),
    ),
    # an empty companion cell is refused at its line rather than dropping its column
    **{
        f"data-scalars-empty-{name}-cell": (
            "fit-sofr", {"order": 1}, (_SOFR_LONG_DATA.encode(), scalars.encode())
        )
        for name, scalars in [
            ("y", "id,y,z_age\n" + "".join(f"s{i},{i if i != 3 else ''},{i % 2}\n" for i in range(6))),
            ("z", "id,y,z_age\n" + "".join(f"s{i},{i},{i % 2 if i != 3 else ''}\n" for i in range(6))),
        ]
    },
    "data-one-point-grid-outside-unit": (
        "fit-flcm", {"order": 3}, (b"id,t,x,y_t\ns1,5.0,1.0,2.0\ns2,5.0,1.5,2.5\n", None)
    ),
    # a non-finite number is bad data at its line: these exited 3 (the sofr fit's output,
    # qfosr's eigensolver) or 0 (the flcm fit dropped the point as unobserved)
    "data-wide-y-inf": ("fit-sofr", {"order": 1}, _with_cell(_SOFR_DATA, 4, 1, "inf")),
    "data-wide-z-nan": ("fit-qfosr", {"order": 3}, _with_cell(_QFOSR_DATA, 6, 1, "nan")),
    "data-long-y_t-inf": ("fit-flcm", {"order": 3}, (_with_cell(_FLCM_DATA, 13, 3, "inf"), None)),
}


# command lines whose output path cannot be written
_UNWRITABLE_OUTPUTS = {
    "output-is-directory": lambda tmp: ["simulate", "--scenario", "B", "--n", "30", "--out", str(tmp)],
    "output-json-is-directory": lambda tmp: [
        "bench", "--scenario", "B", "--n", "30", "--reps", "1", "--out", str(tmp)
    ],
}

_ERROR_PREFIX = {"config": "configuration error:", "data": "data error:",
                 "output": "input/output error:"}


@pytest.mark.parametrize("case", list(_MALFORMED_INPUTS) + list(_UNWRITABLE_OUTPUTS))
def test_malformed_input_maps_to_documented_exit_code(tmp_path, capsys, case):
    """Wrong-typed or unreadable configs exit 2, unreadable data files and unwritable
    outputs exit 1, each with a one-line message and never a traceback."""
    if case in _UNWRITABLE_OUTPUTS:
        argv = _UNWRITABLE_OUTPUTS[case](tmp_path)
    else:
        command, config, data = _MALFORMED_INPUTS[case]
        data_path = _write_sofr_data(tmp_path, n=20)
        layout = []
        if isinstance(data, tuple):
            data, scalars = data
            layout = ["--format", "long_csv"]
            if scalars is not None:
                (tmp_path / "scalars.csv").write_bytes(scalars)
                layout += ["--scalars", str(tmp_path / "scalars.csv")]
        if data is not None:
            data_path = tmp_path / "bad.csv"
            data_path.write_bytes(data)
        config_path = tmp_path / "config.json"
        config_path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv = [command, "--data", str(data_path), *layout, "--config", str(config_path),
                "--out", str(tmp_path / "out.json")]
    expected = 2 if case.startswith("config-") else 1
    assert run_cli(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith(_ERROR_PREFIX[case.split("-")[0]])
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "options",
    [
        ["--mode", "coverage", "--ci-draws", "50"],
        ["--mode", "test", "--order", "1", "--test-shape", '{"kind": "convex"}'],
    ],
)
def test_bench_configuration_error_exits_2(tmp_path, capsys, options):
    """A bench setting that fails every replication is a configuration error, not 3 failures."""
    argv = ["bench", "--scenario", "B", "--n", "30", "--reps", "3", *options,
            "--out", str(tmp_path / "bench.json")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "bench.json").exists()


def _config_argv(tmp, command, config, data=None, layout=()):
    """``command`` on ``data`` (a valid sofr dataset when None) under ``config``."""
    if data is None:
        data_path = _write_sofr_data(tmp, n=20)
    else:
        data_path = tmp / "data.csv"
        data_path.write_text(data)
    (tmp / "config.json").write_text(json.dumps(config))
    return [command, "--data", str(data_path), *layout, "--config", str(tmp / "config.json")]


_SCENARIO_B = ["simulate", "--scenario", "B", "--n", "30"]
_BENCH = ["bench", "--scenario", "B", "--n", "30", "--reps", "1"]
_SOFR_CONFIGS = {
    "ci": {"model": "sofr", "order": 4},
    "test-shape": {"model": "sofr", "order": 4, "shape": {"kind": "non_negative"}},
    "cv-order": {"model": "sofr", "candidates": [2, 3]},
}
# case: (command line for a work directory, what the one-line message must say)
_REFUSALS = {
    "simulate-seed": (lambda tmp: [*_SCENARIO_B, "--seed", "-1"], "non-negative: seed -1"),
    "simulate-rep": (lambda tmp: [*_SCENARIO_B, "--rep", "-1"], "non-negative: seed 0, key (-1, 0)"),
    "bench-seed": (lambda tmp: [*_BENCH, "--seed", "-1"], "non-negative: seed -1"),
    "bench-test-shape-not-json": (
        lambda tmp: [*_BENCH, "--mode", "test", "--test-shape", "nope"],
        "--test-shape is not valid JSON",
    ),
    # every replication would fail the test's dense-response check
    "bench-test-sparse": (
        lambda tmp: ["bench", "--scenario", "B_sparse", "--n", "30", "--reps", "3", "--mode", "test",
                     "--test-shape", json.dumps(_NON_INCREASING), "--bootstrap-draws", "100"],
        "the shape test needs densely observed responses; B_sparse has sparse ones",
    ),
    "bench-test-shape-quantile": (
        lambda tmp: [*_BENCH, "--mode", "test", "--test-shape", json.dumps(_QUANTILE)],
        "quantile monotonicity applies only to the qfosr model",
    ),
    # sofr at order 12 has 14 coefficients: every replication would fail alike
    "bench-sofr-few-subjects": (
        lambda tmp: ["bench", "--scenario", "A", "--n", "10", "--reps", "2", "--order", "12"],
        "scenario A needs n >= 14 subjects for order 12, got 10",
    ),
    **{
        f"{command}-seed-option": (
            lambda tmp, c=command: [*_config_argv(tmp, c, _SOFR_CONFIGS[c]), "--seed", "-2"],
            "non-negative: seed -2",
        )
        for command in _SOFR_CONFIGS
    },
    "test-shape-qfosr": (
        lambda tmp: _config_argv(
            tmp, "test-shape", {"model": "qfosr", "order": 2, "shape": _QUANTILE}, _QFOSR_DATA
        ),
        "the functional shape test does not support qfosr",
    ),
    # every model's band takes a block; flcm's one banded curve is block 0
    "ci-flcm-block": (
        lambda tmp: _config_argv(
            tmp, "ci", {"model": "flcm", "order": 3, "block": 1}, _FLCM_DATA,
            ["--format", "long_csv"],
        ),
        "block must be in 0..0",
    ),
    "fit-flcm-extra-shapes": (
        lambda tmp: _config_argv(
            tmp, "fit-flcm", {"order": 4, "extra_shapes": {"0": {"kind": "convex"}}},
            _FLCM_DATA, ["--format", "long_csv"],
        ),
        "'extra_shapes' applies only to the qfosr model, not flcm",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusal_exits_2_with_its_message(tmp_path, capsys, case):
    """Negative seeds and replications, a --test-shape that is not JSON and a model
    that cannot take a shape or key are configuration errors that say so."""
    argv, message = _REFUSALS[case]
    out = tmp_path / "out.json"
    assert run_cli([*argv(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("fit-sofr", {"order": 12}),
    ("ci", {"model": "sofr", "order": 12}),
    ("test-shape", {"model": "sofr", "order": 12, "shape": {"kind": "non_negative"}}),
])
def test_sofr_with_fewer_subjects_than_coefficients_exits_1(tmp_path, capsys, command, config):
    """The fit, the band and the test refuse a one-point design alike: the band once
    ran on an auto-ridged singular Gram and the test ran as well."""
    out = tmp_path / "out.json"
    argv = [*_config_argv(tmp_path, command, config, _SOFR_DATA), "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err == "data error: need at least 14 subjects for order 12, got 12\n"
    assert not out.exists()


def test_simulate_creates_missing_output_directory(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(["simulate", "--scenario", "B", "--n", "30", "--out", str(out)]) == 0
    assert out.is_file()
    assert Path(str(out) + ".meta.json").is_file()


def test_unexpected_exception_is_one_line_internal_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        return 1 / 0

    monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
    argv = ["simulate", "--scenario", "B", "--n", "30", "--out", str(tmp_path / "x.csv")]
    assert run_cli(argv) == 3
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: division by zero\n"


def test_fit_on_grid_beyond_unit_interval_uses_data_domain(tmp_path):
    data = generate_scenario(ScenarioSpec("B", n=40, seed=3), 0)
    scaled = FunctionalDataset(
        grid=Grid(10.0 * data.grid.points), ids=data.ids,
        x_curves=data.x_curves, y_curves=data.y_curves,
    )
    data_path = tmp_path / "b10.csv"
    write_dataset(scaled, data_path, "long_csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"order": 5, "shape": {"kind": "non_increasing"}}))
    out = tmp_path / "fit.json"
    argv = ["fit-flcm", "--data", str(data_path), "--format", "long_csv",
            "--config", str(config), "--out", str(out)]
    assert run_cli(argv) == 0
    payload = json.loads(out.read_text())
    read = read_dataset(data_path, "long_csv")
    assert read.domain == (0.0, 10.0)
    fit = fit_functional(read, "flcm", BasisSpec(5, read.domain), NON_INCREASING)
    assert payload["beta0_coefs"] == fit.beta0_coefs.tolist()
    assert payload["beta1_coefs"] == fit.beta1_coefs.tolist()
    assert (payload["grid"][0], payload["grid"][-1]) == (0.0, 10.0)


def _blank_covariate_cells(data, fraction=0.3, seed=0):
    """The dataset with a random share of its covariate-curve cells unobserved."""
    x = data.x_curves.copy()
    x[np.random.default_rng(seed).random(x.shape) < fraction] = np.nan
    return FunctionalDataset(grid=data.grid, ids=data.ids, x_curves=x,
                             y_curves=data.y_curves, y_scalar=data.y_scalar)


def test_every_data_subcommand_completes_sparse_fofr_covariates(tmp_path):
    dense = generate_scenario(ScenarioSpec("B", n=30, seed=6), 0)
    data_path = tmp_path / "sparse_x.csv"
    write_dataset(_blank_covariate_cells(dense, 0.4), data_path, "long_csv")
    shape = {"kind": "bivariate_monotone"}
    configs = {
        "fit-fofr": {"order": 2, "shape": shape},
        "test-shape": {"model": "fofr", "order": 2, "shape": shape, "bootstrap": 100},
        "cv-order": {"model": "fofr", "shape": shape, "candidates": [1, 2], "folds": 3},
    }
    for command, config in configs.items():
        config_path = tmp_path / f"{command}.json"
        config_path.write_text(json.dumps(config))
        argv = [command, "--data", str(data_path), "--format", "long_csv",
                "--config", str(config_path), "--out", str(tmp_path / f"{command}.out.json")]
        assert run_cli(argv) == 0, command


@pytest.mark.parametrize(
    "command, config",
    [
        ("ci", {"model": "sofr", "order": 4, "shape": {"kind": "non_negative"}, "draws": 100}),
        ("test-shape",
         {"model": "sofr", "order": 4, "shape": {"kind": "non_negative"}, "bootstrap": 100}),
    ],
)
def test_sparse_sofr_output_matches_completed_curves(tmp_path, command, config):
    """ci and test-shape complete sparse covariate curves exactly as fit-sofr does."""
    sparse_path, completed_path = tmp_path / "sparse.csv", tmp_path / "completed.csv"
    dense = generate_scenario(ScenarioSpec("A", n=40, seed=2), 0)
    write_dataset(_blank_covariate_cells(dense), sparse_path, "wide_csv")
    completed = reconstruct_sparse(read_dataset(sparse_path, "wide_csv"))
    assert completed.is_dense("x")
    write_dataset(completed, completed_path, "wide_csv")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for path in (sparse_path, completed_path):
        out = tmp_path / f"{path.stem}.out.json"
        argv = [command, "--data", str(path), "--config", str(config_path), "--seed", "3",
                "--out", str(out)]
        assert run_cli(argv) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
    assert outputs[0] == outputs[1]


def _field_sets() -> dict:
    """One dataset per model's field set; fofr's fields are flcm's on another grid."""
    a = generate_scenario(ScenarioSpec("A", n=12, seed=5), 0)
    b = generate_scenario(ScenarioSpec("B", n=12, seed=5), 0)
    z = np.random.default_rng(5).standard_normal((12, 2))
    curves = dict(grid=b.grid, ids=b.ids)
    return {
        "sofr-z": FunctionalDataset(grid=a.grid, ids=a.ids, x_curves=a.x_curves,
                                    y_scalar=a.y_scalar, z_scalars=z, z_names=["age", "dose"]),
        "fosr": FunctionalDataset(**curves, y_curves=b.y_curves, x_scalar=z[:, 0]),
        "flcm": FunctionalDataset(**curves, x_curves=b.x_curves, y_curves=b.y_curves),
        "flcm-sparse": generate_scenario(ScenarioSpec("B_sparse", n=12, seed=5), 0),
        "fofr": generate_scenario(ScenarioSpec("B", n=12, seed=6, m=15), 0),
        "qfosr": FunctionalDataset(**curves, y_curves=b.y_curves, z_scalars=z, z_names=["a", "b"]),
    }


# the fields each layout cannot hold, per field set
_WRITER_REFUSALS = {
    ("sofr-z", "long_csv"): "long_csv would drop y_scalar, z_scalars; wide_csv keeps them",
    ("fosr", "long_csv"): "long_csv would drop x_scalar; wide_csv keeps them",
    ("flcm", "wide_csv"): "wide_csv would drop x_curves; long_csv keeps them",
    ("flcm-sparse", "wide_csv"): "wide_csv would drop x_curves; long_csv keeps them",
    ("fofr", "wide_csv"): "wide_csv would drop x_curves; long_csv keeps them",
    ("qfosr", "long_csv"): "long_csv would drop z_scalars; wide_csv keeps them",
}


@pytest.mark.parametrize("fmt", ["wide_csv", "long_csv"])
@pytest.mark.parametrize("name", list(_field_sets()))
def test_written_dataset_reads_back_bit_for_bit_or_is_refused(tmp_path, name, fmt):
    data, path = _field_sets()[name], tmp_path / "data.csv"
    refusal = _WRITER_REFUSALS.get((name, fmt))
    if refusal is not None:
        with pytest.raises(DataError) as info:
            write_dataset(data, path, fmt)
        assert str(info.value) == refusal and not path.exists()
        return
    write_dataset(data, path, fmt)
    back = read_dataset(path, fmt)
    # the long file's grid is the union of observed times
    kept = np.isin(data.grid.points, back.grid.points)
    assert back.ids == data.ids and back.z_names == data.z_names
    assert back.grid.points.tobytes() == data.grid.points[kept].tobytes()
    for field in ("x_curves", "y_curves", "y_scalar", "x_scalar", "z_scalars"):
        mine, theirs = getattr(data, field), getattr(back, field)
        if mine is None:
            assert theirs is None, field
            continue
        if field.endswith("curves"):
            assert np.isnan(mine[:, ~kept]).all()
            mine = mine[:, kept]
        assert theirs.tobytes() == mine.tobytes(), field


def test_z_names_must_name_each_z_column():
    # the wide writer pairs each name with its column, so a short list would drop columns
    with pytest.raises(DataError, match="z_names must name each column of z_scalars"):
        FunctionalDataset(grid=Grid([0.0, 1.0]), ids=["a"], y_curves=[[1.0, 2.0]],
                          z_scalars=[[1.0, 2.0]], z_names=["dose"])


def test_writer_names_when_no_layout_holds_every_field(tmp_path):
    data = _field_sets()["flcm"]
    data.y_scalar = np.ones(data.n_subjects)
    for fmt, dropped in (("wide_csv", "y_curves"), ("long_csv", "y_scalar")):
        with pytest.raises(DataError, match=f"^{fmt} would drop {dropped}; no layout holds all"):
            write_dataset(data, tmp_path / "data.csv", fmt)


def test_long_writer_skips_only_points_no_block_observes(tmp_path):
    grid = Grid([0.0, 0.5, 1.0])
    data = FunctionalDataset(
        grid=grid, ids=["a"], x_curves=[[1.0, np.nan, np.nan]], y_curves=[[np.nan, 2.0, np.nan]]
    )
    path = tmp_path / "xy.csv"
    write_dataset(data, path, "long_csv")
    assert path.read_bytes() == b"id,t,x,y_t\r\na,0.0,1.0,\r\na,0.5,,2.0\r\n"


_TIMES = ["0", "0.5", "1", "0.25", "nan", "inf", "-inf", "x", ""]
_CELLS = ["s1", "s2", "", " ", "0", "0.5", "-2.5", "1e3", "nan", "inf", "-inf", "x"]
_rows = st.lists(st.lists(st.sampled_from(_CELLS + _TIMES), max_size=7), max_size=6)


def _csv(header, rows) -> str:
    lines = [] if header is None else [",".join(header)]
    return "".join(line + "\n" for line in lines + [",".join(row) for row in rows])


@st.composite
def _wide_text(draw):
    if draw(st.booleans()) and draw(st.booleans()):
        return ""
    scalars = draw(st.lists(st.sampled_from(["y", "x", "z_a", "note"]), unique=True))
    times = draw(st.lists(st.sampled_from(_TIMES), max_size=5))
    return _csv(["id", *scalars, *(f"t={t}" for t in times)], draw(_rows))


@st.composite
def _long_text(draw):
    if draw(st.booleans()) and draw(st.booleans()):
        return "", None
    columns = draw(st.permutations(["id", "t", *draw(st.sets(st.sampled_from(["x", "y_t"])))]))
    scalars = None
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(["y", "x", "z_a", "note"]), unique=True))
        scalars = _csv(["id", *names], draw(_rows))
    return _csv(columns, draw(_rows)), scalars


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(wide=_wide_text(), long=_long_text())
def test_read_dataset_returns_or_raises_data_error(tmp_path, wide, long):
    """Ragged rows, non-finite tokens, duplicate ids, unsorted times, empty scalar
    cells, extra columns and empty or header-only files either load or raise
    DataError, never anything else; a loaded dataset names only z columns it holds."""
    data_path, scalars_path = tmp_path / "data.csv", tmp_path / "scalars.csv"
    long_text, scalars = long
    for fmt, text, companion in (("wide_csv", wide, None), ("long_csv", long_text, scalars)):
        data_path.write_text(text)
        if companion is not None:
            scalars_path.write_text(companion)
        try:
            data = read_dataset(data_path, fmt, scalars_path if companion is not None else None)
        except DataError:
            continue
        assert len(data.z_names) == data.n_z
