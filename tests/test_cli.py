"""Command-line surface: every subcommand once, plus the exit-code contract.

Runs `python -m lpattr` via subprocess against the package the test process
imported, with that package's directory put on the child's PYTHONPATH, so
argument parsing, file output, and process exit codes are all exercised as a
user would hit them.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from lpattr.nn import Model, ModelConfig, save_model

from conftest import lpattr_subprocess_env


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "lpattr", *args],
        cwd=cwd,
        env=lpattr_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small gen-data -> train pipeline shared by the command tests."""
    work = tmp_path_factory.mktemp("cli")
    r = run_cli(
        ["gen-data", "--encoding", "boundary-distance", "--count", "3000",
         "--seed", "21", "--out", "files"],
        work,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train", "--data", "files/data-boundary-distance.csv", "--epochs", "4",
         "--seed", "21", "--out", "files"],
        work,
    )
    assert r.returncode == 0, r.stderr
    return work


MODEL = "files/data-boundary-distance-model.model"


class TestPipeline:
    def test_gen_data_wrote_csv_and_sidecar(self, workdir):
        assert (workdir / "files" / "data-boundary-distance.csv").exists()
        assert (workdir / "files" / "data-boundary-distance.csv.meta.json").exists()

    def test_train_wrote_model(self, workdir):
        assert (workdir / "files" / "data-boundary-distance-model.model").exists()

    def test_attribute_prints_csv(self, workdir):
        r = run_cli(
            ["attribute", "--model", MODEL, "--method", "integrated-gradients",
             "--point", "1.0,1.5"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "method,x1,x2,a1,a2,sum"
        cells = lines[1].split(",")
        assert cells[0].startswith("integrated-gradients")
        assert len(cells) == 6

    def test_grid_then_render_then_verify(self, workdir):
        r = run_cli(
            ["grid", "--model", MODEL, "--method", "feature-permutation",
             "--resolution", "16,11", "--seed", "5", "--out", "files", "--name", "gfp"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        assert "sum identity ok" in r.stdout
        r = run_cli(
            ["render", "--matrix", "files/gfp_sum.csv", "--output", "files/extra.ppm"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        assert (workdir / "files" / "extra.ppm").read_bytes() == (
            workdir / "files" / "gfp_sum.ppm"
        ).read_bytes()
        r = run_cli(
            ["verify", "--dir", "files", "--data", "files/data-boundary-distance.csv",
             "--lp", "box"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        assert "grid gfp: ok" in r.stdout and "labels ok" in r.stdout

    def test_exp_directed_fp(self, workdir):
        r = run_cli(
            ["exp-directed-fp", "--model", MODEL, "--points", "20", "--out", "files"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        report = json.loads((workdir / "files" / "exp-directed-fp.json").read_text())
        assert report["max_abs_deviation"] <= 1e-9

    def test_exp_lime_sal(self, workdir):
        r = run_cli(
            ["exp-lime-sal", "--model", MODEL, "--points", "15", "--seed", "3",
             "--out", "files"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        report = json.loads((workdir / "files" / "exp-lime-vs-saliency.json").read_text())
        mags = [row["mean_magnitude"] for row in report["rows"]]
        assert mags[0] > mags[1] > mags[2]

    def test_props_table(self, workdir):
        r = run_cli(["props", "--lp", "box", "--seed", "77", "--out", "files"], workdir)
        assert r.returncode == 0, r.stderr
        assert "feasibility" in r.stdout and "vertex-distance" in r.stdout
        assert "*" not in r.stdout  # matches the reference table
        assert (workdir / "files" / "properties.json").exists()

    def test_exp_5d_small(self, workdir):
        r = run_cli(["exp-5d", "--count", "6000", "--seed", "3", "--out", "files"], workdir)
        assert r.returncode == 0, r.stderr
        assert "held-out accuracy" in r.stdout
        report = json.loads((workdir / "files" / "exp-5dim.json").read_text())
        assert [i["label"] for i in report["instances"]] == ["feasible", "infeasible"]

    def test_version_flag(self, workdir):
        r = run_cli(["--version"], workdir)
        assert r.returncode == 0 and r.stdout.startswith("lpattr ")

    def test_train_with_empty_validation_split(self, tmp_path):
        # below 10 rows the validation split is empty, so there are no val figures
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "8", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--data", "files/data-feasibility.csv", "--epochs", "1", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "val loss" not in r.stdout
        assert (tmp_path / "files" / "data-feasibility-model.model").exists()

    def test_gen_data_with_zero_rows(self, tmp_path):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "0", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "(0 rows" in r.stdout and "label range" not in r.stdout
        assert (tmp_path / "files" / "data-feasibility.csv").exists()


def save_flat_model(path):
    cfg = ModelConfig(depth=2, hidden_width=4)
    model = Model(
        weights=[np.zeros((4, 2)), np.zeros((1, 4))],
        biases=[np.zeros(4), np.zeros(1)],
        config=cfg,
        input_dim=2,
        bbox=np.array([[0.0, 1.0], [0.0, 1.0]]),
    )
    save_model(model, path)


class TestExitCodes:
    def test_validation_failure_exits_2(self, tmp_path):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--lp", "no-such-file"], tmp_path)
        assert r.returncode == 2
        assert "error:" in r.stderr

    @pytest.mark.parametrize("args", [
        ["grid", "--model", "nope.model", "--method", "saliency"],
        ["train", "--data", "nope.csv"],
    ])
    def test_missing_input_file_exits_2(self, tmp_path, args):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("text", [
        '{"n": 2, "m": 1, "c": [1, 1], "A": [[1, 1]], "b": [',
        '{"n": 2, "m": 1, "c": [1, 1], "b": [1]}',
    ], ids=["truncated-json", "missing-A"])
    def test_malformed_program_file_exits_2(self, tmp_path, text):
        (tmp_path / "bad.json").write_text(text)
        r = run_cli(["props", "--lp", "bad.json"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "not a program file" in r.stderr

    def test_malformed_dataset_file_exits_2(self, tmp_path):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "20", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        csv = tmp_path / "files" / "data-feasibility.csv"
        lines = csv.read_text().splitlines()
        lines[3] = "abc," + lines[3].split(",", 1)[1]
        csv.write_text("\n".join(lines) + "\n")
        r = run_cli(["train", "--data", "files/data-feasibility.csv"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "not a dataset file" in r.stderr

    @pytest.mark.parametrize("keep", [200, -8], ids=["truncated-header", "short-array"])
    def test_malformed_model_file_exits_2(self, tmp_path, keep):
        save_flat_model(tmp_path / "full.model")
        (tmp_path / "trunc.model").write_bytes((tmp_path / "full.model").read_bytes()[:keep])
        r = run_cli(["grid", "--model", "trunc.model", "--method", "saliency"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "trunc.model is not a model file" in r.stderr

    @pytest.mark.parametrize("text", [
        "row,col,value\n",
        "row,col,value\n0,0,1.5\n0,1,abc\n",
        "row,col,value\n0,0\n",
        "row,col,value\n0,0,1.5\n0,1,2.5\n-1,0,9.0\n",
        "row,col,value\n0,0,1.5\n0,1,2.5\n0,0,9.0\n",
    ], ids=["header-only", "non-numeric", "short-row", "negative-index", "duplicate-cell"])
    def test_malformed_channel_csv_exits_2(self, tmp_path, text):
        (tmp_path / "x.csv").write_text(text)
        r = run_cli(["render", "--matrix", "x.csv"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "x.csv is not a channel CSV" in r.stderr

    @pytest.mark.parametrize("text", ["{}", '{"files": {}}', '{"files": '], ids=["empty", "no-channels", "truncated"])
    def test_malformed_grid_manifest_exits_2(self, tmp_path, text):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "x_manifest.json").write_text(text)
        r = run_cli(["verify", "--dir", "d"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "x_manifest.json is not a grid manifest" in r.stderr

    def test_bad_flag_exits_2(self, tmp_path):
        r = run_cli(["attribute", "--model", "x", "--method", "bogus", "--point", "1,2"], tmp_path)
        assert r.returncode == 2

    def test_numeric_failure_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("row,col,value\n0,0,nan\n0,1,1.0\n")
        r = run_cli(["render", "--matrix", "bad.csv"], tmp_path)
        assert r.returncode == 3

    def test_inconclusive_exits_4(self, tmp_path):
        save_flat_model(tmp_path / "flat.model")
        r = run_cli(["exp-lime-sal", "--model", "flat.model", "--points", "12"], tmp_path)
        assert r.returncode == 4
        assert "degenerate" in r.stderr

    def test_verify_empty_dir_exits_2(self, tmp_path):
        (tmp_path / "empty").mkdir()
        r = run_cli(["verify", "--dir", "empty"], tmp_path)
        assert r.returncode == 2

    @pytest.mark.parametrize("resolution", ["10", "10,4,2", "5.7,4"])
    def test_bad_resolution_exits_2(self, tmp_path, resolution):
        save_flat_model(tmp_path / "flat.model")
        r = run_cli(
            ["grid", "--model", "flat.model", "--method", "saliency", "--resolution", resolution],
            tmp_path,
        )
        assert r.returncode == 2
        assert "--resolution" in r.stderr
