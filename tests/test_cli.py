"""Command-line surface: every subcommand once, plus the exit-code contract.

Runs `python -m lpattr` via subprocess against the package the test process
imported, with that package's directory put on the child's PYTHONPATH, so
argument parsing, file output, and process exit codes are all exercised as a
user would hit them.
"""

import inspect
import json
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import lpattr.cli
from lpattr.attribution import PerturbConfig, attribute
from lpattr.experiments import experiment_5dim, experiment_directed_fp, experiment_lime_vs_saliency
from lpattr.nn import Model, ModelConfig, load_model, save_model
from lpattr.properties import encoding_property_table

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
        verdict = "beats it" if report["beats_majority"] else "does not beat it"
        assert f"majority-class share: {report['majority_share']:.4f}; the accuracy {verdict}" in r.stdout

    def test_exp_5d_runs_on_any_program(self, workdir):
        r = run_cli(["exp-5d", "--lp", "tri", "--count", "6000", "--out", "tri"], workdir)
        assert r.returncode == 0, r.stderr
        report = json.loads((workdir / "tri" / "exp-5dim.json").read_text())
        assert [len(i["point"]) for i in report["instances"]] == [2, 2]

    def test_exp_5d_empty_split_exits_2_before_scoring_it(self, workdir):
        # below 10 rows the validation split is empty; no mean of it is taken
        r = run_cli(["exp-5d", "--count", "4", "--out", "few"], workdir)
        assert r.returncode == 2
        assert r.stderr == "error: need both feasible and infeasible points to pick instances\n"

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


@pytest.mark.parametrize("preset, want", [
    ({}, "1 1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3 None"),
    ({"OMP_NUM_THREADS": "3"}, "None 3"),
], ids=["unset", "openblas-set", "omp-set"])
def test_cli_runs_one_blas_thread_unless_told_otherwise(preset, want):
    # the CLI entry point sets one BLAS thread before numpy loads, so model
    # queries get a lane per CPU; a thread count the user set is kept
    env = lpattr_subprocess_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    env.update(preset)
    code = "import os, lpattr.__main__; print(*map(os.environ.get, ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')))"
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == want


class TestFlagsReachConfig:
    def test_train_flags_fill_model_config(self, tmp_path):
        want = ModelConfig(depth=3, hidden_width=8, activation="tanh", loss="logistic",
                           learning_rate=0.01, momentum=0.5, epochs=2, batch_size=32, seed=4)
        assert all(getattr(want, f.name) != getattr(ModelConfig(), f.name) for f in fields(ModelConfig))
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "200", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(
            ["train", "--data", "files/data-feasibility.csv", "--depth", "3", "--width", "8",
             "--activation", "tanh", "--loss", "logistic", "--learning-rate", "0.01",
             "--momentum", "0.5", "--epochs", "2", "--batch-size", "32", "--seed", "4", "--out", "files"],
            tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert load_model(tmp_path / "files" / "data-feasibility-model.model").config == want

    def test_attribute_flags_fill_perturb_config(self, workdir):
        r = run_cli(
            ["attribute", "--model", MODEL, "--method", "lime", "--point", "1.0,1.5",
             "--radius", "0.3", "--samples", "40", "--ridge-lambda", "0.25", "--seed", "9"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        cfg = PerturbConfig(radius=0.3, samples=40, ridge_lambda=0.25, seed=9)
        vec = attribute(load_model(workdir / MODEL), np.array([1.0, 1.5]), "lime", perturb_cfg=cfg)
        assert r.stdout.strip().split("\n")[1] == vec.csv_row()


STUDY_FLAGS = [
    (["exp-lime-sal", "--model", "m"], "radii", experiment_lime_vs_saliency, "radii"),
    (["exp-lime-sal", "--model", "m"], "points", experiment_lime_vs_saliency, "points"),
    (["exp-lime-sal", "--model", "m"], "samples", experiment_lime_vs_saliency, "samples"),
    (["exp-lime-sal", "--model", "m"], "ridge_lambda", experiment_lime_vs_saliency, "ridge_lambda"),
    (["exp-directed-fp", "--model", "m"], "radius", experiment_directed_fp, "radius"),
    (["exp-directed-fp", "--model", "m"], "points", experiment_directed_fp, "points"),
    (["props"], "samples", encoding_property_table, "sample_count"),
    (["exp-5d"], "count", experiment_5dim, "count"),
]


@pytest.mark.parametrize("argv, dest, fn, param", STUDY_FLAGS,
                         ids=[f"{argv[0]}-{dest}" for argv, dest, _, _ in STUDY_FLAGS])
def test_study_flags_keep_the_library_defaults(argv, dest, fn, param):
    got = getattr(lpattr.cli.build_parser().parse_args(argv), dest)
    if dest == "radii":
        got = tuple(float(v) for v in got.split(","))
    assert got == inspect.signature(fn).parameters[param].default


# each subcommand with its required flags
SUBCOMMANDS = {
    "gen-data": ["--encoding", "feasibility"],
    "train": ["--data", "d.csv"],
    "attribute": ["--model", "m", "--method", "saliency", "--point", "1,2"],
    "grid": ["--model", "m", "--method", "saliency"],
    "props": [],
    "exp-lime-sal": ["--model", "m"],
    "exp-directed-fp": ["--model", "m"],
    "exp-5d": [],
    "render": ["--matrix", "c.csv"],
    "verify": [],
}
# the shared flags, each only on the subcommands that read it; --out is on all
SHARED_FLAG_TAKERS = {
    "--lp": {"gen-data", "props", "exp-5d", "verify"},
    "--seed": set(SUBCOMMANDS) - {"render", "verify"},
}


@pytest.mark.parametrize("flag, value", [("--lp", "tri"), ("--seed", "3"), ("--out", "o")])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_shared_flags_parse_only_where_read(command, flag, value, capsys):
    argv = [command, *SUBCOMMANDS[command], flag, value]
    if command in SHARED_FLAG_TAKERS.get(flag, SUBCOMMANDS):
        assert str(getattr(lpattr.cli.build_parser().parse_args(argv), flag[2:])) == value
    else:
        with pytest.raises(SystemExit) as exc:
            lpattr.cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def save_flat_model(path, depth=2, **changes):
    """A zero network of ``depth`` layers on two features; ``changes``
    overwrite Model fields, so the header can disagree with the arrays."""
    sizes = [2] + [4] * (depth - 1) + [1]
    model = Model(
        weights=[np.zeros((fan_out, fan_in)) for fan_in, fan_out in zip(sizes, sizes[1:])],
        biases=[np.zeros(fan_out) for fan_out in sizes[1:]],
        config=ModelConfig(depth=depth, hidden_width=4),
        input_dim=2,
        bbox=np.array([[0.0, 1.0], [0.0, 1.0]]),
    )
    save_model(replace(model, **changes), path)


class TestExitCodes:
    def test_validation_failure_exits_2(self, tmp_path):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--lp", "no-such-file"], tmp_path)
        assert r.returncode == 2
        assert "error:" in r.stderr

    @pytest.mark.parametrize("args, path", [
        (["grid", "--model", "nope.model", "--method", "saliency"], "nope.model"),
        (["train", "--data", "nope.csv"], "nope.csv"),
        (["train", "--data", "adir"], "adir"),
        (["props", "--lp", "adir"], "adir"),
        (["gen-data", "--encoding", "feasibility", "--out", "afile"], "afile"),
    ], ids=["missing-model", "missing-data", "directory-data", "directory-lp", "file-out"])
    def test_unusable_path_exits_2(self, tmp_path, args, path):
        # a missing file, a directory where a file is read, or a file where the output directory goes
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        r = run_cli(args, tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1 and path in r.stderr

    @pytest.mark.parametrize("text", [
        '{"n": 2, "m": 1, "c": [1, 1], "A": [[1, 1]], "b": [',
        '{"n": 2, "m": 1, "c": [1, 1], "b": [1]}',
        '{"n": 2, "m": 2, "c": ["1", true], "A": [[1, 0], [0, 1]], "b": [1, 1]}',
        '{"n": 2, "m": 2, "c": [1, 1], "A": [["1", 0], [0, true]], "b": [1, 1]}',
        '{"n": 2, "m": 1, "c": [1, 1], "A": [[1, 1]], "b": [1' + "0" * 400 + ']}',
        '{"n": 2, "m": 1.0, "c": [1, 1], "A": [[1, 1]], "b": [1]}',
    ], ids=["truncated-json", "missing-A", "string-and-bool-in-c", "string-and-bool-in-A", "integer-past-float",
            "m-float"])
    def test_malformed_program_file_exits_2(self, tmp_path, text):
        (tmp_path / "bad.json").write_text(text)
        r = run_cli(["props", "--lp", "bad.json"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "not a program file" in r.stderr

    @pytest.mark.parametrize("split_edit", [
        None,
        lambda meta: meta["bbox"].__setitem__(0, ["1", "1"]),
        lambda meta: meta["bbox"].__setitem__(0, ["0", "nan"]),
        lambda meta: meta.__setitem__("seed", [1, "x"]),
        lambda meta: meta.__setitem__("balance_warning", "no"),
        lambda meta: meta.__setitem__("kind", 7),
        lambda meta: meta.__setitem__("lp_digest", 5),
        lambda meta: meta.__setitem__("seed", -1),
        lambda meta: meta.__setitem__("count", 40.0),
    ], ids=["non-numeric", "bbox-degenerate", "bbox-nan", "seed-list", "balance-warning-string", "kind-int",
            "lp-digest-int", "seed-negative", "count-float"])
    def test_malformed_dataset_file_exits_2(self, tmp_path, split_edit):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "40", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        csv = tmp_path / "files" / "data-feasibility.csv"
        if split_edit is None:
            lines = csv.read_text().splitlines()
            lines[3] = "abc," + lines[3].split(",", 1)[1]
            csv.write_text("\n".join(lines) + "\n")
        else:
            sidecar = tmp_path / "files" / "data-feasibility.csv.meta.json"
            meta = json.loads(sidecar.read_text())
            split_edit(meta)
            sidecar.write_text(json.dumps(meta))
        r = run_cli(["train", "--data", "files/data-feasibility.csv"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "not a dataset file" in r.stderr

    @pytest.mark.parametrize("file_edit, depth, changes, header_edit", [
        (lambda data: data[:200], 2, {}, None),
        (lambda data: data[:-8], 2, {}, None),
        (None, 2, {"input_dim": 3}, None),
        (None, 3, {"config": ModelConfig(depth=2, hidden_width=4)}, None),
        (None, 2, {"bbox": np.tile([0.0, 1.0], (3, 1))}, None),
        (None, 2, {"bbox": np.array([[1.0, 1.0], [0.0, 1.0]])}, None),
        (None, 2, {"weights": [np.array([[np.nan, 0.0]] + [[0.0, 0.0]] * 3), np.zeros((1, 4))]}, None),
        (None, 2, {}, lambda header: header["config"].__setitem__("seed", "x")),
        (None, 2, {}, lambda header: header["config"].__setitem__("epochs", 2.5)),
        (None, 2, {}, lambda header: header["config"].__setitem__("batch_size", True)),
        (None, 2, {}, lambda header: header["config"].__setitem__("hidden_width", 4.0)),
        (None, 2, {}, lambda header: header.__setitem__("training_summary", [1])),
        (None, 2, {}, lambda header: header.__setitem__("input_dim", 2.0)),
        (None, 2, {}, lambda header: header["config"].__setitem__("learning_rate", True)),
        (None, 2, {}, lambda header: header["config"].__setitem__("momentum", False)),
        (lambda data: data + bytes(24), 2, {}, None),
        (None, 2, {}, lambda header: header["config"].pop("activation")),
    ], ids=["truncated-header", "short-array", "input-dim-mismatch", "depth-mismatch", "bbox-shape",
            "bbox-degenerate", "nan-weight", "seed-string", "epochs-fraction", "batch-size-bool",
            "width-float", "summary-list", "input-dim-float", "learning-rate-bool", "momentum-bool",
            "trailing-bytes", "activation-missing"])
    def test_malformed_model_file_exits_2(self, tmp_path, file_edit, depth, changes, header_edit):
        save_flat_model(tmp_path / "full.model", depth, **changes)
        data = (tmp_path / "full.model").read_bytes()
        if header_edit is not None:
            magic, header, arrays = data.split(b"\n", 2)
            header = json.loads(header)
            header_edit(header)
            data = b"\n".join([magic, json.dumps(header).encode(), arrays])
        (tmp_path / "bad.model").write_bytes(file_edit(data) if file_edit else data)
        r = run_cli(["attribute", "--model", "bad.model", "--method", "saliency", "--point", "0.5,0.5"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "bad.model is not a model file" in r.stderr

    @pytest.mark.parametrize("args", [
        ["gen-data", "--encoding", "feasibility", "--count", "40"],
        ["train", "--data", "files/data-feasibility.csv", "--epochs", "1"],
        ["grid", "--model", "flat.model", "--method", "lime", "--resolution", "2,2"],
    ], ids=["gen-data", "train", "grid-lime"])
    def test_negative_seed_exits_2(self, tmp_path, args):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "40", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        save_flat_model(tmp_path / "flat.model")
        r = run_cli([*args, "--seed", "-1", "--out", "out"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1 and "seed must be >= 0" in r.stderr

    @pytest.mark.parametrize("dims", [["--dim-x", "5"], ["--dim-y", "2"], ["--dim-x", "-1"]],
                             ids=["dim-x-5", "dim-y-2", "dim-x-negative"])
    def test_swept_dimension_out_of_range_exits_2(self, tmp_path, dims):
        save_flat_model(tmp_path / "flat.model")
        r = run_cli(["grid", "--model", "flat.model", "--method", "saliency", *dims], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert f"{dims[0]} {dims[1]} is out of range for a 2-feature model" in r.stderr

    @pytest.mark.parametrize("args", [
        ["gen-data", "--encoding", "feasibility", "--bbox", "0,inf,0,3"],
        ["gen-data", "--encoding", "feasibility", "--bbox", "0,2,nan,3"],
        ["attribute", "--method", "lime", "--point", "0.5,0.5", "--radius", "nan"],
        ["attribute", "--method", "lime", "--point", "0.5,0.5", "--ridge-lambda", "inf"],
        ["attribute", "--method", "saliency", "--point", "nan,1"],
        ["exp-lime-sal", "--radii", "0.5,nan"],
        ["grid", "--method", "saliency", "--x-range", "0,inf"],
    ], ids=["bbox-inf", "bbox-nan", "radius-nan", "ridge-lambda-inf", "point-nan", "radii-nan", "x-range-inf"])
    def test_non_finite_number_exits_2(self, tmp_path, args):
        save_flat_model(tmp_path / "flat.model")
        model = [] if args[0] == "gen-data" else ["--model", "flat.model"]
        r = run_cli([*args, *model], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1

    def test_non_finite_dataset_cell_exits_2(self, tmp_path):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "40", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        csv = tmp_path / "files" / "data-feasibility.csv"
        lines = csv.read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        csv.write_text("\n".join(lines) + "\n")
        r = run_cli(["train", "--data", "files/data-feasibility.csv"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "not a dataset file" in r.stderr

    def test_verify_nan_residual_exits_non_zero(self, tmp_path, monkeypatch, capsys):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "40", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        monkeypatch.setattr(lpattr.cli, "label_residual", lambda ds, lp: float("nan"))
        code = lpattr.cli.main(["verify", "--data", str(tmp_path / "files" / "data-feasibility.csv"), "--lp", "box"])
        assert code != 0
        assert "labels deviate by nan" in capsys.readouterr().err

    def test_non_finite_learning_rate_exits_2(self, tmp_path):
        r = run_cli(["gen-data", "--encoding", "feasibility", "--count", "40", "--out", "files"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--data", "files/data-feasibility.csv", "--learning-rate", "nan"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "learning_rate must be finite" in r.stderr

    @pytest.mark.parametrize("text", [
        "row,col,value\n",
        "row,col,value\n0,0,1.5\n0,1,abc\n",
        "row,col,value\n0,0\n",
        "row,col,value\n0,0,1.5\n0,1,2.5\n-1,0,9.0\n",
        "row,col,value\n0,0,1.5\n0,1,2.5\n0,0,9.0\n",
        "row,col,value\n0,0,1.5\n1,1,2.5\n",
        "row,col,value\n0,0,1_0\n",
        "row,col,value\n\u0660,0,1\n",
        "a,b,c\n0,0,1.5\n0,1,2.5\n",
        "row,col,value\n0,1,2.5\n0,0,1.5\n",
        "row,col,value\n0,0,1.5\n0,1,2.5\n\x1c\n",
    ], ids=["header-only", "non-numeric", "short-row", "negative-index", "duplicate-cell", "missing-cell",
            "digit-separator", "non-ascii-digit", "wrong-header", "out-of-order", "separator-line"])
    def test_malformed_channel_csv_exits_2(self, tmp_path, text):
        (tmp_path / "x.csv").write_text(text, encoding="utf-8")
        r = run_cli(["render", "--matrix", "x.csv"], tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "x.csv is not a channel CSV" in r.stderr

    @pytest.mark.parametrize("text", [
        "{}", '{"files": {}}', '{"files": ', '{"files": {}, "channels": ["abs", "sum"]}',
        '{"files": {}, "channels": "a1"}', '{"files": {}, "channels": [1]}',
        '{"files": {"x_a1.csv": "0", "x_sum.csv": "0"}, "channels": ["a1", "sum"], '
        '"provenance": {"method": "saliency"}}',
        '{"files": {"x_abs.csv": "0", "x_abs.ppm": "0", "x_sum.csv": "0", "x_sum.ppm": "0"}, '
        '"channels": ["abs", "sum"], "provenance": {"method": "saliency"}}',
        '{"files": {"x_a1.csv": "0", "x_a1.ppm": "0", "x_sum.csv": "0", "x_sum.ppm": "0"}, '
        '"channels": ["a1", "sum"], "provenance": {"method": "x"}}',
    ], ids=["empty", "no-channels", "truncated", "unnumbered-channel", "channels-string", "channel-number",
            "files-without-ppm", "unnumbered-channel-listed", "method-not-a-tag"])
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
