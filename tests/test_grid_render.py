"""Raster attribution sweeps and PPM rendering.

Oracles: closed-form models make every channel hand-checkable; the colormap
checks pin the exact endpoint bytes and the negation symmetry.
"""

import json

import numpy as np
import pytest

from lpattr import cli
from lpattr.attribution import IGConfig, PerturbConfig
from lpattr.errors import ConfigurationError, RenderError, ValidationError
from lpattr.grid import (
    GridSpec,
    channel_csv_text,
    grid_attribution,
    image_rows,
    load_channel_csv,
    save_grid_result,
    verify_grid_files,
)
from lpattr.nn import AnalyticModel
from lpattr.render import colormap_bytes, render_heatmap
from lpattr.serialize import canonical_json


def quad_model():
    # F(x) = x1^2 - 2 x2 + 0.5 x1 x2
    return AnalyticModel(
        fn=lambda X: X[:, 0] ** 2 - 2.0 * X[:, 1] + 0.5 * X[:, 0] * X[:, 1],
        grad=lambda X: np.stack([2.0 * X[:, 0] + 0.5 * X[:, 1], -2.0 + 0.5 * X[:, 0]], axis=1),
        input_dim=2,
    )


def small_spec(resolution=(9, 6)):
    return GridSpec(
        dim_x=0,
        dim_y=1,
        x_range=(0.0, 1.0),
        y_range=(0.0, 2.0),
        fixed_values=np.zeros(2),
        resolution=resolution,
    )


class TestGridSpec:
    def test_swept_dims_must_differ(self):
        with pytest.raises(ConfigurationError):
            GridSpec(dim_x=1, dim_y=1, x_range=(0, 1), y_range=(0, 1), fixed_values=np.zeros(2))

    def test_resolution_floor(self):
        with pytest.raises(ConfigurationError):
            small_spec(resolution=(1, 5))

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(dim_x=0, dim_y=1, x_range=(1.0, 1.0), y_range=(0, 1), fixed_values=np.zeros(2))

    def test_cell_centers_cover_open_interior(self):
        xs, ys = small_spec().cell_centers()
        # first center is half a pitch inside, last is half a pitch short
        assert xs[0] == pytest.approx(0.5 / 9) and xs[-1] == pytest.approx(1.0 - 0.5 / 9)
        assert ys[0] == pytest.approx(2.0 * 0.5 / 6) and len(ys) == 6

    def test_points_lay_cells_x_major(self):
        spec = small_spec()
        pts = spec.points()
        xs, ys = spec.cell_centers()
        assert pts.shape == (54, 2)
        assert pts[1, 0] == xs[0] and pts[1, 1] == ys[1]  # cell index = i*H + j
        assert pts[6, 0] == xs[1] and pts[6, 1] == ys[0]


class TestGridAttribution:
    def test_default_resolution_shape(self):
        spec = GridSpec(dim_x=0, dim_y=1, x_range=(0, 1), y_range=(0, 1), fixed_values=np.zeros(2))
        gr = grid_attribution(quad_model(), "saliency", spec)
        assert all(ch.shape == (100, 73) for ch in gr.channels.values())

    def test_saliency_channels_match_closed_form(self):
        spec = small_spec()
        gr = grid_attribution(quad_model(), "saliency", spec)
        pts = spec.points()
        want = 2.0 * pts[:, 0] + 0.5 * pts[:, 1]
        assert np.allclose(gr.channels["a1"].reshape(-1), want, atol=1e-12)

    def test_prediction_channel_is_raw_model_output(self):
        spec = small_spec()
        gr = grid_attribution(quad_model(), "lime", spec, seed=3)
        pts = spec.points()
        assert np.array_equal(gr.channels["prediction"].reshape(-1), quad_model().predict_many(pts))

    @pytest.mark.parametrize("method", ["integrated-gradients", "saliency", "feature-permutation", "lime"])
    def test_sum_channel_identity_exact(self, method):
        gr = grid_attribution(quad_model(), method, small_spec(), seed=5)
        assert np.array_equal(gr.channels["sum"], np.add.reduce([gr.channels["a1"], gr.channels["a2"]], axis=0))

    def test_ig_grid_completeness_cellwise(self):
        model = quad_model()
        spec = small_spec()
        gr = grid_attribution(model, "integrated-gradients", spec)
        pts = spec.points()
        delta = model.predict_many(pts) - model.predict(np.zeros(2))
        err = np.abs(gr.channels["sum"].reshape(-1) - delta)
        assert (err <= 1e-3 * np.maximum(1.0, np.abs(delta))).all()

    def test_randomized_methods_schedule_independent(self):
        a = grid_attribution(quad_model(), "feature-permutation", small_spec(), seed=11)
        b = grid_attribution(quad_model(), "feature-permutation", small_spec(), seed=11)
        assert np.array_equal(a.channels["a1"], b.channels["a1"])
        c = grid_attribution(quad_model(), "feature-permutation", small_spec(), seed=12)
        assert not np.array_equal(a.channels["a1"], c.channels["a1"])

    def test_config_digest_covers_only_what_the_cells_read(self):
        # perturb_cfg.seed is not read either: the cells' seeds come from the grid seed
        def digest(method, **cfg):
            return grid_attribution(quad_model(), method, small_spec(), **cfg).provenance["config_digest"]

        fp = {digest("feature-permutation", ig_cfg=cfg) for cfg in (None, IGConfig(), IGConfig(steps=128))}
        fp.add(digest("feature-permutation", perturb_cfg=PerturbConfig(seed=4)))
        ig = {digest("integrated-gradients", perturb_cfg=cfg) for cfg in (None, PerturbConfig(radius=0.3))}
        ig.add(digest("integrated-gradients", ig_cfg=IGConfig()))
        assert len(fp) == len(ig) == 1
        assert digest("feature-permutation", perturb_cfg=PerturbConfig(radius=0.3)) not in fp
        assert digest("integrated-gradients", ig_cfg=IGConfig(steps=128)) not in ig

    def test_model_dimension_checked(self):
        m = AnalyticModel(fn=lambda X: X[:, 0], grad=lambda X: np.ones((len(X), 3)), input_dim=3)
        with pytest.raises(ValidationError):
            grid_attribution(m, "saliency", small_spec())

    def test_method_must_be_a_manifest_method_tag(self):
        # the directed variant is no method tag, so verify would refuse its manifest
        with pytest.raises(ConfigurationError, match="a grid takes one of"):
            grid_attribution(quad_model(), "directed-feature-permutation", small_spec())

    def test_fixed_values_fill_unswept_dims(self):
        m = AnalyticModel(
            fn=lambda X: X[:, 0] + 10.0 * X[:, 2],
            grad=lambda X: np.tile([1.0, 0.0, 10.0], (len(X), 1)),
            input_dim=3,
        )
        spec = GridSpec(
            dim_x=0, dim_y=1, x_range=(0, 1), y_range=(0, 1),
            fixed_values=np.array([0.0, 0.0, 0.25]), resolution=(4, 4),
        )
        gr = grid_attribution(m, "saliency", spec)
        pred = gr.channels["prediction"].reshape(-1)
        pts = spec.points()
        assert np.allclose(pred, pts[:, 0] + 2.5)


class TestChannelFiles:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ch = rng.normal(size=(7, 5)) * 1e3
        path = tmp_path / "ch.csv"
        path.write_text(channel_csv_text(ch))
        assert np.array_equal(load_channel_csv(path), ch)

    def test_csv_layout_row_col_value(self, tmp_path):
        ch = np.arange(6.0).reshape(3, 2)  # (W,H) = (3,2)
        lines = channel_csv_text(ch).strip().split("\n")
        assert lines[0] == "row,col,value"
        # row 0 walks columns c=0..2 holding ch[c, 0]
        assert lines[1].startswith("0,0,") and float(lines[1].split(",")[2]) == ch[0, 0]
        assert lines[3].startswith("0,2,") and float(lines[3].split(",")[2]) == ch[2, 0]

    def test_save_and_verify(self, tmp_path):
        gr = grid_attribution(quad_model(), "lime", small_spec(), seed=2)
        manifest = save_grid_result(gr, tmp_path, "g")
        assert sorted(manifest) == ["channels", "files", "provenance"]
        assert sorted(manifest["channels"]) == ["a1", "a2", "prediction", "sum"]
        assert len(manifest["files"]) == 8
        report = verify_grid_files(tmp_path, "g")
        assert report["ok"] and report["problems"] == []
        # a manifest with the top-level stem and method earlier versions wrote verifies the same
        old = dict(manifest, stem="g", method="lime")
        (tmp_path / "g_manifest.json").write_text(canonical_json(old) + "\n")
        assert verify_grid_files(tmp_path, "g") == report

    def test_manifest_files_must_cover_every_channel(self, tmp_path):
        # a manifest that drops the PPMs along with the files names less than its channels
        manifest = save_grid_result(grid_attribution(quad_model(), "saliency", small_spec()), tmp_path, "g")
        for name in [n for n in manifest["files"] if n.endswith(".ppm")]:
            del manifest["files"][name]
            (tmp_path / name).unlink()
        (tmp_path / "g_manifest.json").write_text(canonical_json(manifest) + "\n")
        with pytest.raises(ValidationError, match="g_manifest.json is not a grid manifest"):
            verify_grid_files(tmp_path, "g")

    def test_verify_catches_tampering(self, tmp_path):
        gr = grid_attribution(quad_model(), "saliency", small_spec())
        save_grid_result(gr, tmp_path, "g")
        target = tmp_path / "g_a1.csv"
        lines = target.read_text().split("\n")
        first = lines[1].split(",")
        lines[1] = f"{first[0]},{first[1]},{float(first[2]) + 1.0}"
        target.write_text("\n".join(lines))
        report = verify_grid_files(tmp_path, "g")
        assert not report["ok"]
        assert any("hash mismatch" in p for p in report["problems"])
        assert any("sum channel" in p for p in report["problems"])

    def test_ig_manifest_records_completeness_that_verify_recomputes(self, tmp_path):
        model = quad_model()
        gr = grid_attribution(model, "integrated-gradients", small_spec())
        recorded = save_grid_result(gr, tmp_path, "g")["provenance"]["completeness"]
        delta = gr.channels["prediction"] - model.predict(np.zeros(2))
        assert recorded == {"f_baseline": model.predict(np.zeros(2)),
                            "max_residual": np.max(np.abs(gr.channels["sum"] - delta) / np.maximum(1.0, np.abs(delta)))}
        assert verify_grid_files(tmp_path, "g")["ok"]
        assert "completeness" not in grid_attribution(model, "saliency", small_spec()).provenance
        path = tmp_path / "g_manifest.json"
        intact = json.loads(path.read_text())
        for field, value in (("f_baseline", recorded["f_baseline"] + 1.0), ("max_residual", 1e-3)):
            manifest = json.loads(path.read_text())
            manifest["provenance"]["completeness"][field] = value
            path.write_text(canonical_json(manifest) + "\n")
            report = verify_grid_files(tmp_path, "g")
            assert report["problems"] == ["completeness residual differs from the manifest's"], field
            path.write_text(canonical_json(intact) + "\n")

    def test_verify_catches_missing_file(self, tmp_path):
        gr = grid_attribution(quad_model(), "saliency", small_spec())
        save_grid_result(gr, tmp_path, "g")
        (tmp_path / "g_a2.ppm").unlink()
        report = verify_grid_files(tmp_path, "g")
        assert not report["ok"] and any("missing" in p for p in report["problems"])


def keep_first_row(path):
    # a well-formed channel of another size: only the row-0 cells stay
    lines = path.read_text().split("\n")
    path.write_text("\n".join(line for line in lines if line.startswith(("row,", "0,"))))


@pytest.mark.parametrize("damage, problem", [
    (lambda d: keep_first_row(d / "g_a1.csv"), "channels differ in size"),
    (lambda d: (d / "g_a2.csv").unlink(), "cannot read channel a2"),
], ids=["other-size", "missing-file"])
def test_verify_dir_reports_every_grid_past_a_broken_one(tmp_path, capsys, damage, problem):
    spec = small_spec(resolution=(4, 3))
    for stem in ("g", "h"):
        save_grid_result(grid_attribution(quad_model(), "saliency", spec), tmp_path, stem)
    damage(tmp_path)
    report = verify_grid_files(tmp_path, "g")
    assert not report["ok"] and any(problem in p for p in report["problems"])
    capsys.readouterr()
    assert cli.main(["verify", "--dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("grid g: FAILED") and "grid h: ok" in out
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1


class TestColormap:
    def test_endpoints_and_zero(self):
        rgb = colormap_bytes(np.array([[-2.0, 0.0, 1.0, 2.0]]))
        assert tuple(rgb[0, 0]) == (255, 0, 0)  # most negative: pure red
        assert tuple(rgb[0, 1]) == (255, 255, 255)  # zero: white
        assert tuple(rgb[0, 3]) == (0, 0, 255)  # most positive: pure blue
        assert tuple(rgb[0, 2]) == (128, 128, 255)  # halfway fades symmetrically

    def test_all_zero_matrix_renders_white(self, tmp_path):
        path = tmp_path / "z.ppm"
        render_heatmap(np.zeros((4, 3)), path)
        assert path.read_bytes() == b"P6\n3 4\n255\n" + b"\xff" * 36

    def test_negation_swaps_red_and_blue_exactly(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(11, 9))
        a, b = colormap_bytes(m), colormap_bytes(-m)
        assert np.array_equal(a[..., 0], b[..., 2])
        assert np.array_equal(a[..., 1], b[..., 1])
        assert np.array_equal(a[..., 2], b[..., 0])

    def test_scale_symmetric_about_zero(self):
        # one-sided data still fades toward white at 0, never toward red
        rgb = colormap_bytes(np.array([[0.5, 1.0]]))
        assert tuple(rgb[0, 1]) == (0, 0, 255)
        assert tuple(rgb[0, 0]) == (128, 128, 255)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(RenderError):
            render_heatmap(np.array([[1.0, np.nan]]), tmp_path / "x.ppm")
        with pytest.raises(RenderError):
            colormap_bytes(np.array([[np.inf, 0.0]]))

    def test_ppm_header_and_size(self, tmp_path):
        path = tmp_path / "p.ppm"
        render_heatmap(np.ones((2, 5)), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n5 2\n255\n")
        assert len(raw) == len(b"P6\n5 2\n255\n") + 2 * 5 * 3

    def test_image_rows_puts_largest_y_on_top(self):
        ch = np.array([[1.0, 2.0], [3.0, 4.0]])  # ch[x_idx, y_idx]
        img = image_rows(ch)
        assert img.shape == (2, 2)
        # top row (r=0) holds the y_idx=1 values in x order
        assert img[0, 0] == ch[0, 1] and img[0, 1] == ch[1, 1]
        assert img[1, 0] == ch[0, 0] and img[1, 1] == ch[1, 0]


def test_manifest_json_writes_numpy_values_as_plain_python():
    # numpy arrays and scalars (a grid spec's fixed values, digests of
    # settings) reach JSON through one default= hook and come out as the
    # text of the equal Python values; tuples become lists
    numpy_values = {"a": np.array([[1.5, -0.0], [np.nan, np.inf]]), "b": np.bool_(True), "d": np.float64(0.1),
                    "f": np.float32(0.5), "i": np.int64(3), "t": (np.int32(1), 2.5), "u": np.uint8(7)}
    text = '{"a":[[1.5,-0.0],[NaN,Infinity]],"b":true,"d":0.1,"f":0.5,"i":3,"t":[1,2.5],"u":7}'
    assert canonical_json(numpy_values) == text
