"""Many-point attribution equals its one-point calls bit for bit, in one
model call per query.

Every grid cell, directedness sample and experiment point is compared with
the one-point call it replaces, made with the same per-point seed. The model
evaluates rows in fixed tiles, so a row's bits do not depend on the call it
rides in, and every comparison is exact. Only the LIME-vs-saliency summary
statistics, which the test recomputes with other operations, are compared
to rounding.
"""

from dataclasses import replace

import numpy as np
import pytest

from lpattr.attribution import (
    DIRECTED,
    METHOD_TAGS,
    IGConfig,
    PerturbConfig,
    attribute,
    attribute_many,
    directed_feature_permutation,
    feature_permutation,
    fit_local_slopes,
    lime,
)
from lpattr.errors import ConfigurationError, RankDeficiencyError
from lpattr.experiments import experiment_directed_fp, experiment_lime_vs_saliency
from lpattr.grid import GridSpec, grid_attribution
from lpattr.nn import AnalyticModel
from lpattr.properties import directedness_test
from lpattr.seeding import rng, sample_box, sub_seed

RESOLUTION = (16, 12)
SEED = 29


def quad_model():
    # F(x) = 2 x1^2 + x1 x2 - 3 x2, curved enough that wide probes disagree
    return AnalyticModel(
        fn=lambda X: 2.0 * X[:, 0] ** 2 + X[:, 0] * X[:, 1] - 3.0 * X[:, 1],
        grad=lambda X: np.stack([4.0 * X[:, 0] + X[:, 1], X[:, 0] - 3.0], axis=1),
        input_dim=2,
        bbox=np.array([[0.0, 2.0], [0.0, 2.0]]),
    )


def assert_rounding_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


def spec_for(model):
    return GridSpec(dim_x=0, dim_y=1, x_range=tuple(model.bbox[0]), y_range=tuple(model.bbox[1]),
                    fixed_values=np.zeros(2), resolution=RESOLUTION)


@pytest.fixture(params=["quad", "box"])
def model(request, box_models):
    return quad_model() if request.param == "quad" else box_models["boundary-distance"]


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_grid_cells_match_one_point_calls(model, method):
    spec = spec_for(model)
    pts = spec.points()
    cfg = PerturbConfig()
    grid = grid_attribution(model, method, spec, seed=SEED)
    cells = np.column_stack([c.reshape(-1) for c in grid.feature_channels()])
    per_point = np.array([
        attribute(model, pts[idx], method, perturb_cfg=replace(cfg, seed=sub_seed(SEED, idx))).values
        for idx in range(len(pts))
    ])
    np.testing.assert_array_equal(cells, per_point)
    if method == "saliency":
        np.testing.assert_array_equal(cells, model.input_gradient_many(pts))


def test_short_ig_paths_match_one_point_calls(model):
    # 17-row paths: many share a model call in the grid, one fills a call alone;
    # the 300-cell grid spans two 256-point path chunks
    cfg = IGConfig(steps=16)
    for spec in (spec_for(model), replace(spec_for(model), resolution=(20, 15))):
        grid = grid_attribution(model, "integrated-gradients", spec, ig_cfg=cfg)
        cells = np.column_stack([c.reshape(-1) for c in grid.feature_channels()])
        per_point = [attribute(model, x, "integrated-gradients", ig_cfg=cfg).values for x in spec.points()]
        np.testing.assert_array_equal(cells, per_point)


@pytest.mark.parametrize("method", ["saliency", "lime", "feature-permutation", "integrated-gradients", DIRECTED])
def test_directedness_matches_one_point_calls(monotone_model, method):
    seed, count, radius = 17, 300, 0.05
    report = directedness_test(method, monotone_model, sample_count=count, seed=seed, radius=radius)
    X = sample_box(np.asarray(monotone_model.bbox, dtype=float), count, rng(seed, 40), shrink=0.1)
    A = np.array([
        attribute(monotone_model, x, method, perturb_cfg=PerturbConfig(radius=radius, seed=sub_seed(seed, 41, i))).values
        for i, x in enumerate(X)
    ]).reshape(-1)
    assert report.stats["sign_agreement"] == float((A > 0).mean())
    np.testing.assert_array_equal(
        [report.stats[k] for k in ("mean", "stderr", "magnitude_mean", "magnitude_stderr")],
        [A.mean(), A.std(ddof=1) / np.sqrt(A.size), np.abs(A).mean(), np.abs(A).std(ddof=1) / np.sqrt(A.size)],
    )


def test_directed_fp_experiment_matches_one_point_calls(model):
    seed, points, radius = 8, 40, 0.1
    report = experiment_directed_fp(model, radius=radius, points=points, seed=seed)
    pts = sample_box(model.bbox, points, rng(seed, 0), shrink=0.1)
    offsets = np.concatenate([radius * np.eye(2), -radius * np.eye(2)])
    dev, control = [], []
    for i, x in enumerate(pts):
        fitted = lime(model, x, PerturbConfig(radius=radius, ridge_lambda=0.0), offsets=offsets).values
        dev.append(np.abs(directed_feature_permutation(model, x, radius).values - fitted).max())
        undirected = feature_permutation(model, x, PerturbConfig(radius=radius, seed=sub_seed(seed, 1, i))).values
        control.append(np.abs(undirected - fitted).max())
    np.testing.assert_array_equal(
        [report["max_abs_deviation"], report["mean_abs_deviation"], report["control_max_deviation"]],
        [max(dev), np.mean(dev), max(control)],
    )
    assert report["max_abs_deviation"] <= 1e-9


@pytest.mark.parametrize("ridge_lambda", [0.0, 1.0])
def test_lime_vs_saliency_experiment_matches_one_point_calls(model, ridge_lambda):
    seed, points, radii = 6, 20, (0.5, 0.1, 0.02)
    report = experiment_lime_vs_saliency(model, radii=radii, points=points, seed=seed,
                                         ridge_lambda=ridge_lambda)
    pts = sample_box(model.bbox, points, rng(seed, 0), shrink=0.1)
    grads = model.input_gradient_many(pts)
    for ri, (radius, row) in enumerate(zip(radii, report["rows"])):
        W = np.array([
            lime(model, pts[pi], PerturbConfig(radius=radius, ridge_lambda=ridge_lambda,
                                               seed=sub_seed(seed, 1, ri, pi))).values
            for pi in range(points)
        ])
        norms = np.linalg.norm(W, axis=1)
        cosines = [w @ g / (wn * np.linalg.norm(g)) for w, g, wn in zip(W, grads, norms)]
        assert row["points_used"] == points
        assert_rounding_close([row["mean_magnitude"], row["mean_cosine"]], [norms.mean(), np.mean(cosines)])


class CountingModel:
    """Records the row count of every model query it forwards."""

    def __init__(self, model):
        self.model, self.input_dim, self.bbox = model, model.input_dim, model.bbox
        self.smooth_gradient = model.smooth_gradient
        self.rows = []

    def predict_many(self, X):
        self.rows.append(len(np.atleast_2d(X)))
        return self.model.predict_many(X)

    def input_gradient_many(self, X):
        self.rows.append(len(np.atleast_2d(X)))
        return self.model.input_gradient_many(X)


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_grid_makes_one_model_call_per_query(method):
    counted = CountingModel(quad_model())
    grid_attribution(counted, method, spec_for(counted), seed=SEED)
    # two queries (x and its perturbations) plus the prediction channel
    assert len(counted.rows) <= 3


def test_seeded_draws_are_the_per_point_streams():
    m, x, cfg = quad_model(), np.array([0.7, 1.1]), PerturbConfig(seed=123)
    deltas = rng(123, 0).uniform(-cfg.radius, cfg.radius, size=(cfg.repeats, 2))
    offsets = rng(123, 1).uniform(-cfg.radius, cfg.radius, size=(cfg.samples, 2))
    np.testing.assert_array_equal(feature_permutation(m, x, cfg).values,
                                  feature_permutation(m, x, cfg, deltas=deltas).values)
    np.testing.assert_array_equal(lime(m, x, cfg).values, lime(m, x, cfg, offsets=offsets).values)


def test_attribute_many_checks_seeds_and_draws():
    m = quad_model()
    X = np.array([[0.2, 0.3], [0.4, 0.5]])
    with pytest.raises(ConfigurationError):
        attribute_many(m, X, "lime", seeds=[1, 2, 3])
    with pytest.raises(ConfigurationError):
        attribute_many(m, X, "feature-permutation", draws=np.zeros((3, 4, 2)))
    with pytest.raises(ConfigurationError):
        attribute_many(m, X[:, :1], "saliency")
    with pytest.raises(ConfigurationError):
        attribute_many(m, X, "gradcam")


def test_fit_local_slopes_solves_each_cloud_of_a_stack():
    gen = np.random.Generator(np.random.PCG64(4))
    X = gen.uniform(-1, 1, size=(5, 30, 3))
    y = gen.uniform(-1, 1, size=(5, 30))
    stacked = fit_local_slopes(X, y, 0.5)
    assert_rounding_close(stacked, [fit_local_slopes(X[k], y[k], 0.5) for k in range(5)])
    X[3, :, 2] = 0.0  # one cloud never moves feature 3
    with pytest.raises(RankDeficiencyError):
        fit_local_slopes(X, y, 0.0)
