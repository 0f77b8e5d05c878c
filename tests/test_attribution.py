"""Attribution semantics pinned on closed-form models, where every expected
number is hand-computable."""

import tracemalloc

import numpy as np
import pytest

from lpattr.attribution import (
    AttributionVector,
    IGConfig,
    METHOD_TAGS,
    PerturbConfig,
    attribute,
    attribute_many,
    directed_feature_permutation,
    feature_permutation,
    fit_local_slopes,
    integrated_gradients,
    lime,
    saliency,
)
from lpattr.errors import ConfigurationError, RankDeficiencyError
from lpattr.nn import AnalyticModel, Model, ModelConfig


def linear_model(slopes):
    slopes = np.asarray(slopes, dtype=float)
    return AnalyticModel(
        fn=lambda X: X @ slopes,
        grad=lambda X: np.tile(slopes, (len(X), 1)),
        input_dim=len(slopes),
    )


def square_1d():
    return AnalyticModel(
        fn=lambda X: X[:, 0] ** 2,
        grad=lambda X: (2 * X[:, 0])[:, None],
        input_dim=1,
    )


def shifted_square_1d():
    return AnalyticModel(
        fn=lambda X: (X[:, 0] - 1.0) ** 2,
        grad=lambda X: (2 * (X[:, 0] - 1.0))[:, None],
        input_dim=1,
    )


def smooth_2d():
    return AnalyticModel(
        fn=lambda X: np.sin(X[:, 0]) + X[:, 1] ** 3,
        grad=lambda X: np.column_stack([np.cos(X[:, 0]), 3 * X[:, 1] ** 2]),
        input_dim=2,
    )


# ------------------------------------------------------- integrated gradients


def test_ig_zero_at_baseline():
    av = integrated_gradients(smooth_2d(), [0.0, 0.0])
    np.testing.assert_array_equal(av.values, [0.0, 0.0])


def test_ig_exact_on_quadratic():
    # gradient along the path is linear in alpha; trapezoid rule is exact
    av = integrated_gradients(square_1d(), [2.0], IGConfig(steps=4))
    assert av.values[0] == pytest.approx(4.0, abs=1e-12)
    assert av.attribution_sum == pytest.approx(4.0, abs=1e-12)


def test_ig_completeness_smooth():
    m = smooth_2d()
    rng = np.random.Generator(np.random.PCG64(3))
    for x in rng.uniform(-1.5, 1.5, size=(30, 2)):
        av = integrated_gradients(m, x, IGConfig(steps=256))
        total = m.predict(x) - m.predict([0.0, 0.0])
        assert abs(av.attribution_sum - total) <= 1e-3 * max(1.0, abs(total))


def test_ig_custom_baseline():
    m = linear_model([3.0, -1.0])
    av = integrated_gradients(m, [2.0, 2.0], IGConfig(baseline=[1.0, 1.0]))
    np.testing.assert_allclose(av.values, [3.0, -1.0], atol=1e-12)


def test_ig_memory_does_not_grow_with_points():
    # one query for all 2,000 paths holds the (N, steps + 1, n) path and its
    # gradients at once; a few hundred paths at a time stay below one of them
    gen = np.random.Generator(np.random.PCG64(6))
    sizes = [2, 16, 16, 1]
    model = Model([gen.normal(0.0, 0.5, size=(b, a)) for a, b in zip(sizes[:-1], sizes[1:])],
                  [np.zeros(b) for b in sizes[1:]], ModelConfig(depth=3, hidden_width=16), 2,
                  np.array([[0.0, 1.0], [0.0, 1.0]]))
    X = gen.uniform(0.0, 1.0, size=(2000, 2))
    tracemalloc.start()
    try:
        attribute_many(model, X, "integrated-gradients")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.size * (IGConfig().steps + 1) * X.itemsize


def test_ig_validation():
    with pytest.raises(ConfigurationError):
        IGConfig(steps=0)
    with pytest.raises(ConfigurationError):
        integrated_gradients(square_1d(), [1.0], IGConfig(baseline=[0.0, 0.0]))


# ------------------------------------------------------------------- saliency


def test_saliency_hand_values():
    m = AnalyticModel(
        fn=lambda X: 3 * X[:, 0] + X[:, 1] ** 2,
        grad=lambda X: np.column_stack([np.full(len(X), 3.0), 2 * X[:, 1]]),
        input_dim=2,
    )
    np.testing.assert_allclose(saliency(m, [1.0, 2.0]).values, [3.0, 4.0])


def test_saliency_zero_at_stationary_point():
    np.testing.assert_array_equal(saliency(shifted_square_1d(), [1.0]).values, [0.0])


def test_saliency_is_input_gradient_verbatim():
    m = smooth_2d()
    x = np.array([0.3, 0.7])
    np.testing.assert_array_equal(saliency(m, x).values, m.input_gradient(x))


# -------------------------------------------------------- feature permutation


def test_fp_forced_delta_linear():
    m = linear_model([2.0, 1.0])
    av = feature_permutation(m, [1.0, 1.0], deltas=[[0.1, 0.0]])
    assert av.values[0] == pytest.approx(-0.2, abs=1e-12)  # 3 - 3.2
    assert av.values[1] == pytest.approx(0.0, abs=1e-12)  # zero offset, no change


def test_fp_averages_over_repeats():
    m = square_1d()
    deltas = np.array([[0.1], [-0.1]])
    av = feature_permutation(m, [1.0], deltas=deltas)
    # (1 - 1.21)/2 + (1 - 0.81)/2 = -0.01
    assert av.values[0] == pytest.approx(-0.01, abs=1e-12)


def test_fp_zero_mean_on_linear_small():
    m = linear_model([2.0])
    cfg = PerturbConfig(radius=0.1, repeats=2000, seed=5)
    av = feature_permutation(m, [1.0], cfg)
    assert abs(av.values[0]) <= 0.05 * 2.0 * 0.1


def test_fp_deterministic_under_seed():
    m = smooth_2d()
    cfg = PerturbConfig(radius=0.2, repeats=10, seed=9)
    a = feature_permutation(m, [0.5, 0.5], cfg)
    b = feature_permutation(m, [0.5, 0.5], cfg)
    np.testing.assert_array_equal(a.values, b.values)
    c = feature_permutation(m, [0.5, 0.5], PerturbConfig(radius=0.2, repeats=10, seed=10))
    assert not np.array_equal(a.values, c.values)


# ----------------------------------------------------------------------- lime


def test_lime_ridge_shrinkage_1d():
    m = linear_model([2.0])
    av = lime(m, [1.0], PerturbConfig(ridge_lambda=1.0), offsets=[[0.1], [-0.1]])
    assert av.values[0] == pytest.approx(0.04 / 1.02, rel=1e-12)


def test_lime_least_squares_recovers_slope():
    m = linear_model([2.0])
    av = lime(m, [1.0], PerturbConfig(ridge_lambda=0.0), offsets=[[0.1], [-0.1]])
    assert av.values[0] == pytest.approx(2.0, rel=1e-12)


def test_lime_constant_model_zero():
    m = AnalyticModel(fn=lambda X: np.full(len(X), 5.0), grad=lambda X: np.zeros_like(X), input_dim=2)
    av = lime(m, [1.0, 1.0], PerturbConfig(seed=3))
    np.testing.assert_allclose(av.values, [0.0, 0.0], atol=1e-12)


def test_lime_rank_deficiency():
    m = linear_model([1.0, 1.0])
    offs = [[0.1, 0.0], [-0.1, 0.0], [0.2, 0.0]]  # never moves feature 2
    with pytest.raises(RankDeficiencyError):
        lime(m, [1.0, 1.0], PerturbConfig(ridge_lambda=0.0), offsets=offs)
    av = lime(m, [1.0, 1.0], PerturbConfig(ridge_lambda=1.0), offsets=offs)
    assert np.isfinite(av.values).all()


@pytest.mark.parametrize("field", ["radius", "ridge_lambda"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_perturb_config_rejects_non_finite(field, value):
    with pytest.raises(ConfigurationError):
        PerturbConfig(**{field: value})


def test_lime_needs_enough_samples():
    with pytest.raises(ConfigurationError):
        lime(linear_model([1.0, 1.0]), [0.0, 0.0], PerturbConfig(samples=1))


def test_lime_deterministic_under_seed():
    m = smooth_2d()
    cfg = PerturbConfig(radius=0.1, seed=21)
    a = lime(m, [0.4, 0.6], cfg)
    b = lime(m, [0.4, 0.6], cfg)
    np.testing.assert_array_equal(a.values, b.values)


def test_fit_local_slopes_matches_normal_equations():
    rng = np.random.Generator(np.random.PCG64(33))
    X = rng.uniform(-1, 1, size=(40, 3))
    y = rng.uniform(-1, 1, size=40)
    lam = 0.7
    w = fit_local_slopes(X, y, lam)
    np.testing.assert_allclose((X.T @ X + lam * np.eye(3)) @ w, X.T @ y, atol=1e-12)


# ----------------------------------------------------------- directed variant


def test_directed_fp_linear():
    av = directed_feature_permutation(linear_model([2.0, 1.0]), [1.0, 1.0], radius=0.1)
    np.testing.assert_allclose(av.values, [2.0, 1.0], atol=1e-12)


def test_directed_fp_zero_at_symmetric_stationary_point():
    av = directed_feature_permutation(shifted_square_1d(), [1.0], radius=0.1)
    assert av.values[0] == pytest.approx(0.0, abs=1e-15)


def test_directed_fp_equals_unregularized_local_fit():
    m = smooth_2d()
    rng = np.random.Generator(np.random.PCG64(17))
    d = 0.1
    for x in rng.uniform(-1, 1, size=(20, 2)):
        dfp = directed_feature_permutation(m, x, radius=d)
        offs = np.array([[d, 0.0], [-d, 0.0], [0.0, d], [0.0, -d]])
        lsq = lime(m, x, PerturbConfig(radius=d, ridge_lambda=0.0), offsets=offs)
        assert np.abs(dfp.values - lsq.values).max() <= 1e-9


def test_directed_fp_validation():
    with pytest.raises(ConfigurationError):
        directed_feature_permutation(square_1d(), [1.0], radius=0.0)


# ------------------------------------------------------------------- plumbing


def test_attribution_sum_is_sum_of_values():
    av = AttributionVector(values=np.array([1.5, -0.5, 2.0]), method="saliency", point=np.zeros(3))
    assert av.attribution_sum == 3.0


def test_csv_row_shape():
    av = saliency(linear_model([2.0, 1.0]), [1.0, 2.0])
    row = av.csv_row().split(",")
    assert row[0] == "saliency"
    assert len(row) == 1 + 2 + 2 + 1


def test_attribute_dispatch():
    m = linear_model([2.0, 1.0])
    x = [1.0, 1.0]
    for tag in METHOD_TAGS:
        av = attribute(m, x, tag, perturb_cfg=PerturbConfig(seed=1))
        assert av.values.shape == (2,)
    with pytest.raises(ConfigurationError):
        attribute(m, x, "gradcam")
