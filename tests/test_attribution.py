"""Attribution semantics pinned on closed-form models, where every expected
number is hand-computable."""

import tracemalloc

import numpy as np
import pytest

from lpattr.attribution import (
    DIRECTED,
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
    method_settings,
)
from lpattr.errors import ConfigurationError, RankDeficiencyError
from lpattr.grid import GridSpec, grid_attribution
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


def monomial_1d(p):
    return AnalyticModel(
        fn=lambda X: X[:, 0] ** p,
        grad=lambda X: (p * X[:, 0] ** (p - 1))[:, None],
        input_dim=1,
    )


def hand_built_model(activation="smooth-softplus", loss="squared-error"):
    """A 2-16-16-1 network on the unit box with fixed random weights; one
    weight draw for every activation and loss."""
    gen = np.random.Generator(np.random.PCG64(6))
    sizes = [2, 16, 16, 1]
    return Model([gen.normal(0.0, 0.5, size=(b, a)) for a, b in zip(sizes[:-1], sizes[1:])],
                 [np.zeros(b) for b in sizes[1:]],
                 ModelConfig(depth=3, hidden_width=16, activation=activation, loss=loss), 2,
                 np.array([[0.0, 1.0], [0.0, 1.0]]))


def trapezoid_ig(model, X, intervals=256):
    """Integrated gradients from the zero baseline by the trapezoid rule over
    ``intervals``, in the same operations as the package's kinked-model rule."""
    baseline = np.zeros(X.shape[1])
    alphas = np.linspace(0.0, 1.0, intervals + 1)[:, None]
    weights = np.full((intervals + 1, 1), 1.0 / intervals)
    weights[0] = weights[-1] = 0.5 / intervals
    d = X - baseline
    path = alphas * d[:, None, :]
    path += baseline
    grads = model.input_gradient_many(path.reshape(-1, X.shape[1])).reshape(path.shape)
    grads *= weights
    return d * grads.sum(axis=1)


# ------------------------------------------------------- integrated gradients


def test_ig_zero_at_baseline():
    av = integrated_gradients(smooth_2d(), [0.0, 0.0])
    np.testing.assert_array_equal(av.values, [0.0, 0.0])


def test_ig_exact_on_quadratic():
    # gradient along the path is linear in alpha; both quadrature rules are exact
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
    # one query for all 2,000 paths holds the (N, rows per path, n) path and
    # its gradients at once; a few hundred paths at a time stay below one of
    # them, under either rule's own rows per path
    X = np.random.Generator(np.random.PCG64(7)).uniform(0.0, 1.0, size=(2000, 2))
    for activation in ("smooth-softplus", "piecewise-linear"):
        model = hand_built_model(activation)
        settings = method_settings("integrated-gradients", model)
        rows = settings["steps"] + (settings["rule"] == "trapezoid")
        tracemalloc.start()
        try:
            attribute_many(model, X, "integrated-gradients")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.size * rows * X.itemsize, activation


@pytest.mark.parametrize("nodes", [1, 2, 3, 5, 8])
def test_gauss_legendre_exact_to_degree_2k_minus_1(nodes):
    # from 0 to x, the path integrand of x**p is a degree p - 1 polynomial in
    # alpha: k nodes integrate degree 2k - 1 exactly and miss degree 2k
    x = 1.3
    for p, exact in ((2 * nodes, True), (2 * nodes + 1, False)):
        value = integrated_gradients(monomial_1d(p), [x], IGConfig(steps=nodes)).values[0]
        assert (abs(value - x**p) <= 1e-12 * x**p) == exact, p


@pytest.mark.parametrize("activation, loss", [("smooth-softplus", "squared-error"), ("tanh", "squared-error"),
                                              ("smooth-softplus", "logistic")])
def test_default_ig_no_less_complete_than_trapezoid_256(activation, loss):
    model = hand_built_model(activation, loss)
    X = np.random.Generator(np.random.PCG64(8)).uniform(0.0, 1.0, size=(300, 2))
    delta = model.predict_many(X) - model.predict(np.zeros(2))
    default = np.abs(attribute_many(model, X, "integrated-gradients").sum(axis=1) - delta)
    reference = np.abs(trapezoid_ig(model, X).sum(axis=1) - delta)
    assert (default <= reference).all(), (default.max(), reference.max())
    assert default.max() < 1e-3 * reference.max()


def test_kinked_model_keeps_trapezoid_256_bit_for_bit():
    model = hand_built_model("piecewise-linear")
    X = np.random.Generator(np.random.PCG64(9)).uniform(0.0, 1.0, size=(300, 2))  # two 256-point chunks
    np.testing.assert_array_equal(attribute_many(model, X, "integrated-gradients"), trapezoid_ig(model, X))
    spec = GridSpec(dim_x=0, dim_y=1, x_range=(0.0, 1.0), y_range=(0.0, 1.0), fixed_values=np.zeros(2),
                    resolution=(20, 15))
    grid = grid_attribution(model, "integrated-gradients", spec)
    cells = np.column_stack([c.reshape(-1) for c in grid.feature_channels()])
    np.testing.assert_array_equal(cells, trapezoid_ig(model, spec.points()))


def test_ig_rule_follows_the_model_and_names_itself():
    smooth, kinked = hand_built_model("smooth-softplus"), hand_built_model("piecewise-linear")
    assert smooth.smooth_gradient and not kinked.smooth_gradient and square_1d().smooth_gradient
    rules = [method_settings("integrated-gradients", m, cfg) for m in (smooth, kinked)
             for cfg in (None, IGConfig(steps=32))]
    assert [(r["rule"], r["steps"]) for r in rules] == [
        ("gauss-legendre", 64), ("gauss-legendre", 32), ("trapezoid", 256), ("trapezoid", 32)]
    spec = GridSpec(dim_x=0, dim_y=1, x_range=(0.0, 1.0), y_range=(0.0, 1.0), fixed_values=np.zeros(2),
                    resolution=(4, 3))
    tags = {attribute(m, [0.5, 0.5], "integrated-gradients").method for m in (smooth, kinked)}
    digests = {grid_attribution(m, "integrated-gradients", spec).provenance["config_digest"]
               for m in (smooth, kinked)}
    assert len(tags) == len(digests) == 2


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
    np.testing.assert_allclose(attribute(m, [1.0, 2.0], "saliency").values, [3.0, 4.0])


def test_saliency_zero_at_stationary_point():
    np.testing.assert_array_equal(attribute(shifted_square_1d(), [1.0], "saliency").values, [0.0])


def test_saliency_is_input_gradient_verbatim():
    m = smooth_2d()
    x = np.array([0.3, 0.7])
    np.testing.assert_array_equal(attribute(m, x, "saliency").values, m.input_gradient(x))


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


# ------------------------------------------------- axioms as certificates
# Sundararajan et al. 2017 (arXiv:1703.01365), checked on closed-form models
# over fixed points, so no seed decides a verdict.

ALL_TAGS = METHOD_TAGS + (DIRECTED,)
AXIOM_CFG = PerturbConfig(radius=0.05, ridge_lambda=0.0)


def axiom_points(count=200, n=3, seed=40):
    return np.random.Generator(np.random.PCG64(seed)).uniform(0.1, 0.9, size=(count, n))


def curved_ignoring_x3():
    # f = sin(x1) x2^2 does not read x3
    return AnalyticModel(
        fn=lambda X: np.sin(X[:, 0]) * X[:, 1] ** 2,
        grad=lambda X: np.column_stack(
            [np.cos(X[:, 0]) * X[:, 1] ** 2, 2 * np.sin(X[:, 0]) * X[:, 1], np.zeros(len(X))]
        ),
        input_dim=3,
    )


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_dummy_feature_gets_exactly_zero(tag):
    X = axiom_points()
    if tag == "lime":
        # the fit spreads sampling noise over every slope on a curved model
        # (about 0.01 here), so LIME's dummy property is checked on an affine one
        A = attribute_many(linear_model([2.0, -1.0, 0.0]), X, tag, perturb_cfg=AXIOM_CFG, seeds=range(len(X)))
        assert np.abs(A[:, 2]).max() <= 1e-12
    else:
        A = attribute_many(curved_ignoring_x3(), X, tag, perturb_cfg=AXIOM_CFG, seeds=range(len(X)))
        assert (A[:, 2] == 0.0).all()


@pytest.mark.parametrize("tag", ["saliency", "integrated-gradients", DIRECTED])
def test_symmetric_features_get_identical_attributions(tag):
    # f = x1 x2 + x3^2 is symmetric in x1 and x2; at x1 == x2 the
    # deterministic methods must not tell them apart. FP and LIME draw one
    # offset per feature, so their symmetry is the swap case below.
    m = AnalyticModel(
        fn=lambda X: X[:, 0] * X[:, 1] + X[:, 2] ** 2,
        grad=lambda X: np.column_stack([X[:, 1], X[:, 0], 2 * X[:, 2]]),
        input_dim=3,
    )
    X = axiom_points()
    X[:, 1] = X[:, 0]
    A = attribute_many(m, X, tag, perturb_cfg=AXIOM_CFG)
    np.testing.assert_array_equal(A[:, 0], A[:, 1])


def permuted(model, perm):
    """The model read through a column permutation: column j of its input is
    column perm[j] of the original's."""
    inv = np.argsort(perm)
    return AnalyticModel(
        fn=lambda X: model.predict_many(X[:, inv]),
        grad=lambda X: model.input_gradient_many(X[:, inv])[:, perm],
        input_dim=model.input_dim,
    )


@pytest.mark.parametrize("perm", [[1, 2, 0], [1, 0, 2]], ids=["cycle", "swap"])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_permuting_the_columns_permutes_the_attributions(tag, perm):
    m = AnalyticModel(
        fn=lambda X: np.sin(X[:, 0]) * X[:, 1] ** 2 + X[:, 0] * X[:, 2] ** 3,
        grad=lambda X: np.column_stack([
            np.cos(X[:, 0]) * X[:, 1] ** 2 + X[:, 2] ** 3,
            2 * np.sin(X[:, 0]) * X[:, 1],
            3 * X[:, 0] * X[:, 2] ** 2,
        ]),
        input_dim=3,
    )
    X = axiom_points()
    draws = None
    if tag in ("feature-permutation", "lime"):
        count = 10 if tag == "feature-permutation" else 50
        draws = np.random.Generator(np.random.PCG64(41)).uniform(-0.05, 0.05, size=(len(X), count, 3))
    want = attribute_many(m, X, tag, perturb_cfg=AXIOM_CFG, draws=draws)[:, perm]
    got = attribute_many(permuted(m, perm), X[:, perm], tag, perturb_cfg=AXIOM_CFG,
                         draws=None if draws is None else draws[..., perm])
    if tag in ("integrated-gradients", "lime"):
        # IG's path sums and LIME's solve run in another order on permuted columns
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    else:
        np.testing.assert_array_equal(got, want)


# ---------------------------------------- antithetic LIME meets the gradient
# With ridge 0, ±delta pairs cancel every even term of the Taylor expansion,
# so LIME's error against the gradient falls as r^2, against r^1 for i.i.d.
# offsets. The unit draws are scaled by each radius, which makes the error on
# a cubic a polynomial in r.

LIME_RADII = (0.4, 0.1, 0.025, 0.00625)


def lime_errors(model, draws):
    """max |LIME - gradient| / max |gradient| over 100 points, per radius."""
    X = np.random.Generator(np.random.PCG64(42)).uniform(0.2, 0.8, size=(100, 2))
    g = model.input_gradient_many(X)
    errs = []
    for r in LIME_RADII:
        W = attribute_many(model, X, "lime", perturb_cfg=PerturbConfig(radius=r, ridge_lambda=0.0), draws=r * draws)
        errs.append(np.abs(W - g).max() / np.abs(g).max())
    return np.array(errs)


def unit_draws(pairs, antithetic, seed):
    U = np.random.Generator(np.random.PCG64(seed)).uniform(-1.0, 1.0, size=(100, pairs if antithetic else 2 * pairs, 2))
    return np.concatenate([U, -U], axis=1) if antithetic else U


def test_antithetic_lime_is_exact_on_a_quadratic():
    g0, H = np.array([0.3, -0.2]), np.array([[2.0, 0.7], [0.7, -1.0]])
    quad = AnalyticModel(
        fn=lambda X: X @ g0 + 0.5 * ((X @ H) * X).sum(axis=1),
        grad=lambda X: g0 + X @ H,
        input_dim=2,
    )
    assert lime_errors(quad, unit_draws(25, True, 43)).max() <= 1e-12


def test_antithetic_lime_error_falls_as_r_squared_on_a_cubic():
    cubic = AnalyticModel(
        fn=lambda X: X[:, 0] ** 3 + X[:, 0] * X[:, 1] ** 2,
        grad=lambda X: np.column_stack([3 * X[:, 0] ** 2 + X[:, 1] ** 2, 2 * X[:, 0] * X[:, 1]]),
        input_dim=2,
    )
    order = {}
    for antithetic in (True, False):
        errs = lime_errors(cubic, unit_draws(25, antithetic, 44))
        order[antithetic] = np.polyfit(np.log(LIME_RADII), np.log(errs), 1)[0]
    assert 1.8 <= order[True] <= 2.2
    assert 0.8 <= order[False] <= 1.2


# ------------------------------------------------------------------- plumbing


def test_attribution_sum_is_sum_of_values():
    av = AttributionVector(values=np.array([1.5, -0.5, 2.0]), method="saliency", point=np.zeros(3))
    assert av.attribution_sum == 3.0


def test_csv_row_shape():
    av = attribute(linear_model([2.0, 1.0]), [1.0, 2.0], "saliency")
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
