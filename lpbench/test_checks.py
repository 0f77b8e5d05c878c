"""Each correctness check of the benchmark accepts a right output and
rejects a deliberately wrong one.

Run from the repository root: ``python -m pytest lpbench -q``.
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
from lpattr.fixtures import lp_5d, random_positive_lp  # noqa: E402
from lpattr.grid import GridSpec, grid_attribution, save_grid_result, verify_grid_files  # noqa: E402
from lpattr.lp import enumerate_vertices, project_feasible_many, vertex_bbox  # noqa: E402
from lpattr.nn import AnalyticModel  # noqa: E402
from lpattr.render import render_heatmap  # noqa: E402
from tracing import Tracer  # noqa: E402

LP = random_positive_lp(3, 4, 3)


def _points(lp, count, seed=0):
    bbox = vertex_bbox(lp)
    return np.random.default_rng(seed).uniform(bbox[:, 0], bbox[:, 1], size=(count, lp.n))


def _outside(lp, count):
    X = _points(lp, 20 * count)
    return X[oracles.feasibility_labels(lp.A, lp.b, X) == 0][:count]


def _smooth():
    """F(x) = sin(x1) + x1 x2 with its exact gradient."""
    return AnalyticModel(
        fn=lambda X: np.sin(X[:, 0]) + X[:, 0] * X[:, 1],
        grad=lambda X: np.column_stack([np.cos(X[:, 0]) + X[:, 1], X[:, 0]]),
        input_dim=2,
        bbox=np.array([[0.0, 2.0], [0.0, 3.0]]),
    )


# ------------------------------------------------------------------ geometry


def test_brute_vertices_match_the_program():
    for lp in (LP, lp_5d()):
        assert checks.vertices("lp", enumerate_vertices(lp).vertices, lp.A, lp.b) == []


def test_vertex_check_rejects_missing_and_moved_vertices():
    V = enumerate_vertices(LP).vertices
    assert checks.vertices("lp", V[1:], LP.A, LP.b)
    moved = V.copy()
    moved[-1, 0] += 1e-4
    assert checks.vertices("lp", moved, LP.A, LP.b)


def test_projection_certificate_rejects_a_perturbed_projection():
    V = oracles.brute_vertices(LP.A, LP.b)
    X = _outside(LP, 30)
    P = project_feasible_many(LP, X)
    assert checks.projections("lp", LP.A, LP.b, V, X, P) == []
    # a feasible point slightly off the projection, and an infeasible one
    assert checks.projections("lp", LP.A, LP.b, V, X, 0.999 * P)
    assert checks.projections("lp", LP.A, LP.b, V, X, P + 1e-3)


def test_slack_labels_reject_flipped_and_shifted_labels():
    X = _points(LP, 200)
    y = oracles.min_slack(LP.A, LP.b, X)
    assert checks.slack_labels("d", "boundary-distance", LP.A, LP.b, X, y) == []
    assert checks.slack_labels("d", "boundary-distance", LP.A, LP.b, X, y + 1e-9)
    f = oracles.feasibility_labels(LP.A, LP.b, X)
    assert checks.slack_labels("d", "feasibility", LP.A, LP.b, X, f) == []
    flipped = f.copy()
    flipped[0] = 1.0 - flipped[0]
    assert checks.slack_labels("d", "feasibility", LP.A, LP.b, X, flipped)


def test_vertex_distance_labels_reject_the_origin_kept():
    V = oracles.brute_vertices(LP.A, LP.b)
    X = _points(LP, 200) * 0.1  # near the origin, where keeping it matters
    y = oracles.vertex_distance_labels(oracles.without_origin(V), X)
    assert checks.vertex_distance_labels("d", oracles.without_origin(V), X, y) == []
    assert checks.vertex_distance_labels("d", oracles.without_origin(V), X,
                                         oracles.vertex_distance_labels(V, X))


def test_gain_penalty_labels_reject_a_perturbed_projection():
    from lpattr.encodings import make_encoding

    lp = random_positive_lp(4, 5, 3)
    V = oracles.brute_vertices(lp.A, lp.b)
    X = _points(lp, 300)
    y = make_encoding(lp, "gain-penalty").values(X)
    project = lambda Z: project_feasible_many(lp, Z)  # noqa: E731
    assert checks.gain_penalty_labels("g", lp.A, lp.b, lp.c, V, X, y, project, 20) == []
    assert checks.gain_penalty_labels("g", lp.A, lp.b, lp.c, V, X, y,
                                      lambda Z: 0.99 * project(Z), 20)
    wrong = y.copy()
    wrong[oracles.min_slack(lp.A, lp.b, X) < 0] *= 1.01
    assert checks.gain_penalty_labels("g", lp.A, lp.b, lp.c, V, X, wrong, project, 20)


def test_traits_reject_a_flipped_cell():
    table = {k: dict(v) for k, v in oracles.PAPER_TRAITS.items()}
    assert checks.traits("t", table) == []
    table["gain-penalty"]["continuity"] = False
    assert checks.traits("t", table)


# -------------------------------------------------------------------- models


def test_reported_fit_rejects_shifted_predictions():
    X = _points(LP, 500)
    for labels in (oracles.feasibility_labels, oracles.min_slack):
        y = labels(LP.A, LP.b, X)
        model = lambda Z: labels(LP.A, LP.b, Z) * 0.9 + 0.05  # noqa: E731
        pred = model(X)
        summary = {"val_loss": float(np.mean((pred - y) ** 2))}
        if labels is oracles.feasibility_labels:
            summary["val_accuracy"] = float(np.mean((pred >= 0.5) == (y >= 0.5)))
        assert checks.reported_fit("m", summary, model, X, y) == []
        assert checks.reported_fit("m", summary, lambda Z: model(Z) + 0.6, X, y)


def test_training_step_check_rejects_a_wrong_update():
    from lpattr.nn import ModelConfig, fit_arrays

    X = _points(LP, 32)
    y = oracles.min_slack(LP.A, LP.b, X)
    bbox = vertex_bbox(LP)
    config = ModelConfig(depth=3, hidden_width=8, batch_size=32, learning_rate=0.01)
    states = [fit_arrays(X, y, replace(config, epochs=epochs, learning_rate=lr), bbox)
              for epochs, lr in ((1, 1e-300), (1, 0.01), (2, 0.01))]
    picks = [(layer, kind, 0) for layer in range(3) for kind in ("W", "b")]
    assert checks.training_steps("m", states, 0.01, config.momentum, X, y, picks) == []
    assert checks.training_steps("m", states, 0.01, 0.0, X, y, picks)  # momentum left out
    assert checks.training_steps("m", states[:1] * 2, 0.01, config.momentum, X, y, picks)
    flipped = fit_arrays(X, y, replace(config, epochs=1), bbox)
    flipped.weights[1] = 2 * states[0].weights[1] - states[1].weights[1]
    assert checks.training_steps("m", [states[0], flipped], 0.01, config.momentum, X, y, picks)


def test_gradient_check_rejects_a_flipped_sign():
    m = _smooth()
    X = np.random.default_rng(1).uniform(0.2, 1.8, size=(40, 2))
    assert checks.gradients("m", m.predict_many, m.input_gradient_many, X) == []
    assert checks.gradients("m", m.predict_many, lambda Z: -m.input_gradient_many(Z), X)


def test_round_trip_checks_reject_a_changed_copy():
    from lpattr.data import generate_dataset
    from lpattr.encodings import make_encoding
    from lpattr.nn import ModelConfig, fit_arrays

    ds = generate_dataset(LP, make_encoding(LP, "boundary-distance"), 100, seed=1)
    same = generate_dataset(LP, make_encoding(LP, "boundary-distance"), 100, seed=1)
    assert checks.dataset_round_trip("d", ds, same) == []
    same.y[3] += 1e-15
    assert checks.dataset_round_trip("d", ds, same)

    cfg = ModelConfig(depth=2, hidden_width=4, epochs=1)
    model = fit_arrays(ds.X, ds.y, cfg, ds.bbox)
    copy = fit_arrays(ds.X, ds.y, cfg, ds.bbox)
    assert checks.model_round_trip("m", model, copy, ds.X) == []
    copy.weights[0] = copy.weights[0] * (1 + 1e-12)
    assert checks.model_round_trip("m", model, copy, ds.X)


# ----------------------------------------------------------------- attribution


def test_completeness_rejects_a_flipped_attribution_sign():
    from lpattr.attribution import IGConfig, integrated_gradients

    m = _smooth()
    X = np.random.default_rng(2).uniform(0.2, 1.8, size=(20, 2))
    sums = np.array([integrated_gradients(m, x, IGConfig(steps=256)).attribution_sum for x in X])
    f0 = m.predict(np.zeros(2))
    assert checks.completeness("ig", sums, m.predict_many(X), f0) == []
    assert checks.completeness("ig", -sums, m.predict_many(X), f0)


def test_saliency_and_directed_fp_checks_reject_wrong_values():
    from lpattr.attribution import directed_feature_permutation

    m = _smooth()
    X = np.random.default_rng(3).uniform(0.2, 1.8, size=(20, 2))
    g = m.input_gradient_many(X)
    assert checks.saliency_cells("s", g, m.predict_many, X) == []
    assert checks.saliency_cells("s", g[:, ::-1], m.predict_many, X)
    dfp = lambda x: directed_feature_permutation(m, x, 0.1).values  # noqa: E731
    assert checks.directed_fp("d", dfp, m.predict_many, X, 0.1) == []
    assert checks.directed_fp("d", lambda x: dfp(x) * (1 + 1e-6), m.predict_many, X, 0.1)


def test_grid_check_rejects_a_corrupted_file(tmp_path):
    m = _smooth()
    spec = GridSpec(dim_x=0, dim_y=1, x_range=(0.0, 2.0), y_range=(0.0, 3.0),
                    fixed_values=np.zeros(2), resolution=(4, 3))
    save_grid_result(grid_attribution(m, "saliency", spec), tmp_path, "g")
    assert checks.grid_report("g", verify_grid_files(tmp_path, "g")) == []
    path = tmp_path / "g_a1.csv"
    path.write_text(path.read_text().replace("row,col", "row,col ", 1))
    assert checks.grid_report("g", verify_grid_files(tmp_path, "g"))


def test_render_check_rejects_a_colormap_without_sign(tmp_path):
    channel = np.random.default_rng(4).normal(size=(5, 4))
    assert checks.negation_swaps_red_blue("r", render_heatmap, channel, tmp_path) == []
    assert checks.negation_swaps_red_blue(
        "r", lambda mat, p: render_heatmap(np.abs(mat), p), channel, tmp_path)


# ------------------------------------------------------------------- tracing


def test_tracer_sees_from_imports_and_restores_them():
    import lpattr.data
    import lpattr.lp

    orig = lpattr.lp.enumerate_vertices
    tracer = Tracer()
    tracer.install()
    try:
        assert lpattr.data.enumerate_vertices is lpattr.lp.enumerate_vertices
        assert lpattr.lp.enumerate_vertices is not orig
        lpattr.lp.vertex_bbox(LP)
    finally:
        tracer.uninstall()
    assert lpattr.lp.enumerate_vertices is orig and lpattr.data.enumerate_vertices is orig
    names = [s.name for s in tracer.spans]
    assert "lp.enumerate_vertices" in names
    own = tracer.self_times()
    assert all(v >= -1e-9 for v in own.values())


@pytest.mark.parametrize("seed", [0, 7])
def test_sub_seeds_repeat(seed):
    from harness import sub_seed

    assert sub_seed(seed, 1) == sub_seed(seed, 1) != sub_seed(seed, 2)
