"""Network tests. The gradient oracle is central finite differences of the
public predict function, so it exercises normalization and the output
nonlinearity exactly as callers see them."""

import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest

from lpattr.data import generate_dataset
from lpattr.encodings import make_encoding
from lpattr.errors import ConfigurationError, DimensionMismatchError, TrainingDivergenceError, ValidationError
from lpattr.fixtures import lp_box
import lpattr.nn
from lpattr.nn import (
    ACTIVATIONS,
    TILE_ROWS,
    AnalyticModel,
    Model,
    ModelConfig,
    _act,
    _act_deriv,
    accuracy,
    fit_arrays,
    load_model,
    save_model,
    train_model,
)

UNIT_BOX2 = np.array([[0.0, 1.0], [0.0, 1.0]])


def tiny_config(**kw):
    base = dict(depth=3, hidden_width=8, epochs=3, seed=1)
    base.update(kw)
    return ModelConfig(**base)


def small_trained(activation="smooth-softplus", loss="squared-error", seed=1):
    rng = np.random.Generator(np.random.PCG64(99))
    X = rng.uniform(0, 1, size=(256, 2))
    y = (X.sum(axis=1) > 1).astype(float) if loss == "logistic" else np.sin(X[:, 0]) + X[:, 1]
    cfg = tiny_config(activation=activation, loss=loss, seed=seed)
    return fit_arrays(X, y, cfg, UNIT_BOX2)


def fd_gradient(model, x, h=1e-4):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (model.predict(x + e) - model.predict(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("activation", ["smooth-softplus", "tanh", "piecewise-linear"])
def test_gradient_matches_finite_differences(activation):
    model = small_trained(activation=activation)
    rng = np.random.Generator(np.random.PCG64(7))
    for x in rng.uniform(0.05, 0.95, size=(25, 2)):
        got = model.input_gradient(x)
        want = fd_gradient(model, x)
        assert np.abs(got - want).max() <= 1e-3 * (1 + np.abs(want).max())


def test_gradient_matches_finite_differences_logistic():
    model = small_trained(loss="logistic")
    rng = np.random.Generator(np.random.PCG64(8))
    for x in rng.uniform(0.05, 0.95, size=(25, 2)):
        got = model.input_gradient(x)
        want = fd_gradient(model, x)
        assert np.abs(got - want).max() <= 1e-3 * (1 + np.abs(want).max())


def test_gradient_respects_input_normalization():
    # same data expressed in a 10x wider box must give the same function of
    # the original coordinates, hence 10x smaller gradient per unit
    rng = np.random.Generator(np.random.PCG64(12))
    X = rng.uniform(0, 1, size=(128, 2))
    y = X[:, 0] * 2
    m1 = fit_arrays(X, y, tiny_config(), UNIT_BOX2)
    m2 = fit_arrays(X * 10, y, tiny_config(), UNIT_BOX2 * 10)
    x = np.array([0.4, 0.7])
    np.testing.assert_allclose(m1.predict(x), m2.predict(x * 10), atol=1e-12)
    np.testing.assert_allclose(m1.input_gradient(x), m2.input_gradient(x * 10) * 10, atol=1e-9)


def test_constant_target_learned():
    rng = np.random.Generator(np.random.PCG64(21))
    X = rng.uniform(0, 1, size=(2000, 2))
    y = np.full(2000, 0.37)
    model = fit_arrays(X, y, ModelConfig(seed=1), UNIT_BOX2)
    held = rng.uniform(0, 1, size=(100, 2))
    assert np.abs(model.predict_many(held) - 0.37).max() <= 0.01


def test_zero_weight_model_zero_gradient():
    cfg = tiny_config()
    model = Model(
        weights=[np.zeros((8, 2)), np.zeros((8, 8)), np.zeros((1, 8))],
        biases=[np.zeros(8), np.zeros(8), np.zeros(1)],
        config=cfg,
        input_dim=2,
        bbox=UNIT_BOX2,
    )
    np.testing.assert_array_equal(model.input_gradient([0.3, 0.4]), [0.0, 0.0])


def test_logistic_predictions_in_unit_interval():
    model = small_trained(loss="logistic")
    rng = np.random.Generator(np.random.PCG64(31))
    p = model.predict_many(rng.uniform(-2, 3, size=(200, 2)))
    assert (p >= 0).all() and (p <= 1).all()


def test_logistic_requires_binary_targets():
    X = np.zeros((10, 2))
    y = np.linspace(0, 2, 10)
    with pytest.raises(ConfigurationError):
        fit_arrays(X, y, tiny_config(loss="logistic"), UNIT_BOX2)


def test_depth_counts_weight_layers():
    model = small_trained()
    assert len(model.weights) == model.config.depth
    assert model.weights[0].shape == (8, 2)
    assert model.weights[-1].shape == (1, 8)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(depth=1)
    with pytest.raises(ConfigurationError):
        ModelConfig(activation="swish")
    with pytest.raises(ConfigurationError):
        ModelConfig(loss="hinge")
    with pytest.raises(ConfigurationError):
        ModelConfig(momentum=1.0)
    for rate in (np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            ModelConfig(learning_rate=rate)


def test_dimension_mismatch():
    analytic = AnalyticModel(fn=lambda X: X[:, 0], grad=lambda X: np.ones_like(X), input_dim=2)
    for model in (small_trained(), analytic):
        with pytest.raises(ValidationError):
            model.predict([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            model.input_gradient([1.0])


@pytest.mark.parametrize("rows", [1, 2])
def test_one_point_queries_reject_batches(rows):
    # a batch, even of one row, is not a point: no answer for its first row
    analytic = AnalyticModel(fn=lambda X: X[:, 0], grad=lambda X: np.ones_like(X), input_dim=2)
    X = np.array([[0.3, 0.4], [0.6, 0.1]])[:rows]
    for model in (small_trained(), analytic):
        with pytest.raises(DimensionMismatchError):
            model.predict(X)
        with pytest.raises(DimensionMismatchError):
            model.input_gradient(X)


@pytest.mark.parametrize("activation", ["smooth-softplus", "tanh", "piecewise-linear"])
def test_queries_and_training_leave_inputs_unchanged(activation):
    # the activation is computed in place; only arrays the pass made may change
    rng = np.random.Generator(np.random.PCG64(17))
    box = np.array([[0.0, 2.0], [-1.0, 1.0]])  # normalization is not the identity
    X = rng.uniform(box[:, 0], box[:, 1], size=(64, 2))
    y = np.sin(X[:, 0]) + X[:, 1]
    bbox = box.copy()
    X0, y0 = X.copy(), y.copy()
    model = fit_arrays(X, y, tiny_config(activation=activation), bbox, val_X=X, val_y=y)
    params = [p.copy() for p in model.weights + model.biases]
    model.predict_many(X)
    model.input_gradient_many(X)
    np.testing.assert_array_equal(X, X0)
    np.testing.assert_array_equal(y, y0)
    np.testing.assert_array_equal(bbox, box)
    np.testing.assert_array_equal(model.bbox, box)
    for p, p0 in zip(model.weights + model.biases, params):
        np.testing.assert_array_equal(p, p0)


def random_model(activation, loss, n, seed=23):
    gen = np.random.Generator(np.random.PCG64(seed))
    sizes = [n, 64, 64, 64, 1]
    weights = [gen.normal(0.0, 1.0 / np.sqrt(a), size=(b, a)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [gen.normal(0.0, 0.1, size=b) for b in sizes[1:]]
    cfg = ModelConfig(depth=len(weights), hidden_width=64, activation=activation, loss=loss)
    return Model(weights, biases, cfg, n, np.column_stack([np.full(n, -1.0), np.full(n, 2.0)]))


def lane_count(monkeypatch, lanes):
    # lanes share the CPUs with BLAS threads; BLAS read its variable at load,
    # so setting it here changes only the lane count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(lanes)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.mark.parametrize("loss, n", [("squared-error", 2), ("logistic", 5)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_rows_do_not_depend_on_the_call(activation, loss, n, monkeypatch):
    model = random_model(activation, loss, n)
    X = np.random.Generator(np.random.PCG64(5)).uniform(-1.0, 2.0, size=(600, n))
    pred, grad = model.predict_many(X), model.input_gradient_many(X)
    for rows in (1, 63, 64, 65, 255, 256, 257, 513):
        for start in sorted({0, 1, 37, 600 - rows} & set(range(601 - rows))):
            np.testing.assert_array_equal(model.predict_many(X[start : start + rows]), pred[start : start + rows])
            np.testing.assert_array_equal(model.input_gradient_many(X[start : start + rows]),
                                          grad[start : start + rows])
    assert model.predict(X[7]) == pred[7]
    assert model.predict_many(X[:0]).shape == (0,)
    assert model.input_gradient_many(X[:0]).shape == (0, n)

    seen, lock = [], threading.Lock()
    forward = lpattr.nn._forward

    def recording(weights, biases, act, layers, scratch):
        with lock:
            seen.append(layers[0].shape)
        return forward(weights, biases, act, layers, scratch)

    monkeypatch.setattr(lpattr.nn, "_forward", recording)
    lane_count(monkeypatch, 3)
    for rows in (1, 256, 257, 600):
        model.predict_many(X[:rows])
        model.input_gradient_many(X[:rows])
    assert set(seen) == {(TILE_ROWS, n)} and len(seen) == 2 * (1 + 1 + 2 + 3)


def test_lanes_share_the_cpus_with_blas_threads(monkeypatch):
    # OpenBLAS runs one thread per CPU unless told otherwise; lanes take what
    # its threads leave, and a call never has more lanes than tiles
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    for env, tiles, want in (({}, 10, 1), ({"OPENBLAS_NUM_THREADS": "0"}, 10, 1),
                             ({"OPENBLAS_NUM_THREADS": "4"}, 10, 1), ({"OMP_NUM_THREADS": "2"}, 10, 2),
                             ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 10, 4),
                             ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3), ({"OPENBLAS_NUM_THREADS": "1"}, 0, 1)):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert lpattr.nn._lanes(tiles) == want, (env, tiles)


@pytest.mark.parametrize("loss, n", [("squared-error", 2), ("logistic", 5)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_rows_do_not_depend_on_the_lanes(activation, loss, n, monkeypatch):
    # tiles are dealt to lanes and nothing is summed across tiles, so one
    # lane and three give the bits of the default lane count
    model = random_model(activation, loss, n)
    X = np.random.Generator(np.random.PCG64(6)).uniform(-1.0, 2.0, size=(600, n))
    calls = [X[:rows] for rows in (1, 257, 600)]
    want = [(model.predict_many(Q), model.input_gradient_many(Q)) for Q in calls]
    for lanes in (1, 3):
        lane_count(monkeypatch, lanes)
        for Q, (pred, grad) in zip(calls, want):
            np.testing.assert_array_equal(model.predict_many(Q), pred)
            np.testing.assert_array_equal(model.input_gradient_many(Q), grad)


def test_a_failing_lane_fails_the_call(monkeypatch):
    # a helper lane's exception is raised by the call, after every lane has
    # joined, instead of returning rows that were never filled
    model = random_model("tanh", "squared-error", 2)
    X = np.random.Generator(np.random.PCG64(8)).uniform(-1.0, 2.0, size=(600, 2))
    forward, on_main = lpattr.nn._forward, []

    def failing(weights, biases, act, layers, scratch):
        on_main.append(threading.current_thread() is threading.main_thread())
        if not on_main[-1]:
            raise FloatingPointError("tile failed on a helper lane")
        return forward(weights, biases, act, layers, scratch)

    lane_count(monkeypatch, 2)
    monkeypatch.setattr(lpattr.nn, "_forward", failing)
    threads = threading.active_count()
    for query in (model.predict_many, model.input_gradient_many):
        with pytest.raises(FloatingPointError, match="helper lane"):
            query(X)
    # tiles 0 and 2 ran in the caller, tile 1 on the helper, in each call
    assert sorted(on_main) == [False, False, True, True, True, True]
    assert threading.active_count() == threads


def test_concurrent_queries_match_serial_ones(monkeypatch):
    # two user threads querying one model at once, each call on three lanes
    # (more threads than this machine's cores) with frequent thread switches,
    # each get the bits of serial calls
    lane_count(monkeypatch, 3)
    model = random_model("smooth-softplus", "logistic", 3)
    X = np.random.Generator(np.random.PCG64(9)).uniform(-1.0, 2.0, size=(2, 900, 3))
    want = [(model.predict_many(Q), model.input_gradient_many(Q)) for Q in X]
    got, start = [[], []], threading.Barrier(2, timeout=60)

    def user(j):
        start.wait()
        for _ in range(4):
            got[j].append((model.predict_many(X[j]), model.input_gradient_many(X[j])))

    users = [threading.Thread(target=user, args=(j,)) for j in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in users:
            t.start()
        for t in users:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in users)
    for results, (pred, grad) in zip(got, want):
        assert len(results) == 4
        for p, g in results:
            np.testing.assert_array_equal(p, pred)
            np.testing.assert_array_equal(g, grad)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_queries_after_a_multi_tile_query(monkeypatch):
    # lanes are threads of one call, not a pool, so a child forked after a
    # multi-lane query finds no half-owned workers and answers its own
    lane_count(monkeypatch, 2)
    model = random_model("piecewise-linear", "squared-error", 2)
    X = np.random.Generator(np.random.PCG64(10)).uniform(-1.0, 2.0, size=(700, 2))
    pred, grad = model.predict_many(X), model.input_gradient_many(X)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            same = (np.array_equal(model.predict_many(X), pred)
                    and np.array_equal(model.input_gradient_many(X), grad))
            code = 0 if same else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its query within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


ACTIVATION_FNS = {
    "smooth-softplus": lambda z: np.logaddexp(0.0, z),
    "tanh": np.tanh,
    "piecewise-linear": lambda z: np.maximum(z, 0.0),
}


KERNEL_Z = np.concatenate([
    [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.0, -709.0, 750.0, -750.0],
    np.random.Generator(np.random.PCG64(13)).standard_normal(10**5),
])


def ulps(got, want):
    return np.max(np.abs(got - want) / np.spacing(np.abs(want)))


def test_softplus_kernel_within_ulps_of_reference():
    h = _act("smooth-softplus", KERNEL_Z.copy(), np.empty_like(KERNEL_Z))
    d = _act_deriv("smooth-softplus", h, np.empty_like(h))
    assert np.isfinite(h).all() and np.isfinite(d).all()
    # measured 2 and 2 ulps here (3 and 2 on a dense grid over [-760, 760]);
    # the sigmoid reference is evaluated in extended precision and rounded once
    assert ulps(h, ACTIVATION_FNS["smooth-softplus"](KERNEL_Z)) <= 4
    zl = KERNEL_Z.astype(np.longdouble)
    assert ulps(d, (1 / (1 + np.exp(-zl))).astype(float)) <= 4


@pytest.mark.parametrize("activation, deriv", [
    ("tanh", lambda z: 1.0 - np.tanh(z) ** 2),
    ("piecewise-linear", lambda z: (z > 0).astype(float)),
])
def test_exact_activation_kernels_match_references(activation, deriv):
    h = _act(activation, KERNEL_Z.copy(), np.empty_like(KERNEL_Z))
    d = _act_deriv(activation, h, np.empty_like(h))
    assert np.isfinite(h).all() and np.isfinite(d).all()
    np.testing.assert_array_equal(h, ACTIVATION_FNS[activation](KERNEL_Z))
    np.testing.assert_array_equal(d, deriv(KERNEL_Z))


def network_outputs(weights, biases, X, activation):
    """Last-layer outputs by an independent forward pass (unit box: no normalization)."""
    h = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = h @ W.T + b
        if i < len(weights) - 1:
            h = ACTIVATION_FNS[activation](h)
    return h[:, 0]


def batch_loss(weights, biases, X, y, activation, loss):
    """Training loss of the network_outputs."""
    out = network_outputs(weights, biases, X, activation)
    if loss == "logistic":
        return np.mean(np.logaddexp(0.0, out) - y * out)
    return np.mean((out - y) ** 2)


@pytest.mark.parametrize("loss", ["squared-error", "logistic"])
@pytest.mark.parametrize("activation", ["smooth-softplus", "tanh", "piecewise-linear"])
def test_training_step_applies_loss_gradient(activation, loss):
    # each full-batch step moves each parameter by -lr * dL/dp plus momentum
    # times its previous move: one step without momentum, two steps at 0.9;
    # a step at lr=1e-300 leaves the initial parameters in place
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.uniform(0, 1, size=(32, 2))
    y = (X.sum(axis=1) > 1).astype(float) if loss == "logistic" else np.sin(3 * X[:, 0]) + X[:, 1]
    lr = 1e-2

    def steps(rate, momentum, epochs):
        cfg = tiny_config(hidden_width=6, activation=activation, loss=loss, learning_rate=rate,
                          momentum=momentum, epochs=epochs, batch_size=len(X), seed=2)
        return fit_arrays(X, y, cfg, UNIT_BOX2)

    eps = 1e-6

    def loss_gradient(model, name, layer, idx):
        losses = []
        for sign in (1.0, -1.0):
            params = {"weights": [W.copy() for W in model.weights], "biases": [b.copy() for b in model.biases]}
            params[name][layer][idx] += sign * eps
            losses.append(batch_loss(params["weights"], params["biases"], X, y, activation, loss))
        return (losses[0] - losses[1]) / (2 * eps)

    pick = np.random.Generator(np.random.PCG64(3))
    for momentum, epochs in ((0.0, 1), (0.9, 2)):
        models = [steps(1e-300, momentum, 1)] + [steps(lr, momentum, k) for k in range(1, epochs + 1)]
        for name, layer, _ in itertools.product(("weights", "biases"), range(models[0].config.depth), range(3)):
            idx = tuple(int(pick.integers(s)) for s in getattr(models[0], name)[layer].shape)
            moves = [getattr(b, name)[layer][idx] - getattr(a, name)[layer][idx] for a, b in zip(models, models[1:])]
            for k, move in enumerate(moves):
                applied = (momentum * (moves[k - 1] if k else 0.0) - move) / lr
                want = loss_gradient(models[k], name, layer, idx)
                # measured worst relative error 6e-8 over these cases
                assert abs(applied - want) <= 1e-6 * (1e-3 + abs(want)), (momentum, k, name, layer, idx)


def test_logistic_val_loss_is_the_training_loss_of_the_logits():
    # validation uses the training loss of the logits, so a far-out row the
    # model gets confidently wrong counts in full, not capped near 27.6 as a
    # clipped cross-entropy of the sigmoid outputs would
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.uniform(0, 1, size=(64, 2))
    y = (X.sum(axis=1) > 1).astype(float)
    cfg = tiny_config(loss="logistic", epochs=5)
    val_X = np.array([[0.5, 0.5], [1000.0, -1000.0]])  # the second row far outside the unit box
    plain = fit_arrays(X, y, cfg, UNIT_BOX2)
    logits = network_outputs(plain.weights, plain.biases, val_X, "smooth-softplus")
    assert abs(logits[1]) > 100
    val_y = (logits < 0).astype(float)  # both rows labelled wrong
    model = fit_arrays(X, y, cfg, UNIT_BOX2, val_X=val_X, val_y=val_y)
    want = batch_loss(model.weights, model.biases, val_X, val_y, "smooth-softplus", "logistic")
    assert want > 50
    assert model.training_summary["val_loss"] == pytest.approx(want, rel=1e-12)


def test_divergence_raises_with_state():
    rng = np.random.Generator(np.random.PCG64(41))
    X = rng.uniform(0, 1, size=(64, 2))
    y = rng.uniform(0, 1, size=64)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError) as exc:
        fit_arrays(X, y, tiny_config(learning_rate=1e9, epochs=50), UNIT_BOX2)
    assert exc.value.last_state is not None


def test_training_determinism(tmp_path):
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "boundary-distance"), 400, seed=3)
    cfg = tiny_config(epochs=2)
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(train_model(ds, cfg), p1)
    save_model(train_model(ds, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_round_trip(tmp_path):
    model = small_trained()
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    rng = np.random.Generator(np.random.PCG64(51))
    X = rng.uniform(0, 1, size=(50, 2))
    np.testing.assert_array_equal(model.predict_many(X), back.predict_many(X))
    np.testing.assert_array_equal(model.input_gradient_many(X), back.input_gradient_many(X))
    assert back.config == model.config
    assert back.training_summary.keys() == model.training_summary.keys()


def test_train_model_uses_split_and_reports():
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 1000, seed=5)
    model = train_model(ds, tiny_config(epochs=5))
    assert "train_loss" in model.training_summary
    assert "val_loss" in model.training_summary
    assert "val_accuracy" in model.training_summary


def test_accuracy_helper():
    model = AnalyticModel(fn=lambda X: X[:, 0], grad=lambda X: np.ones_like(X), input_dim=2)
    X = np.array([[0.9, 0.0], [0.1, 0.0], [0.8, 0.0], [0.2, 0.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    assert accuracy(model, X, y) == pytest.approx(0.5)


def test_analytic_model_interface():
    m = AnalyticModel(fn=lambda X: X[:, 0] ** 2, grad=lambda X: np.column_stack([2 * X[:, 0], np.zeros(len(X))]), input_dim=2)
    assert m.predict([3.0, 1.0]) == pytest.approx(9.0)
    np.testing.assert_allclose(m.input_gradient([3.0, 1.0]), [6.0, 0.0])
