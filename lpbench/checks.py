"""Correctness checks on the program's outputs.

Every check returns a list of problems, empty when the output passes, so a
workload can run them all and report every failure at once. The reference
side of each comparison comes from :mod:`oracles`, which shares no code
with lpattr; the tested side is passed in.
"""

from __future__ import annotations

import os

import numpy as np

import oracles

# Tolerances. Label formulas are recomputed in another summation order, so
# they agree to rounding; projections come from an iterative method that
# stops at 1e-8; the gradient and completeness tolerances are the package's
# own acceptance tolerances.
LABEL_TOL = 1e-12
VERTEX_TOL = 1e-7
PROJECTION_TOL = 1e-7
GAIN_PENALTY_TOL = 1e-6
GRADIENT_H = 1e-4
GRADIENT_TOL = 1e-3
COMPLETENESS_TOL = 1e-3
DIRECTED_FP_TOL = 1e-9
# A training step is recovered from weights that moved by lr * gradient and
# compared with central differences of the loss in the weights.
FORWARD_TOL = 1e-12
STEP_H = 1e-5
STEP_TOL = 1e-6
# The validation loss a model header reports is recomputed in another
# summation order.
LOSS_TOL = 1e-9


def _worst(name: str, values, tol: float) -> list[str]:
    worst = float(np.max(values)) if np.size(values) else 0.0
    return [] if worst <= tol else [f"{name}: worst {worst:.3e} > tol {tol:.0e}"]


# ------------------------------------------------------------------ geometry


def vertices(name: str, got, A, b, oracle=None) -> list[str]:
    oracle = oracles.brute_vertices(A, b) if oracle is None else oracle
    gap = oracles.vertex_mismatch(got, oracle)
    if gap == float("inf"):
        return [f"{name}: {len(got)} vertices, brute force finds {len(oracle)}"]
    return _worst(f"{name} vertices", gap, VERTEX_TOL)


def projections(name: str, A, b, V, X, P) -> list[str]:
    return _worst(f"{name} projection certificate",
                  oracles.projection_certificate(A, b, V, X, P), PROJECTION_TOL)


def slack_labels(name: str, kind: str, A, b, X, y) -> list[str]:
    if kind == "feasibility":
        want = oracles.feasibility_labels(A, b, X)
    elif kind == "boundary-distance":
        want = oracles.min_slack(A, b, X)
    else:
        raise ValueError(f"no slack oracle for {kind!r}")
    err = np.abs(np.asarray(y) - want) / np.maximum(1.0, np.abs(want))
    return _worst(f"{name} {kind} labels", err, LABEL_TOL)


def vertex_distance_labels(name: str, V, X, y) -> list[str]:
    want = oracles.vertex_distance_labels(V, X)
    return _worst(f"{name} vertex-distance labels", np.abs(np.asarray(y) - want), 1e-9)


def gain_penalty_labels(name: str, A, b, c, V, X, y, project_many, sample: int) -> list[str]:
    """Inside rows must carry ``c.x``. On the first ``sample`` outside rows,
    the program's projections must pass the vertex certificate and the
    labels must equal the gain-penalty formula applied to them."""
    X, y = np.asarray(X), np.asarray(y)
    inside = oracles.min_slack(A, b, X) >= -oracles.FEAS_TOL
    problems = _worst(f"{name} inside labels",
                      np.abs(y[inside] - X[inside] @ c) / np.maximum(1.0, np.abs(y[inside])),
                      LABEL_TOL)
    Xo, yo = X[~inside][:sample], y[~inside][:sample]
    if len(Xo) == 0:
        return problems + [f"{name}: no outside rows to certify"]
    P = project_many(Xo)
    problems += projections(name, A, b, V, Xo, P)
    want = np.array([oracles.gain_penalty_label(c, x, p) for x, p in zip(Xo, P)])
    return problems + _worst(f"{name} outside labels", np.abs(yo - want), GAIN_PENALTY_TOL)


def traits(name: str, table: dict) -> list[str]:
    """``table`` maps encoding kind to its row of property verdicts."""
    return [f"{name} {kind}/{prop}: got {table[kind][prop]}, paper says {want}"
            for kind, row in oracles.PAPER_TRAITS.items()
            for prop, want in row.items() if table[kind][prop] != want]


# -------------------------------------------------------------------- models


def reported_fit(name: str, summary: dict, predict_many, X, y) -> list[str]:
    """The squared-error ``val_loss`` (and, for 0/1 targets, ``val_accuracy``)
    in a model's training summary must match the model's predictions on the
    validation rows ``X`` against the oracle labels ``y``."""
    pred = predict_many(X)
    problems = _worst(f"{name} reported val_loss",
                      abs(summary["val_loss"] - float(np.mean((pred - y) ** 2)))
                      / max(summary["val_loss"], 1e-300), LOSS_TOL)
    if "val_accuracy" in summary:
        acc = float(np.mean((pred >= 0.5) == (y >= 0.5)))
        if summary["val_accuracy"] != acc:
            problems.append(f"{name}: reported val_accuracy {summary['val_accuracy']} != {acc}")
    return problems


def training_steps(name: str, states, lr: float, momentum: float, X, y, picks) -> list[str]:
    """``states`` are a network before and after each of a few full-batch
    steps of heavy-ball descent (rate ``lr``, ``momentum``) on the mean
    squared error over ``(X, y)``. The network must compute the oracle's
    forward pass, and each step must move every picked parameter by ``-lr``
    times the central-difference gradient plus ``momentum`` times the
    previous move."""
    last = states[-1]
    problems = _worst(f"{name} forward pass vs oracle",
                      np.abs(last.predict_many(X) - oracles.mlp_forward(last.weights, last.biases,
                                                                        last.bbox, X)),
                      FORWARD_TOL)

    def picked(m):
        params = {"W": m.weights, "b": m.biases}
        return np.array([params[kind][layer].reshape(-1)[i] for layer, kind, i in picks])

    w = [picked(m) for m in states]
    for k in range(len(states) - 1):
        moved = w[k] - w[k + 1] + (momentum * (w[k] - w[k - 1]) if k else 0.0)
        fd = oracles.loss_gradient(states[k].weights, states[k].biases, states[k].bbox, X, y,
                                   picks, STEP_H)
        err = float(np.linalg.norm(moved / lr - fd) / max(np.linalg.norm(fd), 1e-300))
        problems += _worst(f"{name} training step {k + 1} vs central differences", err, STEP_TOL)
    return problems


def gradients(name: str, predict_many, grad_many, X) -> list[str]:
    fd = oracles.central_differences(predict_many, X, GRADIENT_H)
    return _worst(f"{name} gradient vs central differences",
                  oracles.gradient_error(grad_many(X), fd, GRADIENT_H), GRADIENT_TOL)


def same_arrays(name: str, pairs) -> list[str]:
    """Each (label, a, b) pair must hold identical arrays."""
    return [f"{name}: {label} changed in the round trip"
            for label, a, b in pairs
            if np.shape(a) != np.shape(b) or not np.array_equal(a, b)]


def dataset_round_trip(name: str, ds, back) -> list[str]:
    return same_arrays(name, [
        ("X", ds.X, back.X), ("y", ds.y, back.y), ("bbox", ds.bbox, back.bbox),
        ("train_indices", ds.train_indices, back.train_indices),
        ("val_indices", ds.val_indices, back.val_indices),
    ])


def model_round_trip(name: str, model, back, X) -> list[str]:
    pairs = [(f"W{i}", a, b) for i, (a, b) in enumerate(zip(model.weights, back.weights))]
    pairs += [(f"b{i}", a, b) for i, (a, b) in enumerate(zip(model.biases, back.biases))]
    pairs += [("bbox", model.bbox, back.bbox),
              ("predictions", model.predict_many(X), back.predict_many(X))]
    problems = same_arrays(name, pairs)
    if len(model.weights) != len(back.weights) or model.config != back.config:
        problems.append(f"{name}: layer count or config changed in the round trip")
    return problems


# ----------------------------------------------------------------- attribution


def completeness(name: str, attr_sum, f_x, f_base) -> list[str]:
    return _worst(f"{name} completeness",
                  oracles.completeness_residual(attr_sum, f_x, f_base), COMPLETENESS_TOL)


def saliency_cells(name: str, grad_cells, predict_many, X) -> list[str]:
    fd = oracles.central_differences(predict_many, X, GRADIENT_H)
    return _worst(f"{name} saliency vs central differences",
                  oracles.gradient_error(grad_cells, fd, GRADIENT_H), GRADIENT_TOL)


def directed_fp(name: str, directed, predict_many, X, radius: float) -> list[str]:
    """``directed(x)`` must equal the unregularized least-squares slopes on
    the probes ``x +- radius e_i``."""
    n = X.shape[1]
    offsets = np.vstack([radius * np.eye(n), -radius * np.eye(n)])
    worst = 0.0
    for x in X:
        base = predict_many(x[None, :])[0]
        fit = oracles.least_squares_slopes(offsets, predict_many(x[None, :] + offsets) - base)
        worst = max(worst, float(np.abs(directed(x) - fit).max()))
    return _worst(f"{name} directed FP vs least squares", worst, DIRECTED_FP_TOL)


def grid_report(name: str, report: dict) -> list[str]:
    return [] if report.get("ok") is True else [f"{name}: grid files fail verification: {report.get('problems')}"]


def negation_swaps_red_blue(name: str, render, channel, out_dir) -> list[str]:
    """``render(matrix, path)`` of ``-channel`` must be the rendering of
    ``channel`` with red and blue exchanged."""
    images = []
    for sign, tag in ((1.0, "pos"), (-1.0, "neg")):
        path = os.path.join(out_dir, f"negation-{tag}.ppm")
        render(sign * channel, path)
        with open(path, "rb") as fh:
            images.append(oracles.read_ppm_bytes(fh.read()))
    ok = oracles.red_blue_swapped(*images)
    return [] if ok else [f"{name}: negated channel does not swap red and blue"]
