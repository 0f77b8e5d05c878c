"""Independent reference computations for the benchmark's correctness checks.

Nothing in this module imports lpattr. Each oracle recomputes a quantity
from a program's raw arrays (``A``, ``b``, ``c``), from a model's own
predictions, or from file bytes, by a route that shares no code with the
function whose output it checks.
"""

from __future__ import annotations

import itertools

import numpy as np

# Feasibility tolerance of the program's definition: slacks and coordinates
# down to -1e-9 count as feasible.
FEAS_TOL = 1e-9

# The paper's property table: the observable traits of each encoding. The
# vertex-distance row assumes the origin is excluded from the retained
# vertices, as the property table of an all-positive program does.
PAPER_TRAITS = {
    "feasibility": {
        "continuity": False, "distinguish_class": True,
        "distinguish_boundary": False, "boundary_extrema": False,
    },
    "gain-penalty": {
        "continuity": True, "distinguish_class": False,
        "distinguish_boundary": False, "boundary_extrema": True,
    },
    "boundary-distance": {
        "continuity": True, "distinguish_class": True,
        "distinguish_boundary": True, "boundary_extrema": False,
    },
    "abs-boundary-distance": {
        "continuity": True, "distinguish_class": False,
        "distinguish_boundary": True, "boundary_extrema": True,
    },
    "vertex-distance": {
        "continuity": True, "distinguish_class": False,
        "distinguish_boundary": False, "boundary_extrema": True,
    },
}


# ------------------------------------------------------------------ geometry


def brute_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of ``{A x <= b, x >= 0}`` by brute force over every choice
    of ``n`` hyperplanes among the ``m`` rows and the ``n`` axis planes.

    All square systems are solved in one batched call; singular choices are
    dropped by determinant, infeasible solutions by the program's tolerance,
    and duplicates after rounding to 9 decimals. Rows come back in
    lexicographic order.
    """
    m, n = A.shape
    H = np.vstack([A, -np.eye(n)])
    r = np.concatenate([b, np.zeros(n)])
    combos = np.array(list(itertools.combinations(range(m + n), n)))
    M = H[combos]
    rhs = r[combos]
    nonsingular = np.abs(np.linalg.det(M)) > 1e-12
    V = np.linalg.solve(M[nonsingular], rhs[nonsingular][..., None])[..., 0]
    feasible = (V @ A.T <= b + FEAS_TOL).all(axis=1) & (V >= -FEAS_TOL).all(axis=1)
    V = np.round(V[feasible], 9) + 0.0  # + 0.0 turns -0.0 into 0.0
    return np.unique(V, axis=0)


def canonical_rows(V: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order of their 9-decimal rounding, so that float
    noise on an active bound cannot flip the order."""
    V = np.asarray(V, dtype=float)
    return V[np.lexsort((np.round(V, 9) + 0.0).T[::-1])]


def vertex_mismatch(got: np.ndarray, oracle: np.ndarray) -> float:
    """Largest coordinate difference between two vertex sets, or inf when
    their sizes differ."""
    got = canonical_rows(got)
    if got.shape != oracle.shape:
        return float("inf")
    return float(np.abs(got - oracle).max())


def without_origin(V: np.ndarray) -> np.ndarray:
    return V[np.linalg.norm(V, axis=1) > 1e-7]


def min_slack(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``min_i (b_i - A_i x)`` per row of X, one dot product per row and
    constraint."""
    return np.min(b[None, :] - np.einsum("ij,kj->ki", A, X), axis=1)


def feasibility_labels(A, b, X) -> np.ndarray:
    return (min_slack(A, b, X) >= -FEAS_TOL).astype(float)


def vertex_distance_labels(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Distance from each row of X to the nearest row of V."""
    d2 = ((X[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def projection_certificate(A, b, V, X, P) -> np.ndarray:
    """Per-row violation of the optimality certificate of ``P`` as the
    Euclidean projection of ``X`` onto the polytope with vertices ``V``.

    ``p`` is the projection of ``x`` iff ``p`` is feasible and
    ``(x - p) . (v - p) <= 0`` for every point ``v`` of the polytope; the
    left side is linear in ``v``, so checking the vertices suffices. The
    returned value is the larger of the worst feasibility violation and the
    worst inner product, scaled by ``|x - p| * max |v - p|``.
    """
    feas = np.maximum((P @ A.T - b).max(axis=1), (-P).max(axis=1))
    d = X - P
    to_v = V[None, :, :] - P[:, None, :]
    inner = np.einsum("kj,kvj->kv", d, to_v)
    scale = np.linalg.norm(d, axis=1) * np.linalg.norm(to_v, axis=2).max(axis=1)
    vi = inner.max(axis=1) / np.maximum(scale, 1e-300)
    return np.maximum(feas, vi)


def gain_penalty_label(c, x, p) -> float:
    """The gain-penalty value at an infeasible ``x`` whose projection is
    ``p``: ``c.p * (1 - min(1, |x - p| / |p|))``, and 0 when ``p`` is the
    origin."""
    norm_p = float(np.sqrt(p @ p))
    if norm_p <= 1e-12:
        return 0.0
    drift = float(np.sqrt((x - p) @ (x - p)))
    return float(c @ p) * (1.0 - min(1.0, drift / norm_p))


# -------------------------------------------------------------------- models


def mlp_forward(weights, biases, bbox, X: np.ndarray) -> np.ndarray:
    """Output of a squared-error surrogate network: inputs scaled to [0, 1]
    per side of ``bbox``, softplus hidden layers, a linear output layer."""
    h = (X - bbox[:, 0]) / (bbox[:, 1] - bbox[:, 0])
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.logaddexp(0.0, h @ W.T + b)
    return (h @ weights[-1].T + biases[-1])[:, 0]


def loss_gradient(weights, biases, bbox, X, y, picks, h: float) -> np.ndarray:
    """Central differences of the mean squared error over ``(X, y)`` in the
    picked parameters; a pick is ``(layer, "W" or "b", flat index)``."""
    out = []
    for layer, kind, index in picks:
        params = {"W": [W.copy() for W in weights], "b": [b.copy() for b in biases]}
        target = params[kind][layer].reshape(-1)
        losses = []
        for step in (h, -2.0 * h):
            target[index] += step
            losses.append(np.mean((mlp_forward(params["W"], params["b"], bbox, X) - y) ** 2))
        out.append((losses[0] - losses[1]) / (2.0 * h))
    return np.array(out)


def central_differences(predict_many, X: np.ndarray, h: float) -> np.ndarray:
    """``(F(x + h e_i) - F(x - h e_i)) / 2h`` for every row and feature."""
    N, n = X.shape
    eye = np.eye(n)
    plus = (X[:, None, :] + h * eye[None, :, :]).reshape(N * n, n)
    minus = (X[:, None, :] - h * eye[None, :, :]).reshape(N * n, n)
    return ((predict_many(plus) - predict_many(minus)) / (2.0 * h)).reshape(N, n)


def gradient_error(grad: np.ndarray, fd: np.ndarray, h: float) -> np.ndarray:
    """Relative gradient error per row, ``|g - fd| / max(|fd|, |g|, h^2)``."""
    num = np.linalg.norm(grad - fd, axis=1)
    den = np.maximum(np.maximum(np.linalg.norm(fd, axis=1), np.linalg.norm(grad, axis=1)), h * h)
    return num / den


def completeness_residual(attr_sum, f_x, f_base) -> np.ndarray:
    """``|sum a - (F(x) - F(x'))| / max(1, |F(x) - F(x')|)`` elementwise."""
    delta = np.asarray(f_x) - f_base
    return np.abs(np.asarray(attr_sum) - delta) / np.maximum(1.0, np.abs(delta))


def least_squares_slopes(offsets: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Unregularized least-squares plane through the origin of the centred
    probe cloud."""
    return np.linalg.lstsq(offsets, dy, rcond=None)[0]


def r_squared(pred: np.ndarray, target: np.ndarray) -> float:
    resid = float(((pred - target) ** 2).sum())
    total = float(((target - target.mean()) ** 2).sum())
    return 1.0 - resid / total


def cell_centers(x_range, y_range, resolution) -> np.ndarray:
    """Cell-centre points of a 2-feature raster, cell index ``i * H + j``
    for x index ``i`` and y index ``j``."""
    w, h = resolution
    xs = x_range[0] + (np.arange(w) + 0.5) * (x_range[1] - x_range[0]) / w
    ys = y_range[0] + (np.arange(h) + 0.5) * (y_range[1] - y_range[0]) / h
    return np.column_stack([np.repeat(xs, h), np.tile(ys, w)])


# --------------------------------------------------------------------- files


def read_ppm_bytes(data: bytes) -> np.ndarray:
    """Pixels of a binary P6 file with maxval 255 as (H, W, 3) uint8."""
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError("not an 8-bit binary PPM")
    w, h = (int(v) for v in dims.split())
    if len(pixels) != w * h * 3:
        raise ValueError("pixel data has the wrong length")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


def red_blue_swapped(img: np.ndarray, negated: np.ndarray) -> bool:
    """True when ``negated`` is ``img`` with red and blue exchanged and green
    kept, pixel for pixel."""
    return (
        img.shape == negated.shape
        and np.array_equal(img[..., 0], negated[..., 2])
        and np.array_equal(img[..., 2], negated[..., 0])
        and np.array_equal(img[..., 1], negated[..., 1])
    )
