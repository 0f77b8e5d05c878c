"""A small dense network trained by minibatch gradient descent, numpy only.

Design points that the rest of the package leans on:

- determinism: given the same dataset and config, training touches the same
  numbers in the same order, so saved models are byte-identical;
- points: shapes are checked by lp.as_points, and by lp.as_point in the
  one-point predict and input_gradient, which reject a batch;
- exact gradients: input_gradient is reverse-mode differentiation of the
  same forward pass predict uses, including the input normalization and,
  for logistic models, the output sigmoid;
- normalization: inputs are scaled to [0,1] per box dimension internally,
  while predictions and gradients are reported in original coordinates;
- fixed tiles: Model queries run zero-padded TILE_ROWS-row passes; BLAS
  rounds by call shape, so a row's output then ignores the call it is in;
- lanes: a query deals its tiles round-robin to lanes, at most one per tile
  and one per CPU it may run on (len(os.sched_getaffinity(0))) after each
  lane's BLAS threads. Lanes that share a multi-threaded BLAS wait on its
  pool and run slower than one lane, and these matrices are too small for
  BLAS threads to pay, so a query uses every CPU when BLAS runs one thread
  (OPENBLAS_NUM_THREADS=1) and one lane under BLAS's default of one thread
  per CPU. Lane 0 is the caller; the others are threads started and joined
  inside the call, and a lane's exception is raised by the call once every
  lane has joined. Each tile writes only its own rows of the output and
  nothing is summed across tiles, so the bits ignore the lane count and the
  schedule. Threads live only as long as their call, not in a pool whose
  workers a fork leaves behind, so a forked child queries like its parent;
- workspaces: each lane allocates one block of buffers per call (the input
  tile, each layer's output, an activation scratch and two delta buffers
  the backward pass alternates between) and every pass writes into them, so
  a tile allocates no layer-sized array and takes no page faults once the
  heap holds a block of that size. Training runs its minibatches through
  the same two passes with a workspace of its own.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, check_bbox
from .errors import ConfigurationError, TrainingDivergenceError, ValidationError, malformed_file
from .lp import as_point, as_points
from .seeding import rng
from .serialize import canonical_json

ACTIVATIONS = ("smooth-softplus", "tanh", "piecewise-linear")
LOSSES = ("squared-error", "logistic")

_MAGIC = b"LPATTR-MODEL-1\n"
TILE_ROWS = 256  # rows per network pass in Model queries


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 7  # number of weight layers, input to scalar output
    hidden_width: int = 64
    activation: str = "smooth-softplus"
    loss: str = "squared-error"
    # 3e-2 is the smallest rate (of the tested decades) at which most seeds
    # leave the constant-predictor plateau of deep softplus stacks within 30
    # epochs; 3 of 30 box boundary-distance seeds still stay on it
    learning_rate: float = 3e-2
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.depth < 2:
            raise ConfigurationError("depth must be >= 2 (at least one hidden layer)")
        if self.hidden_width < 1:
            raise ConfigurationError("hidden_width must be positive")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"activation must be one of {ACTIVATIONS}")
        if self.loss not in LOSSES:
            raise ConfigurationError(f"loss must be one of {LOSSES}")
        if not math.isfinite(self.learning_rate):
            raise ConfigurationError("learning_rate must be finite")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("learning_rate, epochs, batch_size must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError("momentum must be in [0, 1)")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _act(kind: str, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Activation of a pre-activation array, written into its buffer; ``tmp``
    is scratch of z's shape."""
    if kind == "smooth-softplus":
        e = np.exp(np.negative(np.abs(z, out=tmp), out=tmp), out=tmp)
        return np.add(np.maximum(z, 0.0, out=z), np.log1p(e, out=e), out=z)
    if kind == "tanh":
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _act_deriv(kind: str, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Activation derivative, taken from the layer output h = _act(z) and
    written into ``out``."""
    if kind == "smooth-softplus":
        # 1 - exp(-softplus(z)) = sigmoid(z)
        return np.negative(np.expm1(np.negative(h, out=out), out=out), out=out)
    if kind == "tanh":
        return np.subtract(1.0, np.square(h, out=out), out=out)
    return np.greater(h, 0.0, out=out)


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """A contiguous array of ``shape`` over the start of the flat ``buf``."""
    return buf[: shape[0] * shape[1]].reshape(shape)


def _lanes(tiles: int) -> int:
    """Lanes for a query of ``tiles`` tiles: the CPUs this process may run on,
    shared with the threads of each BLAS call. OpenBLAS takes its thread count
    from these variables when numpy loads it, and one per CPU by default."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or ""
    per_lane = int(blas) if blas.isdigit() and int(blas) > 0 else cpus
    return max(1, min(cpus // per_lane, tiles))


class _Workspace:
    """Buffers for passes of up to ``rows`` rows: ``layers`` holds the input
    and each layer's output; ``scratch`` and the two ``deltas`` are flat and
    viewed at the shape each step needs. All are views of one block, which
    glibc keeps for the next call of the same size; freed arrays of a
    layer's size go back to the OS and fault in again."""

    def __init__(self, weights, rows: int):
        sizes = [weights[0].shape[1]] + [W.shape[0] for W in weights]
        lengths = [rows * k for k in sizes] + [rows * max(sizes)] * 3
        parts = np.split(np.empty(sum(lengths)), np.cumsum(lengths)[:-1])
        self.layers = [p.reshape(rows, k) for p, k in zip(parts, sizes)]
        self.scratch, *self.deltas = parts[len(sizes) :]


def _forward(weights, biases, activation: str, layers, scratch):
    """Fill layers[1:] with each layer's output from the input in layers[0]
    and return the last; the last layer is linear."""
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = np.matmul(layers[i], W.T, out=layers[i + 1])
        z += b
        if i != last:
            _act(activation, z, _view(scratch, z.shape))
    return z


def _backward(weights, activation: str, layers, g: np.ndarray, scratch, deltas):
    """Given g = d(out)/d(last pre-activation) and the layers filled by
    _forward, yield d(out)/d(pre-activation) per layer, last layer first,
    then d(out)/d(input).

    Each step writes into the delta buffer the yielded delta is not in, so a
    delta holds until the step after it. Each layer's weights are read before
    its delta is yielded, so a caller may replace ``weights[i]`` once it has
    seen layer i.
    """
    last = len(weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            g *= _act_deriv(activation, layers[i + 1], _view(scratch, g.shape))
        W = weights[i]
        yield g
        g = np.matmul(g, W, out=_view(deltas[i % 2], (len(g), W.shape[1])))
    yield g


class _PointQueries:
    """One-point wrappers shared by both model kinds; a batch raises."""

    def predict(self, x) -> float:
        return float(self.predict_many(as_point(x, self.input_dim))[0])

    def input_gradient(self, x) -> np.ndarray:
        return self.input_gradient_many(as_point(x, self.input_dim))[0]


@dataclass
class Model(_PointQueries):
    """Trained network. ``bbox`` holds the normalization box; weights map the
    normalized input through depth-1 hidden layers to one output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: ModelConfig
    input_dim: int
    bbox: np.ndarray  # (n, 2)
    training_summary: dict = field(default_factory=dict)

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        lo, hi = self.bbox[:, 0], self.bbox[:, 1]
        return (X - lo) / (hi - lo)

    def _tiled(self, X, width: int, fill) -> np.ndarray:
        """(N, width) rows of ``fill(ws, rows)``, which writes the output rows
        of the normalized tile in ``ws.layers[0]`` into ``rows``. The
        zero-padded TILE_ROWS-row tiles are dealt round-robin to the lanes."""
        X = as_points(X, self.input_dim)
        out = np.empty((len(X), width))
        starts = range(0, len(X), TILE_ROWS)
        lanes = _lanes(len(starts))
        failures = []

        def lane(j):
            try:
                ws = _Workspace(self.weights, TILE_ROWS)
                tile = ws.layers[0]
                for s in starts[j::lanes]:
                    k = min(TILE_ROWS, len(X) - s)
                    tile[:k], tile[k:] = self._normalize(X[s : s + k]), 0.0
                    fill(ws, out[s : s + k])
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=lane, args=(j,)) for j in range(1, lanes)]
        for t in threads:
            t.start()
        lane(0)
        for t in threads:
            t.join()
        if failures:
            raise failures[0]
        return out

    def _predict_tile(self, ws: _Workspace, rows: np.ndarray) -> None:
        top = _forward(self.weights, self.biases, self.config.activation, ws.layers, ws.scratch)
        rows[:] = top[: len(rows)]

    def _gradient_tile(self, ws: _Workspace, rows: np.ndarray) -> None:
        act = self.config.activation
        top = _forward(self.weights, self.biases, act, ws.layers, ws.scratch)
        g = np.ones((len(top), 1))
        if self.config.loss == "logistic":
            s = _sigmoid(top)
            g = s * (1.0 - s)
        *_, grad = _backward(self.weights, act, ws.layers, g, ws.scratch, ws.deltas)
        np.divide(grad[: len(rows)], self.bbox[:, 1] - self.bbox[:, 0], out=rows)

    def predict_many(self, X) -> np.ndarray:
        out = self._tiled(X, 1, self._predict_tile)
        return (_sigmoid(out) if self.config.loss == "logistic" else out)[:, 0]

    def input_gradient_many(self, X) -> np.ndarray:
        """dF/dx rows, in original (unnormalized) coordinates."""
        return self._tiled(X, self.input_dim, self._gradient_tile)


@dataclass
class AnalyticModel(_PointQueries):
    """Closed-form stand-in with the same query surface as Model, used to pin
    attribution semantics; untiled, since its formulas are row-wise."""

    fn: callable
    grad: callable
    input_dim: int
    bbox: np.ndarray | None = None  # defaults to the unit box

    def __post_init__(self):
        if self.bbox is None:
            self.bbox = np.tile([0.0, 1.0], (self.input_dim, 1))
        else:
            self.bbox = np.asarray(self.bbox, dtype=float)

    def predict_many(self, X) -> np.ndarray:
        return np.asarray(self.fn(as_points(X, self.input_dim)), dtype=float)

    def input_gradient_many(self, X) -> np.ndarray:
        return np.asarray(self.grad(as_points(X, self.input_dim)), dtype=float)


def _layer_sizes(input_dim: int, config: ModelConfig) -> list[int]:
    return [input_dim] + [config.hidden_width] * (config.depth - 1) + [1]


def _init_layers(input_dim: int, config: ModelConfig, gen: np.random.Generator):
    sizes = _layer_sizes(input_dim, config)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(gen.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _loss(kind: str, out: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean loss of the network outputs ``out`` (logits for logistic models)
    against ``y``, and the gradient of the summed loss with respect to ``out``."""
    if kind == "logistic":
        # binary cross-entropy via logaddexp for stability
        return float(np.mean(np.logaddexp(0.0, out) - y * out)), _sigmoid(out) - y
    return float(np.mean((out - y) ** 2)), 2.0 * (out - y)


def fit_arrays(X, y, config: ModelConfig, bbox, val_X=None, val_y=None) -> Model:
    """Train on raw arrays. ``bbox`` fixes the input normalization."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValidationError("X must be (N, n) with matching nonempty y")
    bbox = check_bbox(bbox, X.shape[1])
    if config.loss == "logistic" and not np.isin(y, (0.0, 1.0)).all():
        raise ConfigurationError("logistic loss requires {0,1} targets")

    shuffle_rng = rng(config.seed, 1)
    weights, biases = _init_layers(X.shape[1], config, rng(config.seed, 0))
    model = Model(weights=weights, biases=biases, config=config, input_dim=X.shape[1], bbox=bbox)

    Z = model._normalize(X)
    act = config.activation
    vel_W = [np.zeros_like(W) for W in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    n_samples = X.shape[0]
    ws = _Workspace(weights, min(config.batch_size, n_samples))
    train_loss = np.nan

    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n_samples)
        epoch_loss = 0.0
        for start in range(0, n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            k = len(idx)
            layers = [a[:k] for a in ws.layers]
            layers[0][:], yb = Z[idx], y[idx]
            out = _forward(weights, biases, act, layers, ws.scratch)[:, 0]
            loss, grad = _loss(config.loss, out, yb)
            delta = grad[:, None] / k
            if not np.isfinite(loss):
                raise TrainingDivergenceError(
                    "loss became non-finite", last_state={"weights": weights, "biases": biases}
                )
            epoch_loss += loss * k
            deltas = _backward(weights, act, layers, delta, ws.scratch, ws.deltas)
            for i, g in zip(range(len(weights) - 1, -1, -1), deltas):
                vel_W[i] = config.momentum * vel_W[i] - config.learning_rate * (g.T @ layers[i])
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * g.sum(axis=0)
                weights[i] = weights[i] + vel_W[i]
                biases[i] = biases[i] + vel_b[i]
        train_loss = epoch_loss / n_samples

    summary = {"train_loss": train_loss}
    if val_X is not None and len(val_X) > 0:
        out = model._tiled(val_X, 1, model._predict_tile)[:, 0]  # logits for logistic models
        summary["val_loss"] = _loss(config.loss, out, val_y)[0]
        pv = _sigmoid(out) if config.loss == "logistic" else out
        if np.isin(val_y, (0.0, 1.0)).all():
            summary["val_accuracy"] = float(np.mean((pv >= 0.5) == (val_y >= 0.5)))
    model.training_summary = summary
    return model


def train_model(dataset: Dataset, config: ModelConfig) -> Model:
    """Train on the dataset's train split, report losses on its val split."""
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    Xt, yt = dataset.train_arrays()
    Xv, yv = dataset.val_arrays()
    return fit_arrays(Xt, yt, config, dataset.bbox, val_X=Xv, val_y=yv)


def accuracy(model: Model, X, y) -> float:
    """Classification accuracy of predictions thresholded at 0.5 against {0,1} targets."""
    pred = model.predict_many(X) >= 0.5
    return float(np.mean(pred == (np.asarray(y, dtype=float) >= 0.5)))


def save_model(model: Model, path) -> None:
    """Byte-stable container: magic, one JSON header line, then raw
    little-endian float64 array data in header order."""
    arrays = []
    for i, W in enumerate(model.weights):
        arrays.append((f"W{i}", W))
    for i, b in enumerate(model.biases):
        arrays.append((f"b{i}", b))
    arrays.append(("bbox", model.bbox))
    header = {
        "config": asdict(model.config),
        "input_dim": model.input_dim,
        "training_summary": model.training_summary,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(canonical_json(header).encode("utf-8"))
        fh.write(b"\n")
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path) -> Model:
    """Read a model written by save_model; a malformed file raises ValidationError."""
    with open(path, "rb") as fh, malformed_file(path, "model file"):
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValidationError(f"{path} is not a model file")
        header = json.loads(fh.readline().decode("utf-8"))
        config = ModelConfig(**header["config"])
        sizes = _layer_sizes(header["input_dim"], config)
        shapes = {f"W{i}": (sizes[i + 1], sizes[i]) for i in range(config.depth)}
        shapes.update({f"b{i}": (sizes[i + 1],) for i in range(config.depth)}, bbox=(sizes[0], 2))
        # shapes are checked before any read, so a damaged one asks for no bytes
        if {spec["name"]: tuple(spec["shape"]) for spec in header["arrays"]} != shapes:
            raise ValueError(f"array shapes do not fit input_dim {sizes[0]} and the config's layers {sizes}")
        data = {}
        for spec in header["arrays"]:
            buf = fh.read(8 * math.prod(spec["shape"]))
            data[spec["name"]] = np.frombuffer(buf, dtype="<f8").reshape(spec["shape"]).copy()
        if not all(np.isfinite(a).all() for a in data.values()):
            raise ValueError("an array holds a non-finite number")
        return Model(
            weights=[data[f"W{i}"] for i in range(config.depth)],
            biases=[data[f"b{i}"] for i in range(config.depth)],
            config=config,
            input_dim=header["input_dim"],
            bbox=check_bbox(data["bbox"], sizes[0]),
            training_summary=header["training_summary"],
        )
