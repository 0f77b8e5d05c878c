"""A small dense network trained by minibatch gradient descent, numpy only.

Design points that the rest of the package leans on:

- determinism: given the same dataset and config, training touches the same
  numbers in the same order, so saved models are byte-identical;
- exact gradients: input_gradient is reverse-mode differentiation of the
  same forward pass predict uses, including the input normalization and,
  for logistic models, the output sigmoid;
- normalization: inputs are scaled to [0,1] per box dimension internally,
  while predictions and gradients are reported in original coordinates;
- fixed tiles: Model queries run zero-padded TILE_ROWS-row passes; BLAS
  rounds by call shape, so a row's output then ignores the call it is in;
- streaming passes: predict_many holds one layer's output at a time and
  input_gradient_many one delta, so a gradient tile peaks near 10 arrays of
  TILE_ROWS x width.
  Passes that return every output and delta as lists peak near 14; glibc
  then hands the freed heap back to the OS after each tile, and the page
  faults of the next tile made a 192-point IG grid 40-50 % slower.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, check_bbox
from .errors import ConfigurationError, TrainingDivergenceError, ValidationError, malformed_file
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
    # epochs; 15 of 60 seeds on the box program still stay on it
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


def _act(kind: str, z: np.ndarray) -> np.ndarray:
    """Activation of a fresh pre-activation array, written into its buffer."""
    if kind == "smooth-softplus":
        e = np.exp(-np.abs(z))
        return np.add(np.maximum(z, 0.0, out=z), np.log1p(e, out=e), out=z)
    if kind == "tanh":
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _act_deriv(kind: str, h: np.ndarray) -> np.ndarray:
    """Activation derivative, taken from the layer output h = _act(z)."""
    if kind == "smooth-softplus":
        return -np.expm1(-h)  # 1 - exp(-softplus(z)) = sigmoid(z)
    if kind == "tanh":
        return 1.0 - h**2
    return h > 0


def _forward(weights, biases, activation: str, h: np.ndarray):
    """Yield each layer's output; the last layer is linear."""
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = h @ W.T + b
        h = z if i == last else _act(activation, z)
        yield h


def _backward(weights, activation: str, outs: list[np.ndarray], g: np.ndarray):
    """Given g = d(out)/d(last pre-activation) and the layer outputs ``outs``
    of _forward, yield d(out)/d(pre-activation) per layer, last layer first,
    then d(out)/d(input).

    Each layer's weights are read before its gradient is yielded, so a caller
    may replace ``weights[i]`` once it has seen layer i.
    """
    last = len(weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            g = g * _act_deriv(activation, outs[i])
        W = weights[i]
        yield g
        g = g @ W
    yield g


def _final(items):
    """Last item of an iterator, holding no earlier one."""
    for item in items:
        pass
    return item


class _PointQueries:
    """Point checks and single-point wrappers shared by both model kinds."""

    def _check_points(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValidationError(f"points must have shape (N, {self.input_dim}), got {X.shape}")
        return X

    def predict(self, x) -> float:
        return float(self.predict_many(x)[0])

    def input_gradient(self, x) -> np.ndarray:
        return self.input_gradient_many(x)[0]


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

    def _tiled(self, X, width: int, fn) -> np.ndarray:
        """(N, width) rows of fn on X's normalized rows, one zero-padded TILE_ROWS-row tile per call."""
        X = self._check_points(X)
        out = np.empty((len(X), width))
        tile = np.zeros((TILE_ROWS, self.input_dim))
        for s in range(0, len(X), TILE_ROWS):
            k = min(TILE_ROWS, len(X) - s)
            tile[:k], tile[k:] = self._normalize(X[s : s + k]), 0.0
            out[s : s + k] = fn(tile)[:k]
        return out

    def _gradient_tile(self, Z: np.ndarray) -> np.ndarray:
        act = self.config.activation
        outs = list(_forward(self.weights, self.biases, act, Z))
        g = np.ones((len(Z), 1))
        if self.config.loss == "logistic":
            s = _sigmoid(outs[-1])
            g = s * (1.0 - s)
        return _final(_backward(self.weights, act, outs, g)) / (self.bbox[:, 1] - self.bbox[:, 0])

    def predict_many(self, X) -> np.ndarray:
        out = self._tiled(X, 1, lambda Z: _final(_forward(self.weights, self.biases, self.config.activation, Z)))
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
        return np.asarray(self.fn(self._check_points(X)), dtype=float)

    def input_gradient_many(self, X) -> np.ndarray:
        return np.asarray(self.grad(self._check_points(X)), dtype=float)


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
    train_loss = np.nan

    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n_samples)
        epoch_loss = 0.0
        for start in range(0, n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            zb, yb = Z[idx], y[idx]
            outs = list(_forward(weights, biases, act, zb))
            inputs = [zb] + outs[:-1]
            out = outs[-1][:, 0]
            k = len(idx)
            if config.loss == "logistic":
                p = _sigmoid(out)
                # binary cross-entropy via logaddexp for stability
                loss = float(np.mean(np.logaddexp(0.0, out) - yb * out))
                delta = (p - yb)[:, None] / k
            else:
                loss = float(np.mean((out - yb) ** 2))
                delta = (2.0 * (out - yb))[:, None] / k
            if not np.isfinite(loss):
                raise TrainingDivergenceError(
                    "loss became non-finite", last_state={"weights": weights, "biases": biases}
                )
            epoch_loss += loss * k
            for i, g in zip(range(len(weights) - 1, -1, -1), _backward(weights, act, outs, delta)):
                vel_W[i] = config.momentum * vel_W[i] - config.learning_rate * (g.T @ inputs[i])
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * g.sum(axis=0)
                weights[i] = weights[i] + vel_W[i]
                biases[i] = biases[i] + vel_b[i]
        train_loss = epoch_loss / n_samples

    summary = {"train_loss": train_loss}
    if val_X is not None and len(val_X) > 0:
        pv = model.predict_many(val_X)
        if config.loss == "logistic":
            eps = 1e-12
            summary["val_loss"] = float(
                -np.mean(val_y * np.log(pv + eps) + (1 - val_y) * np.log(1 - pv + eps))
            )
        else:
            summary["val_loss"] = float(np.mean((pv - val_y) ** 2))
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


def accuracy(model: Model, X, y, threshold: float = 0.5) -> float:
    """Classification accuracy of thresholded predictions against {0,1} targets."""
    pred = model.predict_many(X) >= threshold
    return float(np.mean(pred == (np.asarray(y, dtype=float) >= threshold)))


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
        data = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            buf = fh.read(8 * int(np.prod(shape)))
            data[spec["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        config = ModelConfig(**header["config"])
        sizes = _layer_sizes(header["input_dim"], config)
        shapes = {f"W{i}": (sizes[i + 1], sizes[i]) for i in range(config.depth)}
        shapes.update({f"b{i}": (sizes[i + 1],) for i in range(config.depth)}, bbox=(sizes[0], 2))
        if {name: a.shape for name, a in data.items()} != shapes:
            raise ValueError(f"array shapes do not fit input_dim {sizes[0]} and the config's layers {sizes}")
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
