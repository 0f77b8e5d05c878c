"""Four feature-attribution methods plus a directed variant.

All methods consume any model exposing predict_many and input_gradient_many;
integrated gradients also reads its smooth_gradient. ``attribute_many``, the
one dispatch, maps a point matrix X (N, n) to (N, n) values; ``attribute`` is
its one-point form, which adds the method tag. All but saliency keep a named
one-point form over it, because lpbench calls or traces those.

- integrated_gradients: path integral of the gradient from a baseline; sums
  to F(x) - F(baseline) up to quadrature error (completeness). The model's
  ``smooth_gradient`` picks the rule: Gauss-Legendre nodes where the
  gradient is analytic along the path, so the error falls exponentially
  with the node count, and the trapezoid rule where it jumps (a
  piecewise-linear net), where Gauss-Legendre gains nothing. Its queries
  span the whole path, the least local method.
- saliency: the raw input gradient, queried at x alone.
- feature_permutation: for each feature, F(x) minus F(x with that feature
  displaced by a uniform random offset), averaged over repeats. Symmetric
  offsets make the expectation vanish on linear regions.
- lime: ridge regression on jointly perturbed samples, centered at
  (x, F(x)); the fitted slope vector is the attribution.
- directed_feature_permutation: central difference per feature, a
  deterministic, sign-carrying variant of feature_permutation.

feature_permutation and lime are random (seeded) and query within radius of
x. ``properties.directedness_test`` measures directedness; for integrated
gradients it is the baseline's trait, as entry i takes the sign of
x_i - x'_i on a model increasing in every feature.

Each core makes one model call per query, with the rows of all its points,
except integrated gradients, which queries the paths of TILE_ROWS points at
a time so that its memory does not grow with N. The model splits rows into
fixed tiles, so a row's output does not depend on the call. Point i draws
its perturbations from its own seed, as a one-point call would, so a
many-point call equals its one-point calls bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RankDeficiencyError
from .nn import TILE_ROWS
from .seeding import rng
from .serialize import digest_of, format_float

METHOD_TAGS = ("integrated-gradients", "saliency", "feature-permutation", "lime")
GL_NODES = 64  # default IG rows per path on a smooth model
TRAPEZOID_INTERVALS = 256  # default on a kinked one: 257 rows per path


@dataclass(frozen=True)
class IGConfig:
    baseline: np.ndarray | None = None  # default: all zeros
    # Gauss-Legendre nodes on a smooth model, trapezoid intervals on a kinked
    # one; None takes the rule's default, GL_NODES or TRAPEZOID_INTERVALS
    steps: int | None = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.baseline is not None:
            object.__setattr__(self, "baseline", np.asarray(self.baseline, dtype=float))


@dataclass(frozen=True)
class PerturbConfig:
    radius: float = 0.1  # max per-coordinate perturbation
    samples: int = 50  # joint perturbations for the local surrogate fit
    repeats: int = 10  # averaging for feature_permutation
    ridge_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and math.isfinite(self.ridge_lambda)):
            raise ConfigurationError("radius and ridge_lambda must be finite")
        if self.radius <= 0:
            raise ConfigurationError("radius must be > 0")
        if self.samples < 1 or self.repeats < 1:
            raise ConfigurationError("samples and repeats must be >= 1")
        if self.ridge_lambda < 0:
            raise ConfigurationError("ridge_lambda must be >= 0")


@dataclass(frozen=True)
class AttributionVector:
    values: np.ndarray  # (n,)
    method: str  # tag plus config digest
    point: np.ndarray  # (n,)

    @property
    def attribution_sum(self) -> float:
        return float(self.values.sum())

    def csv_row(self) -> str:
        cells = [self.method]
        cells += [format_float(v) for v in self.point]
        cells += [format_float(v) for v in self.values]
        cells.append(format_float(self.attribution_sum))
        return ",".join(cells)


DIRECTED = "directed-feature-permutation"


def _predict(model, P: np.ndarray) -> np.ndarray:
    """model.predict_many on points P (..., n) in one call; outputs shaped (...)."""
    return model.predict_many(P.reshape(-1, P.shape[-1])).reshape(P.shape[:-1])


def _ig_rule(model, cfg: IGConfig) -> tuple[str, int]:
    """The quadrature rule integrated gradients uses on ``model``, and its
    node or interval count."""
    if model.smooth_gradient:
        return "gauss-legendre", cfg.steps or GL_NODES
    return "trapezoid", cfg.steps or TRAPEZOID_INTERVALS


def _integrated_gradients(model, X: np.ndarray, cfg: IGConfig) -> np.ndarray:
    """(x_i - x'_i) times the path integral of dF/dx_i from baseline x' to x,
    by the model's rule (_ig_rule), TILE_ROWS points per model call."""
    n = X.shape[1]
    baseline = np.zeros(n) if cfg.baseline is None else cfg.baseline
    if baseline.shape != (n,):
        raise ConfigurationError("baseline dimension mismatch")
    rule, steps = _ig_rule(model, cfg)
    if rule == "gauss-legendre":
        nodes, weights = np.polynomial.legendre.leggauss(steps)  # on [-1, 1]
        alphas, weights = (nodes[:, None] + 1.0) / 2.0, weights[:, None] / 2.0
    else:
        alphas = np.linspace(0.0, 1.0, steps + 1)[:, None]
        weights = np.full((steps + 1, 1), 1.0 / steps)
        weights[0] = weights[-1] = 0.5 / steps
    diff = X - baseline
    out = np.empty_like(diff)
    for s in range(0, len(X), TILE_ROWS):  # TILE_ROWS paths fill len(alphas) whole tiles
        d = diff[s : s + TILE_ROWS]
        path = alphas * d[:, None, :]  # (points, rows per path, n)
        path += baseline
        grads = model.input_gradient_many(path.reshape(-1, n)).reshape(path.shape)
        grads *= weights
        out[s : s + TILE_ROWS] = d * grads.sum(axis=1)
    return out


def _feature_permutation(model, X: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Mean over repeats r of F(x) - F(x with feature i moved by deltas[:, r, i])."""
    N, repeats, n = deltas.shape
    moved = X[:, None, None, :] + deltas[..., None] * np.eye(n)  # (N, repeats, moved feature, n)
    scores = model.predict_many(X)[:, None] - _predict(model, moved.reshape(N, -1, n))
    return scores.reshape(N, repeats, n).mean(axis=1)


def fit_local_slopes(X_offsets: np.ndarray, y_offsets: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Slope vector of the least-squares plane through the origin of the
    centered cloud: solve (X^T X + lambda I) w = X^T y. A stack of clouds
    X (N, samples, n), y (N, samples) gives one slope vector per cloud."""
    X = np.asarray(X_offsets, dtype=float)
    y = np.asarray(y_offsets, dtype=float)
    n = X.shape[-1]
    Xt = np.swapaxes(X, -1, -2)
    gram = Xt @ X
    if ridge_lambda == 0.0 and (np.linalg.matrix_rank(gram) < n).any():
        raise RankDeficiencyError("offset cloud does not span the input space; need lambda > 0 or more samples")
    return np.linalg.solve(gram + ridge_lambda * np.eye(n), Xt @ y[..., None])[..., 0]


def _lime(model, X: np.ndarray, offsets: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Ridge-fit slopes from ``offsets`` (N, samples, n) to output changes, centered at (x, F(x))."""
    y_off = _predict(model, X[:, None, :] + offsets) - model.predict_many(X)[:, None]
    return fit_local_slopes(offsets, y_off, ridge_lambda)


def _directed(model, X: np.ndarray, radius: float) -> np.ndarray:
    """(F(x + d e_i) - F(x - d e_i)) / (2d): deterministic, keeps the sign of
    the local trend, and equals the unregularized local-surrogate fit on the
    same 2n single-feature offsets."""
    step = radius * np.eye(X.shape[1])
    return (_predict(model, X[:, None, :] + step)
            - _predict(model, X[:, None, :] - step)) / (2.0 * radius)


def _draws(method: str, X: np.ndarray, cfg: PerturbConfig, seeds, draws) -> np.ndarray:
    """(N, count, n) perturbations: ``draws``, or point i's feature_permutation
    deltas from rng(seeds[i], 0) or lime offsets from rng(seeds[i], 1)."""
    N, n = X.shape
    if draws is None:
        if method == "lime" and cfg.samples < n:
            raise ConfigurationError("need at least n samples for the local fit")
        key, count = (0, cfg.repeats) if method == "feature-permutation" else (1, cfg.samples)
        draws = [rng(s, key).uniform(-cfg.radius, cfg.radius, size=(count, n))
                 for s in ([cfg.seed] * N if seeds is None else seeds)]
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3 or draws.shape[0] != N or draws.shape[2] != n:
        raise ConfigurationError(f"{method} needs one (count, {n}) draw per point, got shape {draws.shape}")
    return draws


def attribute_many(model, X, method: str, ig_cfg: IGConfig | None = None,
                   perturb_cfg: PerturbConfig | None = None, seeds=None, draws=None) -> np.ndarray:
    """(N, n) attributions of the rows of X. ``seeds[i]`` replaces
    perturb_cfg.seed for point i; ``draws`` (N, count, n) replaces the
    seeded deltas or offsets. The directed variant reads perturb_cfg.radius."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim or not len(X):
        raise ConfigurationError(f"points must have shape (N >= 1, {model.input_dim}), got {X.shape}")
    cfg = perturb_cfg or PerturbConfig()
    if method == "integrated-gradients":
        return _integrated_gradients(model, X, ig_cfg or IGConfig())
    if method == "saliency":
        return model.input_gradient_many(X)
    if method == DIRECTED:
        return _directed(model, X, cfg.radius)
    if method == "feature-permutation":
        return _feature_permutation(model, X, _draws(method, X, cfg, seeds, draws))
    if method == "lime":
        return _lime(model, X, _draws(method, X, cfg, seeds, draws), cfg.ridge_lambda)
    raise ConfigurationError(f"unknown method {method!r}; known: {METHOD_TAGS + (DIRECTED,)}")


def method_settings(method: str, model, ig_cfg: IGConfig | None = None,
                    perturb_cfg: PerturbConfig | None = None, count: int | None = None) -> dict | None:
    """The settings that ``method``'s values on ``model`` depend on, None for
    saliency; for integrated gradients, the rule the model picks and its
    resolved count. ``count`` replaces the configured feature_permutation
    repeats or lime samples."""
    ig_cfg, cfg = ig_cfg or IGConfig(), perturb_cfg or PerturbConfig()
    if method == "integrated-gradients":
        rule, steps = _ig_rule(model, ig_cfg)
        return {"baseline": np.zeros(model.input_dim) if ig_cfg.baseline is None else ig_cfg.baseline,
                "rule": rule, "steps": steps}
    if count is None:
        count = cfg.repeats if method == "feature-permutation" else cfg.samples
    return {
        "saliency": None,
        DIRECTED: {"radius": cfg.radius},
        "feature-permutation": {"radius": cfg.radius, "repeats": count, "seed": cfg.seed},
        "lime": {"radius": cfg.radius, "samples": count, "lambda": cfg.ridge_lambda, "seed": cfg.seed},
    }[method]


def attribute(model, x, method: str, ig_cfg: IGConfig | None = None, perturb_cfg: PerturbConfig | None = None,
              draws=None) -> AttributionVector:
    """One point, tagged with the method and a digest of its settings. ``draws``
    (count, n) replaces the seeded deltas or offsets."""
    x = np.asarray(x, dtype=float)
    draws = None if draws is None else np.asarray(draws, dtype=float)[None]
    values = attribute_many(model, x[None], method, ig_cfg, perturb_cfg, draws=draws)[0]
    fields = method_settings(method, model, ig_cfg, perturb_cfg, None if draws is None else draws.shape[1])
    tag = method if fields is None else f"{method}:{digest_of(fields)[:12]}"
    return AttributionVector(values=values, method=tag, point=x)


def integrated_gradients(model, x, cfg: IGConfig = IGConfig()) -> AttributionVector:
    return attribute(model, x, "integrated-gradients", ig_cfg=cfg)


def feature_permutation(model, x, cfg: PerturbConfig = PerturbConfig(), deltas=None) -> AttributionVector:
    """``deltas`` (repeats, n), or (n,) for one repeat, pins the offsets."""
    return attribute(model, x, "feature-permutation", perturb_cfg=cfg,
                     draws=None if deltas is None else np.atleast_2d(deltas))


def lime(model, x, cfg: PerturbConfig = PerturbConfig(), offsets=None) -> AttributionVector:
    """``offsets`` (samples, n) pins the joint perturbations."""
    return attribute(model, x, "lime", perturb_cfg=cfg, draws=offsets)


def directed_feature_permutation(model, x, radius: float = 0.1) -> AttributionVector:
    return attribute(model, x, DIRECTED, perturb_cfg=PerturbConfig(radius=radius))
