"""Four per-point feature-attribution methods plus a directed variant.

All methods consume any model exposing predict/predict_many and
input_gradient/input_gradient_many, and return an AttributionVector of one
value per input feature.

- integrated_gradients: path integral of the gradient from a baseline,
  trapezoid quadrature; sums to F(x) - F(baseline) up to quadrature error.
- saliency: the raw input gradient.
- feature_permutation: for each feature, F(x) minus F(x with that feature
  displaced by a uniform random offset), averaged over repeats. Symmetric
  offsets make the expectation vanish on linear regions.
- lime: ridge regression on jointly perturbed samples, centered at
  (x, F(x)); the fitted slope vector is the attribution.
- directed_feature_permutation: central difference per feature, a
  deterministic, sign-carrying variant of feature_permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, RankDeficiencyError
from .seeding import rng
from .serialize import digest_of, format_float

METHOD_TAGS = ("integrated-gradients", "saliency", "feature-permutation", "lime")


@dataclass(frozen=True)
class IGConfig:
    baseline: np.ndarray | None = None  # default: all zeros
    steps: int = 256

    def __post_init__(self):
        if self.steps < 1:
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


def _point(model, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_dim,):
        raise ConfigurationError(f"point must have shape ({model.input_dim},), got {x.shape}")
    return x


def _tagged(tag: str, cfg_fields: dict) -> str:
    return f"{tag}:{digest_of(cfg_fields)[:12]}"


def integrated_gradients(model, x, cfg: IGConfig = IGConfig()) -> AttributionVector:
    """(x_i - x'_i) times the path integral of dF/dx_i from baseline x' to x,
    trapezoid rule over cfg.steps intervals."""
    x = _point(model, x)
    baseline = np.zeros_like(x) if cfg.baseline is None else cfg.baseline
    if baseline.shape != x.shape:
        raise ConfigurationError("baseline dimension mismatch")
    alphas = np.linspace(0.0, 1.0, cfg.steps + 1)
    path = baseline[None, :] + alphas[:, None] * (x - baseline)[None, :]
    grads = model.input_gradient_many(path)
    weights = np.full(cfg.steps + 1, 1.0 / cfg.steps)
    weights[0] = weights[-1] = 0.5 / cfg.steps
    avg_grad = (weights[:, None] * grads).sum(axis=0)
    values = (x - baseline) * avg_grad
    tag = _tagged("integrated-gradients", {"baseline": baseline, "steps": cfg.steps})
    return AttributionVector(values=values, method=tag, point=x)


def saliency(model, x) -> AttributionVector:
    """The input gradient itself."""
    x = _point(model, x)
    return AttributionVector(values=model.input_gradient(x), method="saliency", point=x)


def _fp_offsets(n: int, cfg: PerturbConfig) -> np.ndarray:
    return rng(cfg.seed, 0).uniform(-cfg.radius, cfg.radius, size=(cfg.repeats, n))


def feature_permutation(model, x, cfg: PerturbConfig = PerturbConfig(), deltas=None) -> AttributionVector:
    """Single-feature displacement scores.

    For each feature i and repeat r, draw delta ~ U(-radius, radius), build
    the two-row batch {x displaced in feature i, x} and swap the feature
    across the batch; the score contribution is F(x) - F(displaced x).
    ``deltas`` (repeats, n) overrides the draws, for pinning exact values.
    """
    x = _point(model, x)
    n = x.shape[0]
    if deltas is None:
        deltas = _fp_offsets(n, cfg)
    else:
        deltas = np.asarray(deltas, dtype=float)
        if deltas.ndim == 1:
            deltas = deltas[None, :]
        if deltas.shape[1] != n:
            raise ConfigurationError(f"deltas must have shape (repeats, {n})")
    repeats = deltas.shape[0]
    base = model.predict(x)
    # batch all displaced points: repeats * n rows, one feature moved per row
    moved = np.tile(x, (repeats * n, 1))
    rows = np.arange(repeats * n)
    cols = np.tile(np.arange(n), repeats)
    moved[rows, cols] += deltas.reshape(-1)
    scores = base - model.predict_many(moved)
    values = scores.reshape(repeats, n).mean(axis=0)
    tag = _tagged(
        "feature-permutation",
        {"radius": cfg.radius, "repeats": repeats, "seed": cfg.seed},
    )
    return AttributionVector(values=values, method=tag, point=x)


def fit_local_slopes(X_offsets: np.ndarray, y_offsets: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Slope vector of the least-squares plane through the origin of the
    centered cloud: solve (X^T X + lambda I) w = X^T y."""
    X_offsets = np.asarray(X_offsets, dtype=float)
    y_offsets = np.asarray(y_offsets, dtype=float)
    n = X_offsets.shape[1]
    gram = X_offsets.T @ X_offsets + ridge_lambda * np.eye(n)
    rhs = X_offsets.T @ y_offsets
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(X_offsets.T @ X_offsets) < n:
        raise RankDeficiencyError("offset cloud does not span the input space; need lambda > 0 or more samples")
    return np.linalg.solve(gram, rhs)


def lime(model, x, cfg: PerturbConfig = PerturbConfig(), offsets=None) -> AttributionVector:
    """Local surrogate slopes.

    Draw cfg.samples joint offsets U(-radius, radius)^n, evaluate the model,
    and ridge-fit a linear map from offsets to output changes, centered at
    (x, F(x)). ``offsets`` overrides the draws.
    """
    x = _point(model, x)
    n = x.shape[0]
    if offsets is None:
        if cfg.samples < n:
            raise ConfigurationError("need at least n samples for the local fit")
        offsets = rng(cfg.seed, 1).uniform(-cfg.radius, cfg.radius, size=(cfg.samples, n))
    else:
        offsets = np.asarray(offsets, dtype=float)
        if offsets.ndim != 2 or offsets.shape[1] != n:
            raise ConfigurationError(f"offsets must have shape (samples, {n})")
    base = model.predict(x)
    y_off = model.predict_many(x[None, :] + offsets) - base
    values = fit_local_slopes(offsets, y_off, cfg.ridge_lambda)
    tag = _tagged(
        "lime",
        {"radius": cfg.radius, "samples": offsets.shape[0], "lambda": cfg.ridge_lambda, "seed": cfg.seed},
    )
    return AttributionVector(values=values, method=tag, point=x)


def directed_feature_permutation(model, x, radius: float = 0.1) -> AttributionVector:
    """Central difference per feature: (F(x + d e_i) - F(x - d e_i)) / (2d).

    Deterministic, keeps the sign of the local trend, and coincides with the
    unregularized local-surrogate fit on the same four single-feature
    offsets.
    """
    if radius <= 0:
        raise ConfigurationError("radius must be > 0")
    x = _point(model, x)
    n = x.shape[0]
    plus = np.tile(x, (n, 1))
    minus = np.tile(x, (n, 1))
    idx = np.arange(n)
    plus[idx, idx] += radius
    minus[idx, idx] -= radius
    values = (model.predict_many(plus) - model.predict_many(minus)) / (2.0 * radius)
    tag = _tagged("directed-feature-permutation", {"radius": radius})
    return AttributionVector(values=values, method=tag, point=x)


def attribute(model, x, method: str, ig_cfg: IGConfig | None = None, perturb_cfg: PerturbConfig | None = None) -> AttributionVector:
    """Dispatch by method tag."""
    if method == "integrated-gradients":
        return integrated_gradients(model, x, ig_cfg or IGConfig())
    if method == "saliency":
        return saliency(model, x)
    if method == "feature-permutation":
        return feature_permutation(model, x, perturb_cfg or PerturbConfig())
    if method == "lime":
        return lime(model, x, perturb_cfg or PerturbConfig())
    raise ConfigurationError(f"unknown method {method!r}; known: {METHOD_TAGS}")


# Static trait table for the four methods. Neighborhoodness is an ordinal
# rank of how local the method's queries are (0 = most global); the others
# are booleans. Directedness marks whether the sign of the attribution
# tracks the direction of output change under a feature increase.
METHOD_TRAITS = {
    "integrated-gradients": {
        "gradient_based": True,
        "perturbation_based": False,
        "completeness": True,
        "randomness": False,
        "neighborhoodness": 0,
        "directedness": False,
    },
    "saliency": {
        "gradient_based": True,
        "perturbation_based": False,
        "completeness": False,
        "randomness": False,
        "neighborhoodness": 2,
        "directedness": True,
    },
    "feature-permutation": {
        "gradient_based": False,
        "perturbation_based": True,
        "completeness": False,
        "randomness": True,
        "neighborhoodness": 1,
        "directedness": False,
    },
    "lime": {
        "gradient_based": False,
        "perturbation_based": True,
        "completeness": False,
        "randomness": True,
        "neighborhoodness": 1,
        "directedness": True,
    },
}


def method_property_table() -> dict:
    """Deep copy of the static method-trait table."""
    return {k: dict(v) for k, v in METHOD_TRAITS.items()}
