"""Experiment drivers: surrogate-slope convergence, the directed-probe
equivalence, and a feasibility study on any program (five-feature by
default).

Each driver samples its evaluation points inside the model's normalization
box, derives all randomness from one seed, and returns a plain dict that
serializes cleanly to JSON; a driver raises only when it cannot measure.
"""

from __future__ import annotations

import numpy as np

from .attribution import DIRECTED, METHOD_TAGS, PerturbConfig, attribute_many
from .data import generate_dataset
from .encodings import make_encoding
from .errors import ConfigurationError, InconclusiveError, ValidationError
from .lp import feasible_mask, min_slack_many, slack_values
from .nn import ModelConfig, train_model
from .seeding import rng, sample_box, sub_seed

SMALL_ATTRIBUTION = 0.01  # below this magnitude the sign is not trusted
DEGENERATE_GRADIENT = 1e-8


def experiment_lime_vs_saliency(
    model,
    radii=(0.5, 0.1, 0.02),
    points: int = 50,
    seed: int = 0,
    ridge_lambda: float = 1.0,
    samples: int = 50,
) -> dict:
    """Local-surrogate slopes against the input gradient across shrinking
    perturbation radii.

    For each radius reports the mean cosine similarity between the surrogate
    slope vector and the gradient, and the mean surrogate magnitude. Points
    with near-zero gradient are excluded and counted.

    The two headline behaviors live in different regularization regimes, so
    ``trend`` and ``trend_holds`` report the one ``ridge_lambda`` selects. At
    0 (plain least squares) the direction estimate is exact in the locally
    linear limit and similarity should be monotone nondecreasing along the
    descending radius list; a positive ridge weight dominates the shrinking
    design scatter, which forces magnitudes to strictly decrease but also
    amplifies direction noise at tiny radii, so only the magnitude trend is
    judged there. Raises InconclusiveError only when almost every gradient is degenerate.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2:
        raise ConfigurationError("need at least 2 radii")
    if any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
        raise ConfigurationError("radii must be strictly descending")
    if points < 10:
        raise ConfigurationError("need at least 10 points")
    pts = sample_box(model.bbox, points, rng(seed, 0), shrink=0.1)
    grads = model.input_gradient_many(pts)
    grad_norms = np.linalg.norm(grads, axis=1)
    keep = grad_norms > DEGENERATE_GRADIENT
    excluded = int(points - keep.sum())
    if keep.sum() < 2:
        raise InconclusiveError("almost all sampled points have a degenerate gradient")
    kept = np.flatnonzero(keep)
    rows = []
    for ri, radius in enumerate(radii):
        cfg = PerturbConfig(radius=radius, samples=samples, ridge_lambda=ridge_lambda)
        seeds = [sub_seed(seed, 1, ri, int(pi)) for pi in kept]
        W = attribute_many(model, pts[kept], "lime", perturb_cfg=cfg, seeds=seeds)
        magnitudes = np.linalg.norm(W, axis=1)
        nz = magnitudes > 0.0
        cosines = (W * grads[kept]).sum(axis=1)[nz] / (magnitudes * grad_norms[kept])[nz]
        rows.append(
            {
                "radius": radius,
                "mean_cosine": float(np.mean(cosines)) if cosines.size else float("nan"),
                "mean_magnitude": float(np.mean(magnitudes)),
                "points_used": int(len(magnitudes)),
            }
        )
    if ridge_lambda == 0:
        trend, cos = "mean_cosine nondecreasing", [r["mean_cosine"] for r in rows]
        holds = not any(cos[i] > cos[i + 1] for i in range(len(cos) - 1))
    else:
        trend, mag = "mean_magnitude strictly decreasing", [r["mean_magnitude"] for r in rows]
        holds = not any(mag[i] <= mag[i + 1] for i in range(len(mag) - 1))
    return {
        "radii": list(radii),
        "ridge_lambda": ridge_lambda,
        "points": points,
        "excluded_degenerate": excluded,
        "mean_gradient_magnitude": float(np.mean(grad_norms[keep])),
        "rows": rows,
        "trend": trend,
        "trend_holds": holds,
    }


def experiment_directed_fp(model, radius: float = 0.1, points: int = 100, seed: int = 0) -> dict:
    """Directed single-feature probes against a least-squares surrogate fit
    on the identical probe set; the two should agree to rounding error.

    Also runs the undirected permutation method on the same points as a
    negative control and reports how far it lands from the surrogate.
    """
    if points < 1:
        raise ConfigurationError("need at least 1 point")
    n = model.input_dim
    pts = sample_box(model.bbox, points, rng(seed, 0), shrink=0.1)
    eye = np.eye(n)
    offsets = np.concatenate([radius * eye, -radius * eye], axis=0)
    lsq_cfg = PerturbConfig(radius=radius, ridge_lambda=0.0, seed=0)
    directed = attribute_many(model, pts, DIRECTED, perturb_cfg=lsq_cfg)
    fitted = attribute_many(model, pts, "lime", perturb_cfg=lsq_cfg,
                            draws=np.broadcast_to(offsets, (points,) + offsets.shape))
    deviations = np.abs(directed - fitted).max(axis=1)
    seeds = [sub_seed(seed, 1, i) for i in range(points)]
    undirected = attribute_many(model, pts, "feature-permutation", perturb_cfg=PerturbConfig(radius=radius), seeds=seeds)
    control = np.abs(undirected - fitted).max(axis=1)
    return {
        "radius": radius,
        "points": points,
        "max_abs_deviation": float(deviations.max()),
        "mean_abs_deviation": float(deviations.mean()),
        "control_max_deviation": float(control.max()),
    }


def _pick_instances(lp, X: np.ndarray) -> tuple[int, int]:
    """One clearly feasible and one clearly infeasible row index, classed
    by ``feasible_mask``.

    Feasible: largest minimum slack. Infeasible: prefers points violating
    exactly one constraint (taking the deepest such violation), else the
    most violated point overall.
    """
    feas = feasible_mask(lp, X)
    if not feas.any() or feas.all():
        raise ValidationError("need both feasible and infeasible points to pick instances")
    min_slack = min_slack_many(lp, X)
    feasible_idx = int(np.flatnonzero(feas)[np.argmax(min_slack[feas])])
    infeas = ~feas
    single = infeas & ((slack_values(lp, X) < 0).sum(axis=1) == 1)
    pool = single if single.any() else infeas
    pick = np.flatnonzero(pool)
    infeasible_idx = int(pick[np.argmin(min_slack[pool])])
    return feasible_idx, infeasible_idx


def experiment_5dim(lp, seed: int = 0, count: int = 100_000) -> dict:
    """Feasibility study on any program, the five-feature one by default:
    train, report the held-out accuracy from training beside the validation
    split's larger class share (a model that learned nothing scores about
    that, so ``beats_majority`` says whether it did better), then attribute one
    feasible and one infeasible validation instance under all four methods,
    annotating constraint slacks and flagging attribution entries too small
    to trust."""
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), count, seed=seed)
    val_X, val_y = ds.val_arrays()
    X = val_X[list(_pick_instances(lp, val_X))]
    model = train_model(ds, ModelConfig(seed=seed))
    attributions = {tag: attribute_many(model, X, tag, perturb_cfg=PerturbConfig(seed=sub_seed(seed, 7, mi)))
                    for mi, tag in enumerate(METHOD_TAGS)}
    predictions = model.predict_many(X)
    instances = []
    for i, label in enumerate(("feasible", "infeasible")):
        slacks = slack_values(lp, X[i][None])[0]  # row by row: a two-row product rounds differently
        instances.append({
            "label": label,
            "point": [float(v) for v in X[i]],
            "prediction": float(predictions[i]),
            "slacks": [float(s) for s in slacks],
            "violated": [bool(s < 0) for s in slacks],
            "attributions": {
                tag: {
                    "values": [float(v) for v in W[i]],
                    "sum": float(W[i].sum()),
                    "small": [bool(abs(v) < SMALL_ATTRIBUTION) for v in W[i]],
                }
                for tag, W in attributions.items()
            },
        })
    feasible = int(np.count_nonzero(val_y >= 0.5))
    majority_share = max(feasible, len(val_y) - feasible) / len(val_y)
    accuracy = model.training_summary["val_accuracy"]
    return {
        "lp_digest": lp.digest(),
        "encoding": "feasibility",
        "sample_count": count,
        "seed": seed,
        "accuracy": accuracy,
        "majority_share": majority_share,
        "beats_majority": accuracy > majority_share,
        "small_threshold": SMALL_ATTRIBUTION,
        "instances": instances,
    }
