"""Sampled checkers for four observable properties of an encoding, plus an
empirical directedness test for any attribution method.

The four encoding properties, each reduced to a falsifiable sampled
predicate over a box around the polytope:

- continuity: the largest value jump over point pairs at distance h shrinks
  proportionally with h; a fixed-size jump across the constraint boundary
  fails the ratio test.
- distinguish_class: the value alone separates feasible from infeasible
  points; the emitted witness is a threshold plus orientation.
- distinguish_boundary: the value alone separates boundary points
  (min_slack = 0, on segments from the vertex centroid) from clearly-off-boundary points.
- boundary_extrema: at least one of the encoding's two extremes (max or
  min) is attained only near the constraint boundary.

The five encodings of a table share one probe set per program and seed;
each is evaluated once on the pooled points and once on the continuity
pairs, and the checkers read only those values and the points' slacks. They
are regression tests against known analysis, not proofs: they sample at
documented counts with documented margins and are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import PerturbConfig, attribute_many
from .encodings import Encoding, all_encodings, make_encoding
from .errors import InconclusiveError, ValidationError
from .lp import FEAS_TOL, LinearProgram, enumerate_vertices, min_slack_many, slack_values, vertex_bbox
from .seeding import rng, sample_box, sub_seed

# Expected property table, keyed by encoding kind. The vertex-distance row
# assumes the origin (an off-boundary vertex for all-positive programs) is
# excluded from the retained set; encoding_property_table applies that.
EXPECTED_ENCODING_TRAITS = {
    "feasibility": {
        "continuity": False,
        "distinguish_class": True,
        "distinguish_boundary": False,
        "boundary_extrema": False,
    },
    "gain-penalty": {
        "continuity": True,
        "distinguish_class": False,
        "distinguish_boundary": False,
        "boundary_extrema": True,
    },
    "boundary-distance": {
        "continuity": True,
        "distinguish_class": True,
        "distinguish_boundary": True,
        "boundary_extrema": False,
    },
    "abs-boundary-distance": {
        "continuity": True,
        "distinguish_class": False,
        "distinguish_boundary": True,
        "boundary_extrema": True,
    },
    "vertex-distance": {
        "continuity": True,
        "distinguish_class": False,
        "distinguish_boundary": False,
        "boundary_extrema": True,
    },
}

PROPERTY_NAMES = ("continuity", "distinguish_class", "distinguish_boundary", "boundary_extrema")

CONTINUITY_SCALES = (1e-2, 1e-3, 1e-4)
CONTINUITY_FACTOR = 10.0
MIN_BOUNDARY_POINTS = 50
OFF_BOUNDARY_FRACTION = 0.02  # of the slack scale
VALUE_COLLISION_FRACTION = 1e-3  # of the value range
EXTREMUM_BAND_FRACTION = 0.01  # of the value range
EXTREMUM_SLACK_FRACTION = 0.1  # of the slack scale


@dataclass(frozen=True)
class PropertyReport:
    kind: str
    continuity: bool
    distinguish_class: bool
    distinguish_boundary: bool
    boundary_extrema: bool
    stats: dict

    def as_row(self) -> dict:
        return {name: getattr(self, name) for name in PROPERTY_NAMES}


def find_boundary_points(lp: LinearProgram, bbox, count: int, seed: int) -> np.ndarray:
    """Points with min_slack = 0, one per segment from the vertex centroid
    ``c`` to a box sample with min_slack < -1e-6. Along ``c + t d`` slack i
    falls at rate ``(A d)_i``, so a segment that starts strictly inside
    crosses 0 once, at ``t = min over (A d)_i > 0 of slack_i(c) / (A d)_i``."""
    centre = enumerate_vertices(lp).vertices.mean(axis=0, keepdims=True)
    if min_slack_many(lp, centre)[0] <= 1e-6:
        raise InconclusiveError("the vertex centroid is not strictly inside the polytope")
    X = sample_box(np.asarray(bbox, dtype=float), max(count * 20, 2000), rng(seed, 90))
    d = X[min_slack_many(lp, X) < -1e-6][:count] - centre
    if len(d) < MIN_BOUNDARY_POINTS:
        raise InconclusiveError(f"only {len(d)} infeasible samples found; the box barely leaves the polytope")
    rate = d @ lp.A.T  # positive on some row of every segment, as its end is infeasible
    t = np.divide(slack_values(lp, centre), rate, out=np.full_like(rate, np.inf), where=rate > 0).min(axis=1)
    return centre + t[:, None] * d


def _probe_points(lp: LinearProgram, sample_count: int, seed: int):
    """``(pool, pool_slacks, boundary_count, pair_ends)``: the uniform
    samples, boundary points and anchors (vertices, then box corners)
    stacked, their min slacks (0 on the boundary points), and both ends of
    each continuity pair, shape (len(CONTINUITY_SCALES), 2, pairs, n)."""
    if sample_count < 1000:
        raise ValidationError("sample_count must be >= 1000")
    bbox = vertex_bbox(lp)
    samples = sample_box(bbox, sample_count, rng(seed, 0))
    boundary = find_boundary_points(lp, bbox, max(MIN_BOUNDARY_POINTS * 4, sample_count // 8), seed)
    # Anchors pin the sampled extrema to the true ones, which random samples
    # alone miss when an extremum is attained at isolated points.
    corners = np.stack(np.meshgrid(*bbox, indexing="ij"), axis=-1).reshape(-1, lp.n)
    anchors = np.vstack([enumerate_vertices(lp).vertices, corners])
    # continuity pairs: random pairs at distance h, then pairs straddling the boundary
    gen = rng(seed, 1)
    base = sample_box(bbox, sample_count // 4, gen)
    dirs = gen.normal(size=(len(base), lp.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    bdirs = gen.normal(size=(len(boundary), lp.n))
    bdirs /= np.linalg.norm(bdirs, axis=1, keepdims=True)
    ends = np.array([
        [np.vstack([base, boundary - 0.5 * h * bdirs]),
         np.vstack([base + h * dirs, boundary + 0.5 * h * bdirs])]
        for h in CONTINUITY_SCALES
    ])
    pool_slacks = [min_slack_many(lp, samples), np.zeros(len(boundary)), min_slack_many(lp, anchors)]
    return (np.vstack([samples, boundary, anchors]), np.concatenate(pool_slacks), len(boundary),
            np.clip(ends, bbox[:, 0], bbox[:, 1]))


def _check_continuity(end_vals: np.ndarray):
    """Jump statistic J(h) = max |phi(a) - phi(b)| over the pairs (a, b) at
    scale h; pass iff J shrinks with h like a Lipschitz function
    (J(h) <= 10 h Lhat, Lhat = J(h_max)/h_max)."""
    jumps = {h: float(np.abs(a - b).max()) for h, (a, b) in zip(CONTINUITY_SCALES, end_vals)}
    h_max = CONTINUITY_SCALES[0]
    lipschitz = jumps[h_max] / h_max
    ok = all(
        jumps[h] <= max(CONTINUITY_FACTOR * h * lipschitz, 1e-12)
        for h in CONTINUITY_SCALES[1:]
    )
    return ok, {"jumps": jumps, "lipschitz_estimate": lipschitz}


def _check_distinguish_class(vals: np.ndarray, slacks: np.ndarray):
    """Pass iff the value intervals of the two classes are disjoint; the
    witness is a threshold (snapped to 0 when 0 sits in the gap) plus which
    side the feasible class lies on."""
    off_band = np.abs(slacks) > FEAS_TOL
    vals = vals[off_band]
    feas = slacks[off_band] >= 0
    if feas.all() or (~feas).all():
        raise InconclusiveError("one feasibility class has no samples in the box")
    f_lo, f_hi = float(vals[feas].min()), float(vals[feas].max())
    i_lo, i_hi = float(vals[~feas].min()), float(vals[~feas].max())
    stats = {"feasible_interval": (f_lo, f_hi), "infeasible_interval": (i_lo, i_hi)}
    if f_lo > i_hi:
        gap, orientation = (i_hi, f_lo), "feasible-above"
    elif i_lo > f_hi:
        gap, orientation = (f_hi, i_lo), "feasible-below"
    else:
        return False, stats
    threshold = 0.0 if gap[0] < 0.0 < gap[1] else 0.5 * (gap[0] + gap[1])
    return True, {**stats, "threshold": threshold, "orientation": orientation}


def _min_gap(a: np.ndarray, b: np.ndarray) -> float:
    """min |a_i - b_j| over all pairs, from the two neighbours of each a_i in
    sorted b. Rounding keeps a - b monotone in b, so this equals the minimum
    of the (len(a), len(b)) broadcast bit for bit."""
    s = np.sort(b)
    i = np.searchsorted(s, a)
    below = s[np.maximum(i - 1, 0)]
    above = s[np.minimum(i, len(s) - 1)]
    return float(np.minimum(np.abs(a - below), np.abs(a - above)).min())


def _check_distinguish_boundary(vals: np.ndarray, slacks: np.ndarray, b_vals: np.ndarray):
    """Pass iff no off-boundary sample's value comes within a small fraction
    of the value range of any boundary point's value."""
    slack_scale = float(np.abs(slacks).max())
    off_vals = vals[np.abs(slacks) >= OFF_BOUNDARY_FRACTION * slack_scale]
    all_vals = np.concatenate([b_vals, off_vals])
    value_range = float(all_vals.max() - all_vals.min())
    rho = VALUE_COLLISION_FRACTION * max(value_range, 1e-12)
    min_gap = _min_gap(b_vals, off_vals)
    ok = min_gap >= rho
    stats = {
        "boundary_value_interval": (float(b_vals.min()), float(b_vals.max())),
        "min_gap_to_off_boundary_values": min_gap,
        "collision_tolerance": rho,
    }
    return ok, stats


def _check_boundary_extrema(vals: np.ndarray, slacks: np.ndarray):
    """Pass iff all near-maximum points, or all near-minimum points, sit
    near the constraint boundary (small |min_slack|)."""
    value_range = float(vals.max() - vals.min())
    if value_range <= 0:
        raise InconclusiveError("encoding is constant over the box")
    eta = EXTREMUM_BAND_FRACTION * value_range
    theta = EXTREMUM_SLACK_FRACTION * float(np.abs(slacks).max())
    near_max = vals >= vals.max() - eta
    near_min = vals <= vals.min() + eta
    max_on_boundary = bool(np.abs(slacks[near_max]).max() <= theta)
    min_on_boundary = bool(np.abs(slacks[near_min]).max() <= theta)
    stats = {
        "value_range": value_range,
        "max_candidates": int(near_max.sum()),
        "min_candidates": int(near_min.sum()),
        "max_attained_only_near_boundary": max_on_boundary,
        "min_attained_only_near_boundary": min_on_boundary,
        "slack_threshold": theta,
    }
    return max_on_boundary or min_on_boundary, stats


def _report(enc: Encoding, probe, sample_count: int) -> PropertyReport:
    """All four checks on one encoding over a probe set from _probe_points."""
    pool, slacks, boundary_count, pair_ends = probe
    vals = enc.values(pool)
    end_vals = enc.values(pair_ends.reshape(-1, enc.lp.n)).reshape(pair_ends.shape[:3])
    sample_vals, sample_slacks = vals[:sample_count], slacks[:sample_count]
    boundary_vals = vals[sample_count:sample_count + boundary_count]
    checks = {
        "continuity": _check_continuity(end_vals),
        "distinguish_class": _check_distinguish_class(sample_vals, sample_slacks),
        "distinguish_boundary": _check_distinguish_boundary(sample_vals, sample_slacks, boundary_vals),
        "boundary_extrema": _check_boundary_extrema(vals, slacks),
    }
    return PropertyReport(
        kind=enc.kind,
        **{name: ok for name, (ok, _) in checks.items()},
        stats={**{name: stats for name, (_, stats) in checks.items()}, "boundary_points": boundary_count},
    )


def check_encoding_properties(
    lp: LinearProgram,
    kind: str,
    sample_count: int = 4000,
    seed: int = 0,
    excluded_vertices=None,
) -> PropertyReport:
    """Run all four property checkers against one encoding."""
    enc = make_encoding(lp, kind, excluded_vertices=excluded_vertices)
    return _report(enc, _probe_points(lp, sample_count, seed), sample_count)


def classify_with_witness(report: PropertyReport, values: np.ndarray) -> np.ndarray:
    """Apply the distinguish_class threshold witness: True = feasible."""
    if not report.distinguish_class:
        raise ValidationError("report carries no class witness (property failed)")
    w = report.stats["distinguish_class"]
    above = np.asarray(values, dtype=float) >= w["threshold"]
    return above if w["orientation"] == "feasible-above" else ~above


def encoding_property_table(lp: LinearProgram, sample_count: int = 4000, seed: int = 0) -> dict:
    """Reports for all five encodings over one shared probe set. The
    vertex-distance encoding drops the origin from its retained vertex set
    when the origin is a vertex, mirroring the prior that the optimum of an
    all-positive program never sits there."""
    probe = _probe_points(lp, sample_count, seed)
    return {
        kind: _report(enc, probe, sample_count)
        for kind, enc in all_encodings(lp, excluded_vertices=np.zeros((1, lp.n))).items()
    }


# --------------------------------------------------------------- directedness


def build_monotone_harness(n: int = 2, seed: int = 0):
    """Model trained on the strictly increasing target y = sum(x) over the
    unit box; every true partial derivative is +1."""
    from .nn import ModelConfig, fit_arrays

    bbox = np.column_stack([np.zeros(n), np.ones(n)])
    X = sample_box(bbox, 6000, rng(seed, 50))
    return fit_arrays(X, X.sum(axis=1), ModelConfig(seed=seed), bbox)


@dataclass(frozen=True)
class DirectednessReport:
    directed: bool | None  # None: neither criterion met
    stats: dict


SIGN_AGREEMENT_LEVEL = 0.95


def directedness_test(
    method_tag: str,
    model,
    sample_count: int = 300,
    seed: int = 0,
    radius: float = 0.05,
    true_partial_signs=None,
) -> DirectednessReport:
    """Empirical directedness of any tag ``attribute_many`` accepts, on a
    model with strictly monotone targets.

    directed: at least 95% of attribution entries carry the sign of the true
    partial derivative. undirected: the pooled mean attribution is within 3
    standard errors of 0 while the mean magnitude is not. Anything else is
    undecided: ``directed`` is None, and the stats say why. Integrated
    gradients gets the verdict of its default zero baseline.
    """
    if sample_count < 10:
        raise ValidationError("sample_count must be >= 10")
    n = model.input_dim
    signs = np.ones(n) if true_partial_signs is None else np.asarray(true_partial_signs, dtype=float)
    if signs.shape != (n,) or (signs == 0).any():
        raise ValidationError("true_partial_signs must be n nonzero values")
    # keep perturbations inside the trained region
    X = sample_box(np.asarray(model.bbox, dtype=float), sample_count, rng(seed, 40), shrink=0.1)
    seeds = [sub_seed(seed, 41, i) for i in range(sample_count)]
    A = attribute_many(model, X, method_tag, perturb_cfg=PerturbConfig(radius=radius), seeds=seeds)
    oriented = A * signs
    agreement = float((oriented > 0).mean())
    flat = oriented.reshape(-1)
    mean = float(flat.mean())
    stderr = float(flat.std(ddof=1) / np.sqrt(flat.size))
    mags = np.abs(flat)
    mag_mean = float(mags.mean())
    mag_stderr = float(mags.std(ddof=1) / np.sqrt(mags.size))
    stats = {
        "sign_agreement": agreement,
        "mean": mean,
        "stderr": stderr,
        "magnitude_mean": mag_mean,
        "magnitude_stderr": mag_stderr,
        "points": sample_count,
    }
    if agreement >= SIGN_AGREEMENT_LEVEL:
        directed = True
    elif abs(mean) <= 3 * stderr and mag_mean > 3 * mag_stderr:
        directed = False
    else:
        directed = None
    return DirectednessReport(directed=directed, stats=stats)
