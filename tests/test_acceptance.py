"""Acceptance gate: eleven end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line with the measured quantity and its
tolerance, bypassing capture so the line lands in plain pytest output.
"""

import subprocess
import sys
from hashlib import sha256
from itertools import combinations

import numpy as np
import pytest

from lpattr.attribution import IGConfig, PerturbConfig, feature_permutation, integrated_gradients, method_settings
from lpattr.encodings import ENCODING_KINDS
from lpattr.experiments import experiment_directed_fp, experiment_lime_vs_saliency
from lpattr.fixtures import lp_box, lp_tri, random_positive_lp
from lpattr.grid import GridSpec, grid_attribution, save_grid_result, verify_grid_files
from lpattr.lp import enumerate_vertices, feasible_mask, project_feasible_many, vertex_bbox
from lpattr.nn import AnalyticModel
from lpattr.properties import (
    EXPECTED_ENCODING_TRAITS,
    PROPERTY_NAMES,
    directedness_test,
    encoding_property_table,
)

from conftest import lpattr_subprocess_env


def report(capsys, ok: bool, criterion: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def box_points(model, count, seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.uniform(model.bbox[:, 0], model.bbox[:, 1], size=(count, model.input_dim))


def test_ac01_path_integral_completeness(capsys, box_models):
    """Sum of path-integral attributions equals F(x) - F(baseline)."""
    worst, rules = 0.0, set()
    for kind, model in box_models.items():
        pts = box_points(model, 100, seed=101)
        f0 = model.predict(np.zeros(model.input_dim))
        settings = method_settings("integrated-gradients", model)
        rules.add(f"{settings['rule']} {settings['steps']}")
        for x in pts:
            vec = integrated_gradients(model, x, IGConfig())
            delta = model.predict(x) - f0
            worst = max(worst, abs(vec.attribution_sum - delta) / max(1.0, abs(delta)))
    ok = worst <= 1e-3
    report(capsys, ok, "AC-1",
           f"completeness residual |sum a - dF| / max(1,|dF|) worst {worst:.2e} over "
           f"5 models x 100 points (tol 1e-3, default rule: {', '.join(sorted(rules))})")
    assert ok


def test_ac02_gradient_matches_finite_differences(capsys, box_models):
    """Input gradients agree with h=1e-4 central differences.

    Relative error per point is ||g - fd|| / max(||fd||, ||g||, h^2): central
    differences carry O(h^2) truncation noise, so below that scale the
    reference itself is meaningless and the comparison falls back to absolute.
    Keeping ||g|| in the denominator still fails a gradient wrongly reported
    as nonzero at a flat point.
    """
    h = 1e-4
    worst = 0.0
    for kind, model in box_models.items():
        pts = box_points(model, 100, seed=102)
        grads = model.input_gradient_many(pts)
        fd = np.zeros_like(grads)
        for i in range(model.input_dim):
            e = np.zeros(model.input_dim)
            e[i] = h
            fd[:, i] = (model.predict_many(pts + e) - model.predict_many(pts - e)) / (2 * h)
        scale = np.maximum(np.linalg.norm(fd, axis=1), np.linalg.norm(grads, axis=1))
        rel = np.linalg.norm(grads - fd, axis=1) / np.maximum(scale, h * h)
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-3
    report(capsys, ok, "AC-2",
           f"saliency vs central differences, worst relative error {worst:.2e} over "
           f"5 models x 100 points (tol 1e-3, h=1e-4, error floor h^2)")
    assert ok


def test_ac03_surrogate_converges_to_gradient(capsys, box_models):
    """Local surrogate slopes approach the gradient as the radius shrinks;
    the ridge-regularized variant shrinks magnitudes instead."""
    model = box_models["boundary-distance"]
    direction = experiment_lime_vs_saliency(
        model, radii=(0.5, 0.1, 0.02), points=60, seed=5, ridge_lambda=0.0
    )
    cos = [r["mean_cosine"] for r in direction["rows"]]
    used = min(r["points_used"] for r in direction["rows"])
    ridge = experiment_lime_vs_saliency(
        model, radii=(0.5, 0.1, 0.02), points=60, seed=5, ridge_lambda=1.0
    )
    mags = [r["mean_magnitude"] for r in ridge["rows"]]
    ok = (
        used >= 50
        and cos[0] <= cos[1] <= cos[2]
        and cos[2] >= 0.99
        and mags[0] > mags[1] > mags[2]
    )
    report(capsys, ok, "AC-3",
           f"cosine {cos[0]:.4f} <= {cos[1]:.4f} <= {cos[2]:.4f} (last tol >= 0.99, "
           f"{used} points); ridge magnitudes {mags[0]:.3f} > {mags[1]:.3f} > {mags[2]:.3f}")
    assert ok


def test_ac04_directed_probes_equal_least_squares(capsys, box_models):
    """Directed single-feature probes reproduce the least-squares fit on the
    same perturbations to rounding error."""
    rep = experiment_directed_fp(box_models["boundary-distance"], radius=0.1, points=100, seed=4)
    ok = rep["max_abs_deviation"] <= 1e-9 and rep["control_max_deviation"] > 1e-8
    report(capsys, ok, "AC-4",
           f"max |directed - fitted| {rep['max_abs_deviation']:.2e} over 100 points "
           f"(tol 1e-9, d=0.1); undirected control {rep['control_max_deviation']:.2e}")
    assert ok


def test_ac05_property_table_reproduced(capsys):
    """All twenty encoding-property cells match the reference on the box
    fixture and one seeded random program."""
    mismatches = []
    for label, lp in (("box", lp_box()), ("random", random_positive_lp(2, 4, 1000))):
        reports = encoding_property_table(lp, sample_count=4000, seed=77)
        for kind in ENCODING_KINDS:
            row = reports[kind].as_row()
            for name in PROPERTY_NAMES:
                if row[name] != EXPECTED_ENCODING_TRAITS[kind][name]:
                    mismatches.append(f"{label}/{kind}/{name}")
    ok = not mismatches
    report(capsys, ok, "AC-5",
           "20/20 cells on LP-BOX and 20/20 on random 2-feature program (seed 1000)"
           if ok else f"mismatched cells: {mismatches}")
    assert ok


def test_ac06_directedness_verdicts(capsys, monotone_model):
    """Gradient and surrogate methods are directed; permutation is not."""
    verdicts = {
        tag: directedness_test(tag, monotone_model, seed=17).directed
        for tag in ("saliency", "lime", "feature-permutation")
    }
    ok = verdicts == {"saliency": True, "lime": True, "feature-permutation": False}
    report(capsys, ok, "AC-6",
           f"saliency directed={verdicts['saliency']}, lime directed={verdicts['lime']}, "
           f"feature-permutation directed={verdicts['feature-permutation']} "
           "(expected True/True/False at 95% sign agreement)")
    assert ok


def oracle_vertices(lp):
    rows = np.vstack([lp.A, -np.eye(lp.n)])
    rhs = np.concatenate([lp.b, np.zeros(lp.n)])
    found = []
    for idx in combinations(range(rows.shape[0]), lp.n):
        M = rows[list(idx)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, rhs[list(idx)])
        if (lp.A @ v <= lp.b + 1e-9).all() and (v >= -1e-9).all():
            found.append(tuple(np.round(v, 9)))
    return np.array(sorted(set(found)), dtype=float)


def row_canon(arr):
    # Order rows by coordinates rounded to the oracle's dedup precision so
    # float noise like -9e-17 on an active bound cannot flip the sort.
    return arr[np.lexsort(np.round(arr, 9).T[::-1])]


def test_ac07_geometry_matches_oracles(capsys):
    """Vertex enumeration equals the exhaustive-subset oracle; projection
    lands within two grid pitches of a dense-grid argmin."""
    problems = []
    matched = 0
    for i in range(50):
        n = 2 if i < 25 else 3
        m = 3 + (i % 4)
        lp = random_positive_lp(n, m, seed=2000 + i)
        ours = enumerate_vertices(lp).vertices
        want = oracle_vertices(lp)
        if ours.shape != want.shape:
            problems.append(f"vertex count differs on seed {2000 + i}")
        elif np.abs(row_canon(ours) - want).max() > 1e-7:
            problems.append(f"vertex coordinates differ on seed {2000 + i}")
        else:
            matched += 1

    worst_gap, max_tol = 0.0, 0.0
    for lp in (lp_box(), lp_tri()):
        bbox = vertex_bbox(lp)
        axes = [np.linspace(lo, hi, 401) for lo, hi in bbox]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        pitch = max((hi - lo) / 400 for lo, hi in bbox)
        max_tol = max(max_tol, 2 * pitch)
        candidates = grid[feasible_mask(lp, grid)]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(707)))
        for x in rng.uniform(bbox[:, 0], bbox[:, 1], size=(30, 2)):
            p = project_feasible_many(lp, x)[0]
            best = candidates[np.argmin(np.linalg.norm(candidates - x, axis=1))]
            gap = float(np.linalg.norm(p - best))
            worst_gap = max(worst_gap, gap)
            if gap > 2 * pitch:
                problems.append(f"projection {gap:.4f} beyond 2x pitch on {lp.digest()[:8]}")
    ok = not problems and matched == 50
    report(capsys, ok, "AC-7",
           f"vertex sets exact on {matched}/50 seeded programs (tol 1e-7); projection within "
           f"{worst_gap:.4f} of dense-grid argmin on 2 fixtures (tol 2x pitch = {max_tol:.4f})"
           + ("" if ok else f"; problems: {problems[:3]}"))
    assert ok


def test_ac08_training_reaches_reference_accuracy(capsys, feasibility_100k_model, fivedim_report):
    """Feasibility models hit the reference held-out accuracy at full scale."""
    model, _ = feasibility_100k_model
    acc_box = model.training_summary["val_accuracy"]  # scored on the dataset's val split
    acc_5d = fivedim_report["accuracy"]
    ok = acc_box >= 0.98 and acc_5d >= 0.95
    report(capsys, ok, "AC-8",
           f"box feasibility 100k-sample held-out accuracy {acc_box:.4f} (tol >= 0.98); "
           f"5-feature fixture accuracy {acc_5d:.4f} (tol >= 0.95)")
    assert ok


def test_ac09_full_grid_sweep(capsys, box_models, tmp_path):
    """Five encodings x four methods emit verified 100x73 rasters."""
    emitted = 0
    problems = []
    for kind, model in box_models.items():
        spec = GridSpec(
            dim_x=0, dim_y=1,
            x_range=tuple(model.bbox[0]),
            y_range=tuple(model.bbox[1]),
            fixed_values=np.zeros(model.input_dim),
        )
        for method in ("integrated-gradients", "saliency", "feature-permutation", "lime"):
            result = grid_attribution(model, method, spec, seed=33)
            stem = f"{kind}-{method}"
            if not all(ch.shape == (100, 73) for ch in result.channels.values()):
                problems.append(f"{stem}: wrong channel shape")
                continue
            save_grid_result(result, tmp_path, stem)
            check = verify_grid_files(tmp_path, stem)
            if not check["ok"]:
                problems.append(f"{stem}: {check['problems']}")
                continue
            emitted += 1
    ok = emitted == 20 and not problems
    report(capsys, ok, "AC-9",
           f"{emitted}/20 grid results at 100x73 emitted; file hashes and exact "
           "channel-sum identity verified on every one"
           + ("" if ok else f"; problems: {problems[:3]}"))
    assert ok


def test_ac10_permutation_is_zero_mean_on_affine(capsys):
    """On an affine model the permutation method averages to zero."""
    slope = np.array([2.0, -3.0])
    model = AnalyticModel(
        fn=lambda X: X @ slope + 1.0,
        grad=lambda X: np.tile(slope, (len(X), 1)),
        input_dim=2,
    )
    radius = 0.1
    vec = feature_permutation(
        model, np.array([0.5, 0.5]), PerturbConfig(radius=radius, repeats=10_000, seed=42)
    )
    ratios = np.abs(vec.values) / (np.abs(slope) * radius)
    ok = float(ratios.max()) <= 0.05
    report(capsys, ok, "AC-10",
           f"|mean attribution| / (|slope| p) max {ratios.max():.4f} over 10,000 repeats "
           "(tol 0.05)")
    assert ok


def test_ac11_pipeline_is_byte_deterministic(capsys, tmp_path):
    """gen-data -> train -> grid twice with one seed: identical bytes."""
    def run_pipeline(root):
        root.mkdir()
        steps = [
            ["gen-data", "--encoding", "boundary-distance", "--count", "4000",
             "--seed", "9", "--out", "files"],
            ["train", "--data", "files/data-boundary-distance.csv", "--epochs", "4",
             "--seed", "9", "--out", "files"],
            ["grid", "--model", "files/data-boundary-distance-model.model",
             "--method", "feature-permutation", "--resolution", "40,29",
             "--seed", "9", "--out", "files"],
        ]
        for step in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "lpattr", *step],
                cwd=root, env=lpattr_subprocess_env(), capture_output=True, text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
        return {
            p.name: sha256(p.read_bytes()).hexdigest()
            for p in sorted((root / "files").iterdir())
        }

    first = run_pipeline(tmp_path / "a")
    second = run_pipeline(tmp_path / "b")
    ok = first == second and len(first) >= 12
    differing = [name for name in first if second.get(name) != first[name]]
    report(capsys, ok, "AC-11",
           f"{len(first)} files (dataset, model, grid CSV/PPM/manifest) byte-identical "
           "across reruns" if ok else f"files differ: {differing}")
    assert ok
