"""Experiment drivers on closed-form models.

A quadratic surface gives every driver a known gradient field, so the
convergence and equivalence claims can be checked without training noise.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

import lpattr.attribution
import lpattr.cli
import lpattr.experiments
from lpattr.attribution import METHOD_TAGS, PerturbConfig, attribute
from lpattr.data import generate_dataset
from lpattr.encodings import make_encoding
from lpattr.errors import ConfigurationError, InconclusiveError, ValidationError
from lpattr.experiments import (
    SMALL_ATTRIBUTION,
    _pick_instances,
    experiment_5dim,
    experiment_directed_fp,
    experiment_lime_vs_saliency,
)
from lpattr.fixtures import lp_5d, lp_box, lp_tri, random_positive_lp
from lpattr.lp import slack_values
from lpattr.nn import AnalyticModel, ModelConfig, train_model
from lpattr.properties import directedness_test
from lpattr.seeding import sub_seed
from lpattr.serialize import canonical_json


def quad_model():
    # F(x) = 2 x1^2 + x1 x2 - 3 x2, curved enough that wide probes disagree
    return AnalyticModel(
        fn=lambda X: 2.0 * X[:, 0] ** 2 + X[:, 0] * X[:, 1] - 3.0 * X[:, 1],
        grad=lambda X: np.stack([4.0 * X[:, 0] + X[:, 1], X[:, 0] - 3.0], axis=1),
        input_dim=2,
        bbox=np.array([[0.0, 2.0], [0.0, 2.0]]),
    )


def turning_slopes(model, X, method, perturb_cfg, seeds):
    """Stands in for ``attribute_many``: the gradient turned by 1 - r radians
    and scaled by 1 / r at radius r, so both trends break."""
    g, r = model.input_gradient_many(X), perturb_cfg.radius
    c, s = np.cos(1.0 - r), np.sin(1.0 - r)
    return np.stack([c * g[:, 0] - s * g[:, 1], s * g[:, 0] + c * g[:, 1]], axis=1) / r


def flat_model():
    return AnalyticModel(
        fn=lambda X: np.full(len(X), 7.0),
        grad=lambda X: np.zeros((len(X), 2)),
        input_dim=2,
    )


class TestLimeVsSaliency:
    def test_least_squares_direction_converges(self):
        rep = experiment_lime_vs_saliency(
            quad_model(), radii=(0.5, 0.1, 0.02), points=40, seed=3, ridge_lambda=0.0
        )
        cos = [r["mean_cosine"] for r in rep["rows"]]
        assert cos[0] <= cos[1] <= cos[2]
        assert cos[2] >= 0.999
        assert rep["trend"] == "mean_cosine nondecreasing" and rep["trend_holds"] is True

    def test_least_squares_magnitude_approaches_gradient(self):
        rep = experiment_lime_vs_saliency(
            quad_model(), radii=(0.5, 0.1, 0.02), points=40, seed=3, ridge_lambda=0.0
        )
        final = rep["rows"][-1]["mean_magnitude"]
        assert abs(final - rep["mean_gradient_magnitude"]) <= 0.05 * rep["mean_gradient_magnitude"]

    def test_ridge_shrinks_magnitudes(self):
        rep = experiment_lime_vs_saliency(
            quad_model(), radii=(0.5, 0.1, 0.02), points=40, seed=3, ridge_lambda=1.0
        )
        mags = [r["mean_magnitude"] for r in rep["rows"]]
        assert mags[0] > mags[1] > mags[2]
        assert rep["trend"] == "mean_magnitude strictly decreasing" and rep["trend_holds"] is True

    def test_report_is_seed_deterministic(self):
        a = experiment_lime_vs_saliency(quad_model(), points=20, seed=9, ridge_lambda=0.0)
        b = experiment_lime_vs_saliency(quad_model(), points=20, seed=9, ridge_lambda=0.0)
        assert a == b

    def test_radii_must_descend(self):
        with pytest.raises(ConfigurationError):
            experiment_lime_vs_saliency(quad_model(), radii=(0.02, 0.1), points=20)

    def test_needs_two_radii_and_ten_points(self):
        with pytest.raises(ConfigurationError):
            experiment_lime_vs_saliency(quad_model(), radii=(0.5,), points=20)
        with pytest.raises(ConfigurationError):
            experiment_lime_vs_saliency(quad_model(), radii=(0.5, 0.1), points=5)

    def test_flat_model_is_inconclusive(self):
        with pytest.raises(InconclusiveError):
            experiment_lime_vs_saliency(flat_model(), points=20, seed=1)

    def test_unridged_magnitudes_do_not_shrink(self):
        # the shrinking-magnitude trend belongs to the ridge fit: without a
        # ridge the least-squares slopes estimate the gradient at every
        # radius, so their magnitudes stay near-constant (the verdicts are
        # tested by test_broken_trends_are_reported_false)
        rep = experiment_lime_vs_saliency(quad_model(), points=20, seed=2, ridge_lambda=0.0)
        mags = [r["mean_magnitude"] for r in rep["rows"]]
        assert not (mags[0] > mags[1] > mags[2])  # near-constant, not shrinking

    @pytest.mark.parametrize("ridge_lambda, trend", [
        (0.0, "mean_cosine nondecreasing"),
        (1.0, "mean_magnitude strictly decreasing"),
    ], ids=["least-squares", "ridge"])
    def test_broken_trends_are_reported_false(self, monkeypatch, ridge_lambda, trend):
        # slopes that turn away from the gradient and grow as the radius
        # shrinks break both trends: each regime reports its own as failed,
        # next to rows that follow the turning slopes in closed form
        monkeypatch.setattr(lpattr.experiments, "attribute_many", turning_slopes)
        radii = (0.5, 0.1, 0.02)
        rep = experiment_lime_vs_saliency(quad_model(), radii=radii, points=20, seed=2, ridge_lambda=ridge_lambda)
        assert rep["trend"] == trend and rep["trend_holds"] is False
        rows = rep["rows"]
        np.testing.assert_allclose([r["mean_cosine"] for r in rows], np.cos(1.0 - np.array(radii)), rtol=1e-12)
        np.testing.assert_allclose([r["mean_magnitude"] for r in rows],
                                   rep["mean_gradient_magnitude"] / np.array(radii), rtol=1e-12)
        assert [r["points_used"] for r in rows] == [20, 20, 20]

    def test_cli_writes_the_report_then_exits_4_on_a_failed_trend(self, monkeypatch, tmp_path):
        monkeypatch.setattr(lpattr.experiments, "attribute_many", turning_slopes)
        monkeypatch.setattr(lpattr.cli, "load_model", lambda path: quad_model())
        code = lpattr.cli.main(["exp-lime-sal", "--model", "quad.model", "--points", "20", "--seed", "2",
                                "--out", str(tmp_path)])
        assert code == 4
        report = json.loads((tmp_path / "exp-lime-vs-saliency.json").read_text())
        assert report["trend"] == "mean_magnitude strictly decreasing" and report["trend_holds"] is False


class TestDirectedFp:
    def test_matches_least_squares_fit_exactly(self):
        rep = experiment_directed_fp(quad_model(), radius=0.1, points=60, seed=4)
        assert rep["max_abs_deviation"] <= 1e-9

    def test_undirected_control_differs(self):
        rep = experiment_directed_fp(quad_model(), radius=0.1, points=60, seed=4)
        assert rep["control_max_deviation"] > 1e-8 * 10

    def test_deterministic(self):
        a = experiment_directed_fp(quad_model(), points=15, seed=6)
        assert a == experiment_directed_fp(quad_model(), points=15, seed=6)


class TestPickInstances:
    def test_prefers_single_violation_and_deep_interior(self):
        lp = lp_box()  # feasible iff 0 <= x1 <= 2, 0 <= x2 <= 3 (rows: x1<=2, x2<=3)
        X = np.array(
            [
                [1.0, 1.5],  # interior, slacks (1.0, 1.5)
                [1.9, 2.9],  # interior but shallow
                [2.5, 3.5],  # violates both rows
                [2.4, 1.0],  # violates row 1 only, by 0.4
                [2.2, 1.0],  # violates row 1 only, by 0.2
            ]
        )
        fi, ii = _pick_instances(lp, X)
        assert fi == 0
        assert ii == 3

    def test_falls_back_to_deepest_violation(self):
        lp = lp_box()
        X = np.array([[1.0, 1.0], [2.5, 3.1], [2.2, 3.9]])
        fi, ii = _pick_instances(lp, X)
        assert ii == 2  # most negative slack among multi-violation rows

    def test_requires_both_classes(self):
        lp = lp_box()
        with pytest.raises(ValidationError):
            _pick_instances(lp, np.array([[1.0, 1.0], [0.5, 0.5]]))


# name -> (program, seed, row count); each holds both classes in its box
STUDY_PROGRAMS = {
    "5d": (lp_5d, 3, 6000),
    "box": (lp_box, 0, 2000),
    "tri": (lp_tri, 0, 6000),
    "random-3x4": (lambda: random_positive_lp(3, 4, 3), 0, 2000),
}


@lru_cache(maxsize=None)
def study_report(name):
    make_lp, seed, count = STUDY_PROGRAMS[name]
    return experiment_5dim(make_lp(), seed=seed, count=count)


def one_point_study(lp, seed, count):
    """The feasibility study one point and one method at a time: a one-point
    ``attribute`` per tag on ``sub_seed(seed, 7, mi)``, ``model.predict`` per
    instance, the accuracy by thresholding ``predict_many`` on the validation
    split and the split's larger class share by counting its labels; the
    recipe whose bytes the batched study must keep."""
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), count, seed=seed)
    model = train_model(ds, ModelConfig(seed=seed))
    val_X, val_y = ds.val_arrays()
    instances = []
    for label, i in zip(("feasible", "infeasible"), _pick_instances(lp, val_X)):
        x = val_X[i]
        slacks = slack_values(lp, x[None, :])[0]
        methods = {}
        for mi, tag in enumerate(METHOD_TAGS):
            vec = attribute(model, x, tag, perturb_cfg=PerturbConfig(seed=sub_seed(seed, 7, mi)))
            methods[tag] = {
                "values": [float(v) for v in vec.values],
                "sum": vec.attribution_sum,
                "small": [bool(abs(v) < SMALL_ATTRIBUTION) for v in vec.values],
            }
        instances.append({
            "label": label,
            "point": [float(v) for v in x],
            "prediction": float(model.predict(x)),
            "slacks": [float(s) for s in slacks],
            "violated": [bool(s < 0) for s in slacks],
            "attributions": methods,
        })
    accuracy = float(np.mean((model.predict_many(val_X) >= 0.5) == (val_y >= 0.5)))
    majority_share = int(np.bincount((val_y >= 0.5).astype(int)).max()) / len(val_y)
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


class TestFiveDim:
    @pytest.mark.parametrize("name", ["5d", "box", "tri"])
    def test_matches_the_one_point_recipe(self, name):
        make_lp, seed, count = STUDY_PROGRAMS[name]
        want = one_point_study(make_lp(), seed, count)
        assert canonical_json(study_report(name)) == canonical_json(want)

    @pytest.mark.parametrize("name", ["box", "tri", "random-3x4"])
    def test_runs_on_any_program(self, name):
        n = STUDY_PROGRAMS[name][0]().n
        rep = study_report(name)
        assert [inst["label"] for inst in rep["instances"]] == ["feasible", "infeasible"]
        feas, infeas = rep["instances"]
        assert not any(feas["violated"]) and any(infeas["violated"])
        for inst in rep["instances"]:
            assert len(inst["point"]) == n
            assert inst["violated"] == [s < 0 for s in inst["slacks"]]
            for entry in inst["attributions"].values():
                assert len(entry["values"]) == n

    def test_one_class_split_is_a_validation_error(self):
        # below 10 rows the validation split is empty; nothing reads the summary
        with pytest.raises(ValidationError):
            experiment_5dim(lp_5d(), seed=0, count=4)

    def test_small_scale_report_structure(self):
        rep = study_report("5d")
        assert set(rep) >= {"accuracy", "instances", "lp_digest", "small_threshold"}
        assert 0.0 <= rep["accuracy"] <= 1.0
        assert 0.5 <= rep["majority_share"] <= 1.0
        assert rep["beats_majority"] is (rep["accuracy"] > rep["majority_share"])
        feas, infeas = rep["instances"]
        assert feas["label"] == "feasible" and not any(feas["violated"])
        assert infeas["label"] == "infeasible" and any(infeas["violated"])
        # violated marks align with negative slacks
        for inst in rep["instances"]:
            assert inst["violated"] == [s < 0 for s in inst["slacks"]]
            assert set(inst["attributions"]) == {
                "integrated-gradients", "saliency", "feature-permutation", "lime",
            }
            for entry in inst["attributions"].values():
                assert len(entry["values"]) == 5
                assert entry["small"] == [abs(v) < rep["small_threshold"] for v in entry["values"]]
                assert entry["sum"] == pytest.approx(sum(entry["values"]))


def test_no_study_attributes_one_point_at_a_time(monkeypatch, monotone_model):
    """Only the one-point ``attribute`` reads ``method_settings`` through the
    attribution module, so with it raising every study must still finish."""
    def refuse(*args, **kwargs):
        raise AssertionError("a study called the one-point attribute()")

    monkeypatch.setattr(lpattr.attribution, "method_settings", refuse)
    with pytest.raises(AssertionError):
        attribute(quad_model(), [1.0, 1.0], "lime")
    experiment_5dim(lp_tri(), seed=0, count=2000)
    experiment_lime_vs_saliency(quad_model(), points=10, seed=0)
    experiment_directed_fp(quad_model(), points=5, seed=0)
    for tag in METHOD_TAGS:
        directedness_test(tag, monotone_model, sample_count=20, seed=0)
