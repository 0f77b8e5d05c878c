"""Encoding value tests. Expected numbers are hand-derived from the
definitions (box geometry makes every projection a coordinate clamp)."""

import re

import numpy as np
import pytest

from lpattr.encodings import ENCODING_KINDS, all_encodings, make_encoding
from lpattr.errors import ConfigurationError, DimensionMismatchError, EmptyVertexSetError
from lpattr.fixtures import lp_box, lp_tri, random_positive_lp
from lpattr.lp import LinearProgram, feasible_mask, min_slack, min_slack_many, project_feasible


def test_feasibility_values():
    enc = make_encoding(lp_box(), "feasibility")
    assert enc.value([1, 1]) == 1.0
    assert enc.value([3, 1]) == 0.0
    assert enc.value([2, 3]) == 1.0  # inclusive boundary


@pytest.mark.parametrize("kind", ENCODING_KINDS)
@pytest.mark.parametrize("rows", [1, 2])
def test_one_point_value_rejects_batches(kind, rows):
    # a batch, even of one row, is not a point, and the error names its shape
    enc = make_encoding(lp_box(), kind)
    X = np.array([[1.0, 2.0], [3.0, 4.0]])[:rows]
    with pytest.raises(DimensionMismatchError, match=re.escape(f"got {X.shape}")):
        enc.value(X)


def test_boundary_distance_values():
    enc = make_encoding(lp_box(), "boundary-distance")
    assert enc.value([1, 1]) == pytest.approx(1.0)
    assert enc.value([2, 3]) == pytest.approx(0.0)
    assert enc.value([3, 4]) == pytest.approx(-1.0)


def test_abs_boundary_distance_values():
    enc = make_encoding(lp_box(), "abs-boundary-distance")
    assert enc.value([1, 1]) == pytest.approx(1.0)
    assert enc.value([3, 4]) == pytest.approx(1.0)
    assert enc.value([2, 3]) == pytest.approx(0.0)


def test_abs_equals_abs_of_signed_exactly():
    lp = random_positive_lp(2, 3, seed=2)
    signed = make_encoding(lp, "boundary-distance")
    absenc = make_encoding(lp, "abs-boundary-distance")
    rng = np.random.Generator(np.random.PCG64(4))
    X = rng.uniform(0, 4, size=(300, 2))
    np.testing.assert_array_equal(absenc.values(X), np.abs(signed.values(X)))


def test_gain_penalty_inside_is_objective():
    enc = make_encoding(lp_box(), "gain-penalty")
    assert enc.value([1, 1]) == pytest.approx(3.0)


def test_gain_penalty_outside_shrinks_projected_gain():
    enc = make_encoding(lp_box(), "gain-penalty")
    # projection of (3,3) is the clamp (2,3); gain 8, drift 1, |x_f| = sqrt(13)
    want = 8.0 * (1.0 - 1.0 / np.sqrt(13.0))
    assert enc.value([3, 3]) == pytest.approx(want, rel=1e-7)
    assert enc.value([3, 3]) == pytest.approx(5.7812, abs=5e-5)


def test_gain_penalty_saturates_to_zero():
    enc = make_encoding(lp_box(), "gain-penalty")
    # drift 10 exceeds |x_f| = sqrt(13), min(1, .) caps the penalty
    assert enc.value([12, 3]) == pytest.approx(0.0, abs=1e-9)


def test_gain_penalty_continuous_across_boundary():
    enc = make_encoding(lp_box(), "gain-penalty")
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(20):
        y = rng.uniform(0.2, 2.8)
        inside = enc.value([2 - 1e-7, y])
        outside = enc.value([2 + 1e-7, y])
        assert abs(inside - outside) < 1e-4


def test_gain_penalty_requires_positive_gain_geometry():
    lp = LinearProgram(c=np.array([1.0, -2.0]), A=np.eye(2), b=np.array([2.0, 3.0]))
    with pytest.raises(ConfigurationError):
        make_encoding(lp, "gain-penalty")


def test_vertex_distance_values():
    enc = make_encoding(lp_box(), "vertex-distance")
    assert enc.value([2, 3]) == pytest.approx(0.0, abs=1e-12)
    assert enc.value([1.5, 2.9]) == pytest.approx(np.sqrt(0.26), rel=1e-9)


def test_vertex_distance_with_origin_excluded():
    enc = make_encoding(lp_box(), "vertex-distance", excluded_vertices=[[0.0, 0.0]])
    # retained corners: (2,0), (0,3), (2,3); nearest to (0.1,0.1) is (2,0)
    assert enc.value([0.1, 0.1]) == pytest.approx(np.sqrt(3.62), rel=1e-9)


def test_vertex_distance_zero_only_on_retained_vertices():
    enc = make_encoding(lp_tri(), "vertex-distance")
    for v in ([0, 0], [4, 0], [0, 4]):
        assert enc.value(v) == pytest.approx(0.0, abs=1e-12)
    assert enc.value([2, 2]) > 1.0


def test_all_vertices_excluded_raises():
    ex = [[0, 0], [2, 0], [0, 3], [2, 3]]
    with pytest.raises(EmptyVertexSetError):
        make_encoding(lp_box(), "vertex-distance", excluded_vertices=ex)


@pytest.mark.parametrize("ex", [[1.0, 2.0, 3.0], [[[0.0, 0.0]]]], ids=["other-dimension", "three-d"])
def test_excluded_vertices_of_another_shape_raise(ex):
    with pytest.raises(DimensionMismatchError):
        make_encoding(lp_box(), "vertex-distance", excluded_vertices=ex)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        make_encoding(lp_box(), "no-such-kind")


def test_feasibility_iff_nonnegative_slack():
    enc = make_encoding(lp_box(), "feasibility")
    rng = np.random.Generator(np.random.PCG64(14))
    X = rng.uniform(0, 4.5, size=(1000, 2))
    vals = enc.values(X)
    for x, v in zip(X, vals):
        assert (v == 1.0) == (min_slack(lp_box(), x) >= -1e-9)


def test_negative_coordinate_is_infeasible():
    # every row holds at (-1, 1), but x >= 0 does not; the projection clamps
    # x1 to 0, so drift 1 equals |x_f| = 1 and the penalty takes all the gain
    lp = lp_box()
    x = np.array([-1.0, 1.0])
    np.testing.assert_array_equal(project_feasible(lp, x), [0.0, 1.0])
    assert make_encoding(lp, "feasibility").value(x) == 0.0
    assert make_encoding(lp, "gain-penalty").value(x) == 0.0
    # the boundary distances read the rows only, as documented
    assert make_encoding(lp, "boundary-distance").value(x) == 2.0
    assert make_encoding(lp, "abs-boundary-distance").value(x) == 2.0


def test_bound_violation_past_tolerance_takes_the_outside_branch():
    # (1, -1e-6) projects to (1, 0): gain 1, drift 1e-6, |x_f| = 1
    lp = lp_box()
    x = [1.0, -1e-6]
    assert make_encoding(lp, "feasibility").value(x) == 0.0
    assert make_encoding(lp, "gain-penalty").value(x) == 1.0 * (1.0 - 1e-6 / 1.0)


def test_bound_violation_within_tolerance_stays_feasible():
    lp = lp_box()
    x = np.array([-1e-10, 1.0])
    assert make_encoding(lp, "feasibility").value(x) == 1.0
    assert make_encoding(lp, "gain-penalty").value(x) == x @ lp.c


@pytest.mark.parametrize("lp", [lp_box(), lp_tri(), random_positive_lp(3, 5, seed=3)], ids=["box", "tri", "3x5"])
def test_feasibility_is_the_feasible_mask(lp):
    # points on both sides of every axis plane and of the rows
    rng = np.random.Generator(np.random.PCG64(15))
    X = rng.uniform(-1.0, 4.0, size=(2000, lp.n))
    X[:50, 0] = -1e-10
    mask = feasible_mask(lp, X)
    assert mask.any() and not mask.all() and ((X < 0).any(axis=1) & (min_slack_many(lp, X) >= 0)).any()
    np.testing.assert_array_equal(make_encoding(lp, "feasibility").values(X), mask.astype(float))


def test_batch_matches_single_evaluation():
    lp = random_positive_lp(2, 3, seed=31)
    rng = np.random.Generator(np.random.PCG64(32))
    X = rng.uniform(0, 4, size=(50, 2))
    for kind in ENCODING_KINDS:
        enc = make_encoding(lp, kind)
        batch = enc.values(X)
        single = np.array([enc.value(x) for x in X])
        np.testing.assert_allclose(batch, single, atol=1e-12)


def test_all_encodings_builder():
    encs = all_encodings(lp_box(), excluded_vertices=[[0.0, 0.0]])
    assert set(encs) == set(ENCODING_KINDS)
    assert encs["vertex-distance"].excluded_vertices is not None
    assert encs["feasibility"].excluded_vertices is None
