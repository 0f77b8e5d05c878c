"""Property-checker tests: the trait table on the box program, witness
soundness on fresh samples, the directedness verdicts of every method on a
model with strictly increasing targets, and the certificate that the signs
of integrated gradients follow its baseline."""

import numpy as np
import pytest

from lpattr import properties
from lpattr.attribution import DIRECTED, IGConfig, attribute_many
from lpattr.errors import ConfigurationError, InconclusiveError, ValidationError
from lpattr.fixtures import lp_5d, lp_box, lp_tri, random_positive_lp
from lpattr.lp import LinearProgram, enumerate_vertices, min_slack_many, vertex_bbox
from lpattr.nn import AnalyticModel
from lpattr.properties import (
    EXPECTED_ENCODING_TRAITS,
    PROPERTY_NAMES,
    SIGN_AGREEMENT_LEVEL,
    build_monotone_harness,
    check_encoding_properties,
    classify_with_witness,
    directedness_test,
    encoding_property_table,
    find_boundary_points,
)
from lpattr.encodings import make_encoding
from lpattr.seeding import rng, sample_box

BOX_SEED = 404


@pytest.fixture(scope="module")
def box_table():
    return encoding_property_table(lp_box(), sample_count=4000, seed=BOX_SEED)


@pytest.fixture(scope="module")
def monotone_model():
    return build_monotone_harness(n=2, seed=7)


def test_box_reproduces_expected_traits(box_table):
    for kind, expected in EXPECTED_ENCODING_TRAITS.items():
        got = box_table[kind].as_row()
        assert got == expected, f"{kind}: {got} != {expected}"


def test_feasibility_row(box_table):
    r = box_table["feasibility"]
    assert (r.continuity, r.distinguish_class, r.distinguish_boundary, r.boundary_extrema) == (
        False,
        True,
        False,
        False,
    )


def test_boundary_distance_row(box_table):
    r = box_table["boundary-distance"]
    assert (r.continuity, r.distinguish_class, r.distinguish_boundary, r.boundary_extrema) == (
        True,
        True,
        True,
        False,
    )


def test_abs_boundary_distance_row(box_table):
    r = box_table["abs-boundary-distance"]
    assert (r.continuity, r.distinguish_class, r.distinguish_boundary, r.boundary_extrema) == (
        True,
        False,
        True,
        True,
    )


def test_vertex_distance_needs_origin_exclusion_for_extrema():
    # with the origin retained, the minimum-distance extremum sits at an
    # interior vertex, so the boundary-extrema property must fail
    report = check_encoding_properties(lp_box(), "vertex-distance", seed=BOX_SEED)
    assert not report.boundary_extrema
    report_ex = check_encoding_properties(
        lp_box(), "vertex-distance", seed=BOX_SEED, excluded_vertices=[[0.0, 0.0]]
    )
    assert report_ex.boundary_extrema


def test_class_witness_sound_on_fresh_samples(box_table):
    lp = lp_box()
    rng = np.random.Generator(np.random.PCG64(11))
    X = rng.uniform([0, 0], [3.0, 4.5], size=(10_000, 2))
    slacks = min_slack_many(lp, X)
    keep = np.abs(slacks) > 1e-9
    X, slacks = X[keep], slacks[keep]
    truth = slacks >= 0
    for kind in ("feasibility", "boundary-distance"):
        enc = make_encoding(lp, kind)
        got = classify_with_witness(box_table[kind], enc.values(X))
        assert (got == truth).all(), kind


@pytest.mark.parametrize("shift, threshold", [(0.0, 0.0), (5.0, 5.0)], ids=["zero-in-gap", "midpoint"])
def test_class_witness_feasible_below(shift, threshold):
    # an encoding lower on the feasible side: the gap runs from the feasible
    # maximum to the infeasible minimum, and the threshold is 0 when 0 lies
    # in it, else the gap's midpoint; near-boundary samples are left out
    slacks = np.array([0.5, 0.2, 1e-12, -0.3, -0.1])
    vals = np.array([-2.0, -1.0, 50.0, 3.0, 1.0]) + shift
    ok, w = properties._check_distinguish_class(vals, slacks)
    assert ok and w["orientation"] == "feasible-below" and w["threshold"] == threshold
    assert w["feasible_interval"] == (shift - 2.0, shift - 1.0)
    assert w["infeasible_interval"] == (shift + 1.0, shift + 3.0)
    report = properties.PropertyReport("test", True, True, True, True, {"distinguish_class": w}, 5, 0)
    got = classify_with_witness(report, vals[[0, 1, 3, 4]])
    np.testing.assert_array_equal(got, [True, True, False, False])


def test_witness_refused_when_property_failed(box_table):
    with pytest.raises(ValidationError):
        classify_with_witness(box_table["gain-penalty"], np.array([1.0]))


def test_reports_deterministic():
    a = check_encoding_properties(lp_box(), "boundary-distance", seed=5)
    b = check_encoding_properties(lp_box(), "boundary-distance", seed=5)
    assert a == b


def test_sample_count_floor():
    with pytest.raises(ValidationError):
        check_encoding_properties(lp_box(), "feasibility", sample_count=500)
    with pytest.raises(ValidationError):
        encoding_property_table(lp_box(), sample_count=500)


@pytest.mark.parametrize("make_lp", [lp_box, lambda: random_positive_lp(3, 4, 3)], ids=["box", "3x4"])
def test_table_equals_single_encoding_reports(make_lp):
    # the table's shared probe set must give each kind the report it gets alone
    lp = make_lp()
    table = encoding_property_table(lp, seed=BOX_SEED)
    for kind, report in table.items():
        excluded = np.zeros((1, lp.n)) if kind == "vertex-distance" else None
        assert report == check_encoding_properties(lp, kind, seed=BOX_SEED, excluded_vertices=excluded), kind


def test_table_searches_the_boundary_once(monkeypatch):
    calls = []
    real = properties.find_boundary_points

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "find_boundary_points", counted)
    encoding_property_table(lp_box(), seed=BOX_SEED)
    assert len(calls) == 1


def test_table_completes_on_a_thin_program(monkeypatch):
    # 6 features, 8 constraints: the box holds almost no feasible samples,
    # but every segment starts at the vertex centroid, which is inside
    found = []
    real = properties.find_boundary_points

    def recorded(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(properties, "find_boundary_points", recorded)
    lp = random_positive_lp(6, 8, 3)
    table = encoding_property_table(lp, seed=0)
    assert set(table) == set(EXPECTED_ENCODING_TRAITS)
    assert len(found[0]) >= properties.MIN_BOUNDARY_POINTS
    assert np.abs(min_slack_many(lp, found[0])).max() <= 1e-14


def test_boundary_points_on_boundary():
    lp = lp_tri()
    pts = find_boundary_points(lp, [[0, 6], [0, 6]], 200, seed=3)
    assert len(pts) >= 50
    assert np.abs(min_slack_many(lp, pts)).max() <= 1e-14


def centroid_segments(lp, bbox, count, seed):
    """The inner and outer ends of the segments find_boundary_points
    searches: the vertex centroid, and box samples drawn the same way."""
    X = sample_box(bbox, max(count * 20, 2000), rng(seed, 90))
    neg = X[min_slack_many(lp, X) < -1e-6][:count]
    return np.tile(enumerate_vertices(lp).vertices.mean(axis=0), (len(neg), 1)), neg


def bisected_boundary_points(lp, lo, hi):
    """Reference: halve every segment until each midpoint has |min_slack| <= 1e-12."""
    lo, hi = lo.copy(), hi.copy()
    for _ in range(101):
        mid = 0.5 * (lo + hi)
        s = min_slack_many(lp, mid)
        if np.abs(s).max() <= 1e-12:
            return mid
        lo[s > 0], hi[s <= 0] = mid[s > 0], mid[s <= 0]
    raise AssertionError("bisection did not converge")


@pytest.mark.parametrize("make_lp", [lp_tri, lp_box, lp_5d, lambda: random_positive_lp(3, 4, 3)],
                         ids=["tri", "box", "5d", "3x4"])
def test_boundary_points_on_segments_match_bisection(make_lp):
    lp = make_lp()
    bbox = vertex_bbox(lp)
    pts = find_boundary_points(lp, bbox, 500, seed=3)
    lo, hi = centroid_segments(lp, bbox, 500, seed=3)
    assert pts.shape == lo.shape and len(pts) >= 50
    # each point is lo + t (hi - lo) with t in [0, 1]
    d = hi - lo
    t = ((pts - lo) * d).sum(axis=1) / (d * d).sum(axis=1)
    assert ((t >= 0) & (t <= 1)).all()
    assert np.abs(lo + t[:, None] * d - pts).max() <= 1e-12
    assert np.abs(pts - bisected_boundary_points(lp, lo, hi)).max() <= 1e-11


def test_boundary_search_inconclusive_off_boundary():
    # a box strictly inside the feasible region holds no infeasible sample
    with pytest.raises(InconclusiveError, match="infeasible samples"):
        find_boundary_points(lp_box(), [[0, 0.5], [0, 0.5]], 200, seed=3)


def test_boundary_search_inconclusive_without_an_inside():
    # x2 <= x1, x >= 0 has the origin as its only vertex, on the boundary
    lp = LinearProgram(c=np.ones(2), A=np.array([[-1.0, 1.0]]), b=np.zeros(1))
    with pytest.raises(InconclusiveError, match="centroid"):
        find_boundary_points(lp, [[0, 1], [0, 1]], 200, seed=3)


@pytest.mark.parametrize("case", ["random", "ties", "outside", "single"])
def test_sorted_gap_equals_broadcast(case):
    gen = np.random.Generator(np.random.PCG64(31))
    if case == "random":
        a, b = gen.normal(size=300), gen.normal(size=2000)
    elif case == "ties":  # repeated values within and across the arrays, so some gaps are 0
        a, b = gen.integers(-20, 20, size=300) / 4.0, gen.integers(-20, 20, size=2000) / 4.0
    elif case == "outside":  # boundary values below, above and inside the off-value range
        a = np.concatenate([gen.uniform(-9, -5, 40), gen.uniform(5, 9, 40), gen.uniform(-1, 1, 20)])
        b = gen.uniform(-1, 1, size=500)
    else:
        a, b = np.array([0.3]), np.array([-1e-300])
    broadcast = float(np.abs(a[:, None] - b[None, :]).min())
    assert properties._min_gap(a, b) == broadcast
    assert properties._min_gap(a, b) == properties._min_gap(a[::-1], b[::-1])


def test_property_names_cover_report(box_table):
    row = box_table["feasibility"].as_row()
    assert set(row) == set(PROPERTY_NAMES)


# --------------------------------------------------------------- directedness


@pytest.mark.parametrize("tag", ["saliency", "lime", "integrated-gradients", DIRECTED])
def test_directed_on_monotone_model(monotone_model, tag):
    # integrated gradients runs from its default zero baseline
    report = directedness_test(tag, monotone_model, seed=1)
    assert report.directed
    assert report.stats["sign_agreement"] >= SIGN_AGREEMENT_LEVEL


def test_feature_permutation_undirected(monotone_model):
    report = directedness_test("feature-permutation", monotone_model, seed=3)
    assert not report.directed
    s = report.stats
    assert abs(s["mean"]) <= 3 * s["stderr"]
    assert s["magnitude_mean"] > 3 * s["magnitude_stderr"]


def test_directedness_rejects_unknown_method(monotone_model):
    with pytest.raises(ConfigurationError):
        directedness_test("gradcam", monotone_model)


@pytest.mark.parametrize("baseline, directed", [(0.0, True), (0.5, False)], ids=["zero", "centre"])
def test_ig_sign_follows_its_baseline(baseline, directed):
    """Certificate, no training: F = x1 + x2 + x1 x2 / 2 has positive partials
    on the unit box, so IG_i = (x_i - x'_i) * (a positive path mean) has the
    sign of x_i - x'_i entry for entry. From 0 every entry agrees with the
    partials; from the box centre about half do."""
    model = AnalyticModel(
        fn=lambda X: X[:, 0] + X[:, 1] + 0.5 * X[:, 0] * X[:, 1],
        grad=lambda X: np.stack([1.0 + 0.5 * X[:, 1], 1.0 + 0.5 * X[:, 0]], axis=1),
        input_dim=2,
        bbox=np.array([[0.0, 1.0], [0.0, 1.0]]),
    )
    X = sample_box(model.bbox, 300, rng(0, 0))
    A = attribute_many(model, X, "integrated-gradients", ig_cfg=IGConfig(baseline=np.full(2, baseline)))
    np.testing.assert_array_equal(np.sign(A), np.sign(X - baseline))
    assert (float((A > 0).mean()) >= SIGN_AGREEMENT_LEVEL) == directed


def test_directedness_inconclusive_on_flat_model():
    flat = AnalyticModel(
        fn=lambda X: np.zeros(len(X)), grad=lambda X: np.zeros_like(X), input_dim=2
    )
    flat.bbox = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert directedness_test("saliency", flat, seed=4).directed is None


def test_directedness_respects_sign_vector(monotone_model):
    # flipping the claimed true signs must break the agreement
    report = directedness_test("saliency", monotone_model, seed=5, true_partial_signs=[1.0, 1.0])
    assert report.directed
    flipped = directedness_test("saliency", monotone_model, seed=5, true_partial_signs=[-1.0, -1.0])
    assert flipped.directed is None and flipped.stats["sign_agreement"] <= 1 - SIGN_AGREEMENT_LEVEL
