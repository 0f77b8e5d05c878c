"""Geometry tests.

The oracles here are written from the mathematical definitions, independent
of the library internals: an exhaustive hyperplane-subset vertex enumerator
with its own dedup strategy, a dense-grid argmin projection oracle, and the
variational-inequality certificate of Euclidean projections. The two subset
loops that ``enumerate_vertices`` and ``project_feasible_many`` once ran are
kept here too, as the byte-level oracles of the walk over feasible bases and
of the projection's face candidates.
"""

import copy
import itertools
import pickle
import tracemalloc
from math import comb

import numpy as np
import pytest

from lpattr.errors import (
    DimensionMismatchError,
    EmptyVertexSetError,
    ProjectionFailureError,
    ValidationError,
)
from lpattr.fixtures import lp_5d, lp_box, lp_tri, random_positive_lp
from lpattr.lp import (
    FEAS_TOL,
    VERTEX_DEDUP_TOL,
    LinearProgram,
    _solve_bases,
    enumerate_vertices,
    feasible_mask,
    is_feasible,
    load_lp,
    min_slack,
    min_slack_many,
    project_feasible,
    project_feasible_many,
    save_lp,
    slack_values,
    solve_on_vertices,
    vertex_bbox,
)


# ---------------------------------------------------------------- oracles


def oracle_vertices(c, A, b, tol=1e-9):
    """Every feasible solution of n hyperplanes chosen from the m rows of
    A x = b and the n planes x_i = 0, deduplicated by rounding."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    m, n = A.shape
    planes = [(A[i], b[i]) for i in range(m)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e, 0.0))
    found = {}
    for subset in itertools.combinations(range(m + n), n):
        M = np.array([planes[i][0] for i in subset])
        r = np.array([planes[i][1] for i in subset])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, r)
        if (A @ v <= b + tol).all() and (v >= -tol).all():
            found[tuple(np.round(v, 6))] = v
    return sorted(found.values(), key=tuple)


def subset_loop_vertices(lp):
    """The vertex array by solving every choice of n hyperplanes in
    ``combinations`` order, then lexsort and greedy dedup: the C(m+n, n)
    enumeration whose bytes the walk over feasible bases must reproduce."""
    n, m = lp.n, lp.m
    normals = np.vstack([lp.A, np.eye(n)])
    offsets = np.concatenate([lp.b, np.zeros(n)])
    solutions = np.full((comb(m + n, n), n), np.nan)
    for i, rows in enumerate(itertools.combinations(range(m + n), n)):
        try:
            solutions[i] = np.linalg.solve(normals[list(rows)], offsets[list(rows)])
        except np.linalg.LinAlgError:
            continue
    cand = solutions[np.isfinite(solutions).all(axis=1)]
    cand = cand[feasible_mask(lp, cand)]
    kept = []
    for v in cand[np.lexsort(cand.T[::-1])]:
        if not kept or min(np.linalg.norm(v - w) for w in kept) > VERTEX_DEDUP_TOL:
            kept.append(v)
    if not kept:
        raise EmptyVertexSetError("no feasible vertex")
    return np.array(kept)


def subset_loop_projection(lp, X):
    """The projection by trying every set of k = 1..n halfspaces that passes
    a rank test, in ``combinations`` order, each factored anew: the loop
    whose bytes the projection over the walk's faces must reproduce."""
    X = np.asarray(X, dtype=float)
    out = X.copy()
    left = np.flatnonzero(~feasible_mask(lp, X))
    G_all = np.vstack([lp.A, -np.eye(lp.n)])
    h_all = np.concatenate([lp.b, np.zeros(lp.n)])
    for k in range(1, lp.n + 1):
        for rows in itertools.combinations(range(lp.m + lp.n), k):
            if left.size == 0:
                return out
            G = G_all[list(rows)]
            if np.linalg.matrix_rank(G) < k:
                continue
            pinv = np.linalg.pinv(G)
            x = X[left]
            mu = (x - pinv @ h_all[list(rows)]) @ pinv
            y = x - mu @ G
            ok = mu.min(axis=1) >= -FEAS_TOL
            ok[ok] = feasible_mask(lp, y[ok])
            out[left[ok]] = y[ok]
            left = left[~ok]
    if left.size:
        raise ProjectionFailureError(f"no active set certifies {left.size} row(s)")
    return out


def oracle_grid_projection(lp, x, per_axis=401):
    """Argmin distance over a dense feasible grid; returns (point, distance,
    pitch)."""
    hi = np.array([v for v in np.max(oracle_vertices(lp.c, lp.A, lp.b), axis=0)])
    axes = [np.linspace(0.0, h, per_axis) for h in hi]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lp.n)
    ok = ((pts @ lp.A.T <= lp.b + 1e-12).all(axis=1)) & (pts >= 0).all(axis=1)
    pts = pts[ok]
    d = np.linalg.norm(pts - x, axis=1)
    i = int(np.argmin(d))
    pitch = max(h / (per_axis - 1) for h in hi)
    return pts[i], float(d[i]), pitch


def as_sorted_array(points):
    return np.array(sorted(np.round(np.asarray(points), 9).tolist()))


# ---------------------------------------------------------------- programs


def test_lp_validation():
    with pytest.raises(ValidationError):
        LinearProgram(c=np.ones(3), A=np.ones((2, 2)), b=np.ones(2))
    with pytest.raises(ValidationError):
        LinearProgram(c=np.ones(2), A=np.ones((2, 2)), b=np.ones(3))
    with pytest.raises(ValidationError):
        LinearProgram(c=np.array([1.0, np.inf]), A=np.ones((2, 2)), b=np.ones(2))


def test_is_feasible_box():
    lp = lp_box()
    assert is_feasible(lp, [1, 1])
    assert is_feasible(lp, [2, 3])  # inclusive boundary
    assert not is_feasible(lp, [3, 1])
    assert not is_feasible(lp, [1, -0.1])


def test_is_feasible_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        is_feasible(lp_box(), [1.0, 1.0, 1.0])


def test_min_slack_box():
    lp = lp_box()
    assert min_slack(lp, [1, 1]) == pytest.approx(1.0)
    assert min_slack(lp, [2, 3]) == pytest.approx(0.0)
    assert min_slack(lp, [3, 4]) == pytest.approx(-1.0)


def test_min_slack_ignores_nonnegativity():
    lp = lp_box()
    # negative coordinates do not show up in the slack
    assert min_slack(lp, [-1, -1]) == pytest.approx(3.0)
    assert not is_feasible(lp, [-1, -1])


def test_feasibility_matches_slack_and_sign_condition():
    lp = random_positive_lp(3, 4, seed=11)
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.uniform(-1.0, 3.0, size=(500, 3))
    for x in X:
        expected = (min_slack(lp, x) >= -FEAS_TOL) and (x >= -FEAS_TOL).all()
        assert is_feasible(lp, x) == expected


# ---------------------------------------------------------------- vertices


def probe_points(lp, kind):
    """Random points around the vertex box, points exactly on facets and
    axis planes (vertices, facet hits of the box, zeroed coordinates), or
    no points at all."""
    if kind == "empty":
        return np.empty((0, lp.n))
    bbox = vertex_bbox(lp, 1.5)
    X = np.random.Generator(np.random.PCG64(8)).uniform(bbox[:, 0] - 0.5, bbox[:, 1], size=(500, lp.n))
    if kind == "random":
        return X
    X[::2, 0] = 0.0
    X[1::4, -1] = -0.0
    facets = np.vstack([enumerate_vertices(lp).vertices, X])
    if lp.m == lp.n and (lp.A == np.eye(lp.n)).all():  # the box: x_i = b_i exactly
        facets[: len(X), 0] = lp.b[0]
    return facets


@pytest.mark.parametrize("kind", ["random", "facets", "empty"])
@pytest.mark.parametrize("make_lp", [lp_box, lp_tri, lambda: random_positive_lp(4, 5, 3),
                                     lambda: random_positive_lp(6, 8, 3)],
                         ids=["box", "tri", "4x5", "6x8"])
def test_column_row_minima_match_axis_reductions(make_lp, kind):
    lp = make_lp()
    X = probe_points(lp, kind)
    slacks = slack_values(lp, X)
    reference = slacks.min(axis=1)
    assert min_slack_many(lp, X).tobytes() == reference.tobytes()
    mask = feasible_mask(lp, X)
    assert mask.tobytes() == ((reference >= -FEAS_TOL) & (X >= -FEAS_TOL).all(axis=1)).tobytes()
    if kind == "facets":
        assert (reference == 0).any() and mask.any() and not mask.all()


def test_box_vertices():
    vs = enumerate_vertices(lp_box())
    np.testing.assert_allclose(
        as_sorted_array(vs.vertices), [[0, 0], [0, 3], [2, 0], [2, 3]], atol=1e-12
    )


def test_tri_vertices():
    vs = enumerate_vertices(lp_tri())
    np.testing.assert_allclose(
        as_sorted_array(vs.vertices), [[0, 0], [0, 4], [4, 0]], atol=1e-12
    )


def test_vertices_match_oracle_random_2d():
    for seed in range(10):
        lp = random_positive_lp(2, 4, seed=seed)
        got = as_sorted_array(enumerate_vertices(lp).vertices)
        want = as_sorted_array(oracle_vertices(lp.c, lp.A, lp.b))
        assert got.shape == want.shape, f"seed {seed}"
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_vertices_match_oracle_random_3d():
    for seed in range(5):
        lp = random_positive_lp(3, 5, seed=100 + seed)
        got = as_sorted_array(enumerate_vertices(lp).vertices)
        want = as_sorted_array(oracle_vertices(lp.c, lp.A, lp.b))
        assert got.shape == want.shape, f"seed {seed}"
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_vertex_soundness():
    lp = random_positive_lp(3, 5, seed=42)
    vs = enumerate_vertices(lp)
    normals = np.vstack([lp.A, np.eye(lp.n)])
    offsets = np.concatenate([lp.b, np.zeros(lp.n)])
    for v in vs.vertices:
        assert is_feasible(lp, v)
        active = np.abs(normals @ v - offsets) <= 1e-7
        assert active.sum() >= lp.n
        assert np.linalg.matrix_rank(normals[active]) == lp.n


def integer_program(seed, noise):
    """A 4-d program with small integer coefficients, some negative, so that
    degenerate vertices, an infeasible origin and empty sets all occur; with
    ``noise`` every coefficient moves by about 1e-10, splitting the
    degenerate vertices into clusters closer than the tolerances."""
    gen = np.random.Generator(np.random.PCG64(1000 + seed))
    A = gen.integers(-2, 4, size=(5, 4)).astype(float)
    b = gen.integers(-1, 6, size=5).astype(float)
    if noise:
        A += 1e-10 * gen.standard_normal(A.shape)
        b += 1e-10 * gen.standard_normal(b.shape)
    return LinearProgram(c=np.ones(4), A=A, b=b)


HAND_BUILT = {
    # (4, 0) lies on x1 + x2 = 4, x1 = 4 and x2 = 0
    "three-planes": ([[1, 1], [1, 0]], [4, 4]),
    # four facets meet at the apex (1, 1, 1)
    "pyramid-apex": ([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], [2, 0, 2, 0]),
    # the cut x1 + x2 + x3 <= 3 passes through the unit cube's corner (1, 1, 1)
    "cube-corner": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [1, 1, 1, 3]),
    "duplicate-rows": ([[1, 1, 0], [1, 1, 0], [0, 1, 1]], [2, 2, 3]),
    "unbounded": ([[1, -1, 0], [0, 1, -1]], [1, 2]),
    # x1 >= 1, so the origin is infeasible and the walk starts from a scanned basis
    "negative-b": ([[-1, -1, 0], [1, 1, 1], [0, 0, -1]], [-1, 5, -0.5]),
    # x1 + x2 + x3 <= 1 and >= 2: both enumerations must raise
    "empty": ([[1, 1, 1], [-1, -1, -1]], [1, -2]),
}

ORACLE_PROGRAMS = {
    "box": lp_box,
    "tri": lp_tri,
    "5d": lp_5d,
    **{name: (lambda A=A, b=b: LinearProgram(c=np.ones(len(A[0])), A=np.array(A, float),
                                             b=np.array(b, float)))
       for name, (A, b) in HAND_BUILT.items()},
    **{f"random-{n}x{n + 2}-{seed}": (lambda n=n, seed=seed: random_positive_lp(n, n + 2, seed))
       for n in range(2, 9) for seed in (3, 4)},
    **{f"integer-4d-{seed}{'-noise' if noise else ''}": (lambda seed=seed, noise=noise: integer_program(seed, noise))
       for seed in range(12) for noise in (False, True)},
}


@pytest.mark.parametrize("make_lp", ORACLE_PROGRAMS.values(), ids=ORACLE_PROGRAMS.keys())
def test_vertices_equal_subset_loop(make_lp):
    lp = make_lp()
    try:
        want = subset_loop_vertices(lp)
    except EmptyVertexSetError:
        with pytest.raises(EmptyVertexSetError):
            enumerate_vertices(lp)
        return
    got = enumerate_vertices(lp).vertices
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


SOLVE_PROGRAMS = {name: make for name, make in ORACLE_PROGRAMS.items()
                  if name in ("box", "tri") or name.startswith("integer")}


@pytest.mark.parametrize("make_lp", SOLVE_PROGRAMS.values(), ids=SOLVE_PROGRAMS.keys())
def test_bases_solved_like_one_solve_each(make_lp):
    # the batched solve leaves NaN exactly where a solve of the system alone
    # raises, and its other rows are that solve's bytes
    lp = make_lp()
    normals = np.vstack([lp.A, np.eye(lp.n)])
    offsets = np.concatenate([lp.b, np.zeros(lp.n)])
    bases = np.array(list(itertools.combinations(range(lp.m + lp.n), lp.n)))
    want = np.full(bases.shape, np.nan)
    for i, rows in enumerate(bases):
        try:
            want[i] = np.linalg.solve(normals[rows], offsets[rows])
        except np.linalg.LinAlgError:
            continue
    got = _solve_bases(normals, offsets, bases)
    singular = np.isnan(want).all(axis=1)
    np.testing.assert_array_equal(np.isnan(got).all(axis=1), singular)
    assert got[~singular].tobytes() == want[~singular].tobytes()


@pytest.mark.parametrize("n, count", [(9, 102), (10, 377)])
def test_vertex_certificates_beyond_the_oracle(n, count):
    # too many subsets for the oracle: each vertex must be feasible and have
    # n independent active rows; the counts are the subset loop's
    lp = random_positive_lp(n, n + 2, seed=3)
    V = enumerate_vertices(lp).vertices
    assert V.shape == (count, n) and feasible_mask(lp, V).all()
    normals = np.vstack([lp.A, np.eye(n)])
    offsets = np.concatenate([lp.b, np.zeros(n)])
    for v in V:
        active = np.abs(normals @ v - offsets) <= 1e-12 * max(1.0, np.abs(offsets).max())
        assert np.linalg.matrix_rank(normals[active]) == n


# 9x11 has 102 vertices among C(20, 9) = 167,960 subsets; a walk over
# feasible bases solves a few thousand systems in well under a megabyte


def test_vertex_walk_memory_follows_the_output():
    tracemalloc.start()
    try:
        enumerate_vertices(random_positive_lp(9, 11, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_vertex_walk_solves_follow_the_output(monkeypatch):
    systems = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: systems.append(a.size // 9**2) or solve(a, b))
    enumerate_vertices(random_positive_lp(9, 11, seed=3))
    assert sum(systems) <= 5000


# ---------------------------------------------------------------- projection


def test_projection_identity_on_feasible():
    lp = lp_box()
    np.testing.assert_array_equal(project_feasible(lp, [1, 1]), [1, 1])


def test_projection_clamps_box():
    np.testing.assert_allclose(project_feasible(lp_box(), [3, 3]), [2, 3], rtol=0, atol=1e-12)


def test_projection_tri_diagonal():
    np.testing.assert_allclose(project_feasible(lp_tri(), [4, 4]), [2, 2], rtol=0, atol=1e-12)


def test_projection_against_grid_oracle():
    lp = lp_tri()
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(5):
        x = rng.uniform(0, 6, size=2)
        p = project_feasible(lp, x)
        _, best, pitch = oracle_grid_projection(lp, x, per_axis=201)
        assert np.linalg.norm(x - p) <= best + 2 * pitch
        assert min_slack(lp, p) >= -1e-12 and (p >= -1e-12).all()


def test_projection_variational_inequality():
    # for the exact projection p of x onto convex C: (x-p).(z-p) <= 0 for z in C
    lp = random_positive_lp(3, 4, seed=9)
    rng = np.random.Generator(np.random.PCG64(10))
    hi = np.max(enumerate_vertices(lp).vertices, axis=0)
    X = rng.uniform(0, 2 * hi, size=(20, 3))
    Z = rng.uniform(0, hi, size=(500, 3))
    Z = Z[[is_feasible(lp, z) for z in Z]]
    assert len(Z) > 50
    P = project_feasible_many(lp, X)
    for x, p in zip(X, P):
        inner = (Z - p) @ (x - p)
        assert inner.max() <= 1e-12


def test_projection_idempotent():
    lp = random_positive_lp(2, 3, seed=21)
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.uniform(0, 5, size=(20, 2))
    P = project_feasible_many(lp, X)
    P2 = project_feasible_many(lp, P)
    np.testing.assert_allclose(P, P2, rtol=0, atol=1e-12)


def assert_projection_certified(lp, X, P):
    """Feasible rows are returned unchanged; every projection is feasible and
    passes the vertex certificate: p is the projection of x iff p is feasible
    and (x - p).(v - p) <= 0 for every vertex v of the polytope."""
    inside = np.array([is_feasible(lp, x) for x in X])
    np.testing.assert_array_equal(P[inside], X[inside])
    assert (P @ lp.A.T - lp.b).max() <= 1e-12 and (-P).max() <= 1e-12
    # past n = 8 the oracle's determinants take too long; the walk's vertex
    # counts are pinned there by test_vertex_certificates_beyond_the_oracle
    V = oracle_vertices(lp.c, lp.A, lp.b) if lp.n <= 8 else enumerate_vertices(lp).vertices
    for x, p in zip(X[~inside], P[~inside]):
        to_v = V - p
        scale = np.linalg.norm(x - p) * np.linalg.norm(to_v, axis=1).max()
        assert (to_v @ (x - p)).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", range(2, 11))
def test_projection_certificates_on_random_programs(n):
    lp = random_positive_lp(n, n + 2, seed=3)
    bbox = vertex_bbox(lp, 2.0)
    X = np.random.Generator(np.random.PCG64(n)).uniform(bbox[:, 0], bbox[:, 1], size=(300, n))
    assert_projection_certified(lp, X, project_feasible_many(lp, X))


def test_projection_onto_degenerate_vertex():
    # (4, 0) has three active constraints in two dimensions: x1 + x2 <= 4, x1 <= 4, x2 >= 0
    lp = LinearProgram(c=np.ones(2), A=np.array([[1.0, 1.0], [1.0, 0.0]]), b=np.array([4.0, 4.0]))
    X = np.array([[7.0, -2.0], [6.0, 1.0], [4.0, 4.0], [1.0, 1.0]])
    P = project_feasible_many(lp, X)
    np.testing.assert_allclose(P[:3], [[4, 0], [4, 0], [2, 2]], rtol=0, atol=1e-12)
    assert_projection_certified(lp, X, P)


def test_projection_onto_empty_set_raises():
    # x1 <= -1 and x >= 0 have no common point, so no active set certifies a projection
    lp = LinearProgram(c=np.ones(2), A=np.array([[1.0, 0.0]]), b=np.array([-1.0]))
    with pytest.raises(ProjectionFailureError):
        project_feasible_many(lp, [[0.5, 0.5]])


def subset_loop_probes(lp):
    """Points around the vertex box, the vertices, the vertices moved 1e-9
    outward from their centroid, and 1.5 times the vertices."""
    V = enumerate_vertices(lp).vertices
    lo, hi = V.min(axis=0), V.max(axis=0)
    pad = (hi - lo) / 2 + 1
    around = np.random.Generator(np.random.PCG64(lp.n)).uniform(lo - pad, hi + pad, size=(200, lp.n))
    out = V - V.mean(axis=0)
    out /= np.maximum(np.linalg.norm(out, axis=1, keepdims=True), 1e-300)
    return np.vstack([around, V, V + 1e-9 * out, 1.5 * V])


# the reference tries every subset, so 7x9 and 8x10 (26k and 107k subsets) stay out
SUBSET_LOOP_PROGRAMS = {name: make for name, make in ORACLE_PROGRAMS.items() if sum(make().A.shape) <= 14}


@pytest.mark.parametrize("make_lp", SUBSET_LOOP_PROGRAMS.values(), ids=SUBSET_LOOP_PROGRAMS.keys())
def test_projection_equals_subset_loop(make_lp):
    lp = make_lp()
    try:
        X = subset_loop_probes(lp)
    except EmptyVertexSetError:
        X = np.random.Generator(np.random.PCG64(0)).uniform(-1, 3, size=(20, lp.n))
        for project in (subset_loop_projection, project_feasible_many):
            with pytest.raises(ProjectionFailureError):
                project(lp, X)
        return
    want = subset_loop_projection(lp, X)
    assert project_feasible_many(lp, X).tobytes() == want.tobytes()


def test_active_set_factors_are_memoised(monkeypatch):
    factored = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda G: factored.append(G) or pinv(G))
    lp = random_positive_lp(4, 5, seed=3)
    bbox = vertex_bbox(lp, 2.0)
    gen = np.random.Generator(np.random.PCG64(12))
    X, Y = (gen.uniform(bbox[:, 0], bbox[:, 1], size=(300, 4)) for _ in range(2))
    cold = project_feasible_many(lp, X)
    # one pinv per distinct face, none on a rank-deficient set, in trial order
    faces = list(lp._active_sets)
    subsets = {rows for basis in enumerate_vertices(lp).bases for k in range(1, 5)
               for rows in itertools.combinations(basis, k)}
    assert faces == sorted(subsets, key=lambda rows: (len(rows), rows))
    assert len(factored) == len(faces) < sum(comb(9, k) for k in range(1, 5))
    assert all(np.linalg.matrix_rank(G) == len(G) for G in factored)
    # a second call, on the same or fresh points, factors nothing
    assert project_feasible_many(lp, X).tobytes() == cold.tobytes()
    warm = project_feasible_many(lp, Y)
    assert len(factored) == len(faces)
    again = random_positive_lp(4, 5, seed=3)
    assert again._active_sets == {}
    assert project_feasible_many(again, Y).tobytes() == warm.tobytes()
    assert_projection_certified(lp, Y, warm)
    # a copy of a warm program carries the memo, factors nothing and projects to the same bytes
    for clone in (pickle.loads(pickle.dumps(lp)), copy.deepcopy(lp)):
        assert list(clone._active_sets) == faces and clone.digest() == lp.digest()
        before = len(factored)
        assert project_feasible_many(clone, Y).tobytes() == warm.tobytes()
        assert len(factored) == before


# 8x10 has 3,142 faces among the 106,761 sets of 1 to 8 of its 18 halfspaces


def test_projection_factors_follow_the_faces(monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda G: calls.append(G.shape) or pinv(G))
    lp = random_positive_lp(8, 10, seed=3)
    bbox = vertex_bbox(lp, 2.0)
    X = np.random.Generator(np.random.PCG64(8)).uniform(bbox[:, 0], bbox[:, 1], size=(300, 8))
    assert_projection_certified(lp, X, project_feasible_many(lp, X))
    assert len(calls) <= 3142


def test_vertex_enumeration_is_memoized_and_read_only():
    lp = random_positive_lp(3, 4, seed=5)
    first = enumerate_vertices(lp)
    assert enumerate_vertices(lp) is first
    assert not first.vertices.flags.writeable
    with pytest.raises(ValueError):
        first.vertices[0, 0] = 1.0
    # a new instance of the same program enumerates afresh, to the same bytes
    again = enumerate_vertices(random_positive_lp(3, 4, seed=5))
    assert again is not first
    assert again.vertices.tobytes() == first.vertices.tobytes()


# ---------------------------------------------------------------- optimize


def test_solve_on_vertices_box():
    v, val = solve_on_vertices(lp_box(), "maximize")
    np.testing.assert_allclose(v, [2, 3])
    assert val == pytest.approx(8.0)
    v, val = solve_on_vertices(lp_box(), "minimize")
    np.testing.assert_allclose(v, [0, 0])
    assert val == pytest.approx(0.0)


def test_solve_tie_break_lexicographic():
    v, val = solve_on_vertices(lp_tri(), "maximize")
    np.testing.assert_allclose(v, [0, 4])  # ties with (4,0), lexicographic rule
    assert val == pytest.approx(4.0)


def test_solve_direction_validated():
    with pytest.raises(ValidationError):
        solve_on_vertices(lp_box(), "sideways")


# ---------------------------------------------------------------- files


def test_lp_round_trip(tmp_path):
    lp = random_positive_lp(3, 4, seed=77)
    path = tmp_path / "prog.json"
    save_lp(lp, path)
    lp2 = load_lp(path)
    np.testing.assert_array_equal(lp.c, lp2.c)
    np.testing.assert_array_equal(lp.A, lp2.A)
    np.testing.assert_array_equal(lp.b, lp2.b)
    assert lp.digest() == lp2.digest()


def test_vertex_bbox_box():
    box = vertex_bbox(lp_box())
    np.testing.assert_allclose(box, [[0, 3.0], [0, 4.5]])
