"""Geometry of a fixed linear program.

The program is ``min c.x  s.t.  A x <= b, x >= 0`` with ``c``, ``A``, ``b``
held constant. Everything here is exact polytope arithmetic: feasibility,
constraint slacks, vertex enumeration, Euclidean projection onto the
feasible set, and optimizing ``c.x`` over the vertices.

Two results depend on the program alone and are memoised on it, and
pickles and copies carry both: the vertex set (``enumerate_vertices``) and
the factored active sets the projection tries (``project_feasible_many``).
Both come from one walk over the feasible bases, so their cost grows with
the number of those bases, not with the C(m+n, n) choices of hyperplanes.

``as_point`` and ``as_points`` are the package's one point check, which
models and encodings share: a bad shape raises DimensionMismatchError.
``feasible_mask`` is its one feasibility rule, ``A x <= b`` and ``x >= 0``
within FEAS_TOL, which sampling, the encodings, the vertex walk, the
projection and the experiments share.

Throughout, "constraints" means the rows of ``A x <= b``; the nonnegativity
bounds ``x >= 0`` are tracked separately and only enter feasibility and the
vertex/projection geometry, never the slack values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, islice

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyVertexSetError,
    ProjectionFailureError,
    ValidationError,
    malformed_file,
)
from .serialize import digest_of, format_float

# Feasibility tolerance on slacks and nonnegativity (inclusive boundary).
FEAS_TOL = 1e-9
# Two candidate vertices closer than this (Euclidean) are duplicates.
VERTEX_DEDUP_TOL = 1e-7
# Most hyperplane subsets one batched solve takes while looking for a
# feasible basis to start the vertex walk from.
SCAN_BATCH = 4096


@dataclass(frozen=True)
class LinearProgram:
    """A fixed program ``min c.x  s.t.  A x <= b, x >= 0``.

    Attributes
    ----------
    c : (n,) cost vector
    A : (m, n) constraint matrix
    b : (m,) constraint bounds
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    _vertex_set: VertexSet | None = field(default=None, init=False, repr=False, compare=False)
    # active-set rows -> (G, pinv(G), pinv(G) @ h), one entry per face, in trial order
    _active_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise ValidationError("A must be a 2-d matrix")
        m, n = A.shape
        if n < 1 or m < 1:
            raise ValidationError("need at least one variable and one constraint")
        if c.shape != (n,):
            raise ValidationError(f"c must have shape ({n},), got {c.shape}")
        if b.shape != (m,):
            raise ValidationError(f"b must have shape ({m},), got {b.shape}")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValidationError("c, A, b must be finite")
        c.setflags(write=False)
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def digest(self) -> str:
        return digest_of({"n": self.n, "m": self.m, "c": self.c, "A": self.A, "b": self.b})


@dataclass(frozen=True)
class VertexSet:
    """Extreme points of the feasible polytope, one per row of ``vertices``."""

    vertices: np.ndarray  # (k, n), lexicographically sorted rows
    bases: tuple = field(repr=False)  # sorted row tuples of the feasible bases

    def __len__(self) -> int:
        return self.vertices.shape[0]


def as_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"point must have shape ({n},), got {x.shape}")
    return x


def as_points(X, n: int) -> np.ndarray:
    """(N, n) view of one point or a batch of points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(f"points must have shape (N, {n}), got {X.shape}")
    return X


def slack_values(lp: LinearProgram, X) -> np.ndarray:
    """Row slacks ``b - A x`` for a batch of points, shape (N, m), computed
    in the product's own buffer."""
    S = as_points(X, lp.n) @ lp.A.T
    return np.subtract(lp.b, S, out=S)


def _row_min(M: np.ndarray) -> np.ndarray:
    """Minimum of each row of an (N, k) array, k >= 1, by one np.minimum
    per column. Rows here are 1 to a few dozen wide, where this beats
    ``M.min(axis=1)``; min is exact, so the bits are the same."""
    return reduce(np.minimum, M.T)


def min_slack_many(lp: LinearProgram, X) -> np.ndarray:
    return _row_min(slack_values(lp, X))


def feasible_mask(lp: LinearProgram, X) -> np.ndarray:
    X = as_points(X, lp.n)
    return (min_slack_many(lp, X) >= -FEAS_TOL) & (_row_min(X) >= -FEAS_TOL)


def is_feasible(lp: LinearProgram, x) -> bool:
    """True iff ``A x <= b`` and ``x >= 0``, both within FEAS_TOL (boundary inclusive)."""
    return bool(feasible_mask(lp, as_point(x, lp.n))[0])


def min_slack(lp: LinearProgram, x) -> float:
    """Minimum of ``b - A x`` over rows. Ignores the nonnegativity bounds."""
    return float(min_slack_many(lp, as_point(x, lp.n))[0])


def _solve_bases(normals: np.ndarray, offsets: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Solution of each system ``normals[rows] x = offsets[rows]``, one per
    row of the (k, n) index array ``bases``; NaN rows where it is singular.
    slogdet and solve LU-factor the same column-major copy with partial
    pivoting, and solve raises only on an exactly zero pivot, so a sign of 0
    marks the systems a solve of each one alone rejects. The rest go to one
    batched solve, which factors each exactly as a solve of it alone does."""
    M, r = normals[bases], offsets[bases]
    ok = np.linalg.slogdet(M)[0] != 0
    out = np.full(bases.shape, np.nan)
    out[ok] = np.linalg.solve(M[ok], r[ok][..., None])[..., 0]
    return out


def _feasible_bases(lp: LinearProgram) -> dict:
    """Every feasible basis, as sorted row tuple -> solution.

    A basis is ``n`` of the ``m + n`` hyperplanes (constraint rows, then
    axis planes) whose system is nonsingular and whose solution is finite
    and passes ``feasible_mask``. The walk starts from the axis basis when
    the origin is feasible, else from the first feasible basis in
    ``combinations`` order (an empty program scans them all and has none).
    From each feasible basis it solves, in one batch, the neighbours that
    swap one of its rows for one outside it. Each basis is solved once;
    feasible ones join the walk.
    """
    n, total = lp.n, lp.m + lp.n
    normals = np.vstack([lp.A, np.eye(n)])
    offsets = np.concatenate([lp.b, np.zeros(n)])

    def feasible(X):
        return np.isfinite(X).all(axis=1) & feasible_mask(lp, X)

    # the scan solves in batches that double from the axis basis alone
    subsets, size = chain([tuple(range(lp.m, total))], combinations(range(total), n)), 1
    while chunk := list(islice(subsets, size)):
        X = _solve_bases(normals, offsets, np.array(chunk))
        ok = feasible(X)
        if ok.any():
            start, x = chunk[ok.argmax()], X[ok.argmax()]
            break
        size = min(2 * size, SCAN_BATCH)
    else:
        return {}
    found = {start: x}
    seen, todo = {start}, [start]
    while todo:
        basis = todo.pop()
        swaps = {
            tuple(sorted(basis[:i] + basis[i + 1:] + (j,)))
            for i in range(n) for j in range(total) if j not in basis
        }
        fresh = sorted(swaps - seen)
        if not fresh:
            continue
        seen.update(fresh)
        X = _solve_bases(normals, offsets, np.array(fresh))
        for rows, x, ok in zip(fresh, X, feasible(X)):
            if ok:
                found[rows] = x
                todo.append(rows)
    return found


def enumerate_vertices(lp: LinearProgram) -> VertexSet:
    """All extreme points of ``{A x <= b, x >= 0}``.

    A vertex is the solution of ``n`` active hyperplanes among the ``m``
    constraint rows and the ``n`` axis planes ``x_i = 0``. Rather than solve
    all C(m+n, n) choices, ``_feasible_bases`` walks the graph of feasible
    bases, so time and memory grow with the number of feasible bases and
    their ``n·m`` neighbours. In exact arithmetic the walk misses no basis:
    the bases of one (degenerate) vertex are joined by matroid basis
    exchange, two vertices on an edge have bases one exchange apart, and the
    vertices and bounded edges of a pointed polyhedron form a connected
    graph. So it finds the feasible bases a loop over every subset finds,
    each solved alike; the tests hold the two to the same bytes, degenerate
    and 1e-10-perturbed programs included. The solutions, in row-tuple
    order, are sorted lexicographically and near-duplicates dropped. An
    unbounded polyhedron yields its vertices only; an empty one raises.
    Computed once per program and memoised on it with the bases, which the
    projection's active sets come from; the array is read-only.
    """
    if lp._vertex_set is not None:
        return lp._vertex_set
    if not (bases := _feasible_bases(lp)):
        raise EmptyVertexSetError("no feasible vertex found; the feasible set is empty")
    # row-tuple order is the subset loop's order; lexsort is stable and ties
    # 0.0 with -0.0, so this order decides which of such rows dedup keeps
    cand = np.array([bases[rows] for rows in sorted(bases)])
    # lexicographic order makes dedup and downstream tie-breaks deterministic
    cand = cand[np.lexsort(cand.T[::-1])]
    kept: list[int] = []
    for i, v in enumerate(cand):
        # a kept row with a coordinate more than twice the tolerance away is
        # farther than the tolerance; only the others need their distance
        earlier = cand[kept]
        near = earlier[np.abs(earlier - v).max(axis=1) <= 2 * VERTEX_DEDUP_TOL]
        if all(np.linalg.norm(v - w) > VERTEX_DEDUP_TOL for w in near):
            kept.append(i)
    vertices = cand[kept]
    vertices.setflags(write=False)
    object.__setattr__(lp, "_vertex_set", VertexSet(vertices, tuple(sorted(bases))))
    return lp._vertex_set


def _active_set_factors(lp: LinearProgram) -> dict:
    """``lp._active_sets``, filled on the first projection with every face's
    active set in trial order (size k = 1..n, then rows). Only a face's set
    certifies, as the y it certifies is feasible. ``x >= 0`` makes the
    polyhedron pointed, so every nonempty face holds a vertex, where its
    independent active rows extend to a feasible basis: the candidates are
    the k-subsets of the walk's bases, the subset loop's order without the
    non-faces. An empty program has none."""
    if not lp._active_sets:
        try:
            bases = enumerate_vertices(lp).bases
        except EmptyVertexSetError:
            return {}
        G_all, h_all = np.vstack([lp.A, -np.eye(lp.n)]), np.concatenate([lp.b, np.zeros(lp.n)])
        faces = {rows for basis in bases for k in range(1, lp.n + 1) for rows in combinations(basis, k)}
        for rows in sorted(faces, key=lambda rows: (len(rows), rows)):
            G = G_all[list(rows)]
            pinv = np.linalg.pinv(G)  # G^T (G G^T)^-1, better conditioned than inverting G G^T
            lp._active_sets[rows] = (G, pinv, pinv @ h_all[list(rows)])
    return lp._active_sets


def project_feasible_many(lp: LinearProgram, X) -> np.ndarray:
    """Euclidean projection of each row of ``X`` onto ``{A x <= b, x >= 0}``.

    Exact and finite: the active set S of each face, k = 1..n halfspaces with
    independent normals ``G_S``, is tried in turn. The projection of x onto
    ``G_S y = h_S`` is ``y = x - G_S^T mu``, ``mu = (G_S G_S^T)^-1 (G_S x - h_S)``;
    when ``mu >= 0`` and ``y`` is feasible, these are the KKT conditions of
    the unique projection. Feasible rows come back unchanged; a row that no
    active set certifies raises ProjectionFailureError, as on an empty
    program. The factors are memoised, so only the first projection pays.
    """
    X = as_points(X, lp.n)
    out = X.copy()
    left = np.flatnonzero(~feasible_mask(lp, X))
    if left.size == 0:
        return out
    for G, pinv, pinv_h in _active_set_factors(lp).values():
        x = X[left]
        mu = (x - pinv_h) @ pinv
        y = x - mu @ G
        ok = _row_min(mu) >= -FEAS_TOL
        ok[ok] = feasible_mask(lp, y[ok])
        out[left[ok]] = y[ok]
        left = left[~ok]
        if left.size == 0:
            return out
    raise ProjectionFailureError(f"no active set certifies the projection of {left.size} row(s)")


def project_feasible(lp: LinearProgram, x) -> np.ndarray:
    """Closest feasible point to ``x``; equal to ``x`` when it is already feasible."""
    return project_feasible_many(lp, as_point(x, lp.n))[0]


def solve_on_vertices(lp: LinearProgram, direction: str = "minimize"):
    """Optimize ``c.x`` over the vertices.

    Returns ``(vertex, objective)``. Exact objective ties go to the
    lexicographically smallest vertex.
    """
    if direction not in ("minimize", "maximize"):
        raise ValidationError("direction must be 'minimize' or 'maximize'")
    vertices = enumerate_vertices(lp).vertices
    values = vertices @ lp.c
    # vertices are lexicographically sorted and argmin/argmax take the first index
    best = int(np.argmin(values) if direction == "minimize" else np.argmax(values))
    return vertices[best].copy(), float(values[best])


def vertex_bbox(lp: LinearProgram, margin: float = 1.5) -> np.ndarray:
    """Per-dimension sampling box [0, margin * max vertex coordinate], shape (n, 2)."""
    vs = enumerate_vertices(lp)
    hi = vs.vertices.max(axis=0) * margin
    if (hi <= 0).any():
        raise ValidationError("polytope is flat along some axis; supply an explicit box")
    return np.column_stack([np.zeros(lp.n), hi])


def save_lp(lp: LinearProgram, path) -> None:
    """Write the program as structured text (17 significant digits)."""

    def vec(v):
        return "[" + ", ".join(format_float(x) for x in v) + "]"

    rows = ",\n    ".join(vec(row) for row in lp.A)
    text = (
        "{\n"
        f'  "n": {lp.n},\n'
        f'  "m": {lp.m},\n'
        f'  "c": {vec(lp.c)},\n'
        f'  "A": [\n    {rows}\n  ],\n'
        f'  "b": {vec(lp.b)}\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_lp(path) -> LinearProgram:
    """Read a program written by save_lp; a malformed file raises ValidationError."""
    with open(path, "r", encoding="utf-8") as fh, malformed_file(path, "program file"):
        doc = json.load(fh)
        lp = LinearProgram(*(np.array(doc[key], dtype=float) for key in ("c", "A", "b")))
    if lp.n != doc.get("n", lp.n) or lp.m != doc.get("m", lp.m):
        raise ValidationError("declared n/m do not match the array shapes")
    return lp
