"""Scalar functions that summarize a fixed program at a query point.

Each encoding maps a point x in R^n to one float. "Feasible" means
``A x <= b`` and ``x >= 0``, both within FEAS_TOL: ``lp.feasible_mask``,
the package's one feasibility rule. The five kinds:

- ``feasibility``: 1.0 on a feasible point, 0.0 elsewhere.
- ``gain-penalty``: the objective c.x when feasible; otherwise the objective
  at the projection x_f shrunk by how far x drifted,
  ``c.x_f * (1 - min(1, |x - x_f| / |x_f|))``, and 0 when x_f is the origin.
- ``boundary-distance``: the minimum constraint slack ``min(b - A x)``,
  positive inside, negative outside (nonnegativity bounds excluded).
- ``abs-boundary-distance``: absolute value of the above.
- ``vertex-distance``: Euclidean distance to the nearest retained vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigurationError, EmptyVertexSetError
from .lp import (
    VERTEX_DEDUP_TOL,
    LinearProgram,
    as_points,
    enumerate_vertices,
    feasible_mask,
    min_slack_many,
    project_feasible_many,
)

ENCODING_KINDS = (
    "feasibility",
    "gain-penalty",
    "boundary-distance",
    "abs-boundary-distance",
    "vertex-distance",
)


@dataclass
class Encoding:
    """One scalar encoding of one program.

    ``excluded_vertices`` only affects ``vertex-distance``: listed points are
    matched against the enumerated vertices (within VERTEX_DEDUP_TOL) and
    dropped from the retained set.
    """

    lp: LinearProgram
    kind: str
    excluded_vertices: np.ndarray | None = None
    _retained: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ENCODING_KINDS:
            raise ConfigurationError(f"unknown encoding kind {self.kind!r}; known: {ENCODING_KINDS}")
        if self.kind == "gain-penalty":
            lp = self.lp
            if not ((lp.c > 0).all() and (lp.b > 0).all() and (lp.A >= 0).all()):
                raise ConfigurationError(
                    "gain-penalty needs c > 0, b > 0 and A >= 0 so the objective is a gain"
                )
        if self.excluded_vertices is not None:
            self.excluded_vertices = as_points(self.excluded_vertices, self.lp.n)
        if self.kind == "vertex-distance":
            self._retained = self._retained_vertices()

    def _retained_vertices(self) -> np.ndarray:
        verts = enumerate_vertices(self.lp).vertices
        if self.excluded_vertices is not None:
            dists = np.linalg.norm(verts[:, None, :] - self.excluded_vertices[None, :, :], axis=2)
            keep = (dists > VERTEX_DEDUP_TOL).all(axis=1)
            verts = verts[keep]
        if verts.shape[0] == 0:
            raise EmptyVertexSetError("every vertex was excluded; nothing to measure distance to")
        return verts

    def values(self, X) -> np.ndarray:
        """Encoding values for a batch of points, shape (N,)."""
        X = as_points(X, self.lp.n)
        if self.kind == "feasibility":
            return feasible_mask(self.lp, X).astype(float)
        if self.kind == "boundary-distance":
            return min_slack_many(self.lp, X)
        if self.kind == "abs-boundary-distance":
            return np.abs(min_slack_many(self.lp, X))
        if self.kind == "vertex-distance":
            # one (N,) distance array per vertex at a time, not an (N, k, n) broadcast
            return reduce(np.minimum, (np.linalg.norm(X - v, axis=1) for v in self._retained))
        return self._gain_penalty_values(X)

    def _gain_penalty_values(self, X: np.ndarray) -> np.ndarray:
        lp = self.lp
        out = X @ lp.c
        inside = feasible_mask(lp, X)
        if (~inside).any():
            outside_pts = X[~inside]
            proj = project_feasible_many(lp, outside_pts)
            proj_norm = np.linalg.norm(proj, axis=1)
            drift = np.linalg.norm(outside_pts - proj, axis=1)
            gain = proj @ lp.c
            vals = np.zeros(len(proj))
            nz = proj_norm > 1e-12
            vals[nz] = gain[nz] * (1.0 - np.minimum(1.0, drift[nz] / proj_norm[nz]))
            out[~inside] = vals
        return out


def make_encoding(lp: LinearProgram, kind: str, excluded_vertices=None) -> Encoding:
    return Encoding(lp=lp, kind=kind, excluded_vertices=excluded_vertices)


def all_encodings(lp: LinearProgram, excluded_vertices=None) -> dict[str, Encoding]:
    """All five encodings keyed by kind. The exclusion list only reaches
    vertex-distance; other kinds ignore it."""
    out = {}
    for kind in ENCODING_KINDS:
        ex = excluded_vertices if kind == "vertex-distance" else None
        out[kind] = make_encoding(lp, kind, excluded_vertices=ex)
    return out
