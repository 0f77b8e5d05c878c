"""Ready-made programs used by the demos, experiments, and tests."""

from __future__ import annotations

import numpy as np

from .lp import LinearProgram
from .seeding import rng


def lp_box() -> LinearProgram:
    """Two variables, axis-aligned box: min x1 + 2 x2 s.t. x1 <= 2, x2 <= 3."""
    return LinearProgram(c=np.array([1.0, 2.0]),
                         A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                         b=np.array([2.0, 3.0]))


def lp_tri() -> LinearProgram:
    """Two variables, one diagonal constraint: min x1 + x2 s.t. x1 + x2 <= 4."""
    return LinearProgram(c=np.array([1.0, 1.0]),
                         A=np.array([[1.0, 1.0]]),
                         b=np.array([4.0]))


def lp_5d() -> LinearProgram:
    """Five variables, three strictly positive constraints.

    Coefficients are committed constants so every run sees the same
    polytope. Each constraint leans on one or two variables with small
    cross terms, which keeps the feasible region at a workable fraction
    of the default sampling box (a simplex-like region in five dimensions
    would be vanishingly thin there).
    """
    c = np.array([1.0, 0.8, 1.2, 0.6, 1.0])
    A = np.array([
        [1.0, 0.05, 0.05, 0.05, 0.05],
        [0.05, 0.9, 0.8, 0.05, 0.05],
        [0.05, 0.05, 0.05, 0.9, 0.85],
    ])
    b = np.array([2.0, 3.0, 3.2])
    return LinearProgram(c=c, A=A, b=b)


def random_positive_lp(n: int, m: int, seed: int) -> LinearProgram:
    """A random program with strictly positive c, A, b (so the origin is an
    interior-boundary vertex and the polytope is bounded)."""
    gen = rng(seed)
    A = gen.uniform(0.2, 1.5, size=(m, n))
    b = gen.uniform(1.0, 4.0, size=m)
    c = gen.uniform(0.5, 2.0, size=n)
    return LinearProgram(c=c, A=A, b=b)


NAMED = {
    "box": lp_box,
    "tri": lp_tri,
    "5d": lp_5d,
}

