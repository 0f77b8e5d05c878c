"""
Geometry of a fixed linear program
==================================

The whole package revolves around one object: minimize c.x subject to
A x <= b and x >= 0. This script walks the exact geometry helpers on the
two bundled 2-feature programs.
"""

import numpy as np

from lpattr.fixtures import lp_box, lp_tri
from lpattr.lp import (
    enumerate_vertices,
    min_slack,
    project_feasible,
    slack_values,
    solve_on_vertices,
    vertex_bbox,
)

for name, lp in (("box", lp_box()), ("tri", lp_tri())):
    print(f"=== {name}: n={lp.n} features, m={lp.m} constraint rows ===")
    print("c =", lp.c, " b =", lp.b)
    print("A =")
    print(lp.A)

    # Every vertex is an intersection of n active hyperplanes (constraint
    # rows or coordinate axes) that is feasible.
    vs = enumerate_vertices(lp)
    print("vertices:")
    print(np.round(vs.vertices, 6))

    # The optimum of a bounded LP sits on a vertex.
    arg, val = solve_on_vertices(lp)
    print(f"minimum of c.x over the polytope: {val:.6f} at {np.round(arg, 6)}")

    # Slack per row is b - A x; the smallest slack tells how close the
    # nearest constraint row is (negative = violated).
    for x in (np.array([0.5, 0.5]), np.array([5.0, 5.0])):
        print(f"slacks at {x}: {np.round(slack_values(lp, x[None, :])[0], 4)}"
              f"  min_slack = {min_slack(lp, x):.4f}")

    # Projection returns the nearest feasible point; feasible inputs are
    # fixed points of it.
    outside = np.array([4.0, 4.0])
    p = project_feasible(lp, outside)
    print(f"projection of {outside} onto the polytope: {np.round(p, 6)}")
    inside = np.array([0.25, 0.25])
    assert np.array_equal(project_feasible(lp, inside), inside)

    # Sampling and plotting regions default to 1.5x the vertex bounding box.
    print("default sampling box:")
    print(vertex_bbox(lp))
    print()
