"""
Five scalar encodings of one program
====================================

Each encoding turns the fixed program into a scalar function of x, the
training target for the network. Walking a straight line that crosses the
feasible boundary shows how differently they behave there.
"""

import numpy as np

from lpattr.encodings import all_encodings
from lpattr.fixtures import lp_box
from lpattr.lp import min_slack_many

lp = lp_box()
encodings = all_encodings(lp, excluded_vertices=np.zeros((1, lp.n)))

# A ray from deep inside the polytope to well outside it. The box fixture
# is feasible on [0,2] x [0,3], so the boundary crossing sits at x1 = 2.
ts = np.linspace(0.0, 1.0, 13)
line = np.stack([0.5 + 2.5 * ts, 1.0 + 0.5 * ts], axis=1)

slacks = min_slack_many(lp, line)
columns = {kind: enc.values(line) for kind, enc in encodings.items()}

# each value column is as wide as its kind's name
print(f"{'x1':>6} {'x2':>6} {'min_slack':>10} " + " ".join(columns))
for i, (x1, x2) in enumerate(line):
    cells = " ".join(f"{columns[k][i]:{len(k)}.4f}" for k in columns)
    print(f"{x1:6.3f} {x2:6.3f} {slacks[i]:10.4f} {cells}")

print()
print("observations on the crossing:")
print(" - feasibility jumps from 1 to 0; every other encoding moves smoothly")
print(" - boundary-distance is exactly the min slack, so it crosses zero")
print(" - abs-boundary-distance folds that tent at zero: boundary = minimum")
print(" - gain-penalty equals the objective gain inside, then decays with drift")
print(" - vertex-distance ignores the boundary; it tracks the retained vertices")

# The feasibility encoding is the indicator used for classification targets;
# the others are regression targets. Feasible means A x <= b and x >= 0, so
# a point left of the x2 axis is infeasible even where every row holds;
# the two boundary distances read the rows only and stay positive there.
print()
left = np.array([[-1.0, 1.0]])
for kind, enc in encodings.items():
    print(f"{kind:>21} at (-1, 1): {enc.values(left)[0]:.4f}  distinct values on the line: "
          f"{len(np.unique(columns[kind]))}")
