"""
Empirical property analysis of the encodings
============================================

Four checkable properties distinguish the five encodings: continuity,
class separation by value threshold, boundary detectability, and whether
boundary points are the extreme values. All four are measured empirically
on samples, not asserted from theory, and each verdict carries a witness.
"""

import numpy as np

from lpattr.attribution import DIRECTED, METHOD_TAGS
from lpattr.fixtures import lp_box
from lpattr.properties import (
    EXPECTED_ENCODING_TRAITS,
    PROPERTY_NAMES,
    build_monotone_harness,
    classify_with_witness,
    directedness_test,
    encoding_property_table,
)
from lpattr.lp import feasible_mask

lp = lp_box()
reports = encoding_property_table(lp, sample_count=4000, seed=7)

short = {"continuity": "cont", "distinguish_class": "class",
         "distinguish_boundary": "bound", "boundary_extrema": "extre"}
print(f"{'encoding':22s} " + " ".join(f"{short[p]:>5}" for p in PROPERTY_NAMES))
for kind, rep in reports.items():
    row = rep.as_row()
    marks = " ".join(f"{'yes' if row[p] else 'no':>5}" for p in PROPERTY_NAMES)
    agree = all(row[p] == EXPECTED_ENCODING_TRAITS[kind][p] for p in PROPERTY_NAMES)
    print(f"{kind:22s} {marks}   matches reference: {agree}")

# A passing distinguish_class verdict ships a usable threshold witness:
# classify fresh points by value alone and compare to the true classes.
rng = np.random.default_rng(99)
fresh = rng.uniform([0, 0], [3, 4.5], size=(2000, 2))
rep = reports["feasibility"]
from lpattr.encodings import make_encoding

values = make_encoding(lp, "feasibility").values(fresh)
pred = classify_with_witness(rep, values)
truth = feasible_mask(lp, fresh)
print(f"\nfeasibility threshold witness on 2000 fresh points: "
      f"{float((pred == truth).mean()):.4f} agreement")

# Directedness is measured, for every method, on a model whose every true
# partial derivative is positive. Integrated gradients runs from its default
# zero baseline, so its verdict is that baseline's.
model = build_monotone_harness(n=2, seed=3)
print("\ndirectedness on the monotone harness:")
for tag in METHOD_TAGS + (DIRECTED,):
    rep = directedness_test(tag, model, seed=3)
    print(f"  {tag:28s} directed = {rep.directed} "
          f"(sign agreement {rep.stats['sign_agreement']:.2f})")
