"""
Four attribution methods side by side
=====================================

Attributions explain one model prediction by assigning each feature a
contribution. The four methods answer subtly different questions, which the
closed-form model below makes visible: F(x) = 2 x1 - 3 x2 + x1 x2.
"""

import numpy as np

from lpattr.attribution import (
    IGConfig,
    PerturbConfig,
    attribute,
    directed_feature_permutation,
)
from lpattr.nn import AnalyticModel

model = AnalyticModel(
    fn=lambda X: 2.0 * X[:, 0] - 3.0 * X[:, 1] + X[:, 0] * X[:, 1],
    grad=lambda X: np.stack([2.0 + X[:, 1], -3.0 + X[:, 0]], axis=1),
    input_dim=2,
)
x = np.array([1.0, 2.0])
print(f"F({x}) = {model.predict(x):.4f}, gradient = {model.input_gradient(x)}")
print()

for method in ("integrated-gradients", "saliency", "feature-permutation", "lime"):
    vec = attribute(model, x, method, ig_cfg=IGConfig(), perturb_cfg=PerturbConfig(seed=1))
    print(f"{method:22s} a = {np.round(vec.values, 4)}  sum = {vec.attribution_sum:+.4f}")

print()
print("what to notice:")
delta = model.predict(x) - model.predict(np.zeros(2))
print(f" - integrated-gradients sums to F(x) - F(0) = {delta:+.4f} (completeness)")
print(" - saliency is the raw gradient: the local slope, nothing else")
print(" - feature-permutation averages F(x) - F(x + d e_i) over signed d,")
print("   so on (locally) linear functions it hovers near zero")
print(" - lime fits a tiny ridge model around x; the ridge pulls it toward 0")

# The directed variant of feature-permutation probes each feature with a
# fixed step in both directions; it equals a central difference.
dfp = directed_feature_permutation(model, x, radius=0.1)
print(f"\ndirected feature-permutation: {np.round(dfp.values, 4)}"
      "  (central difference of F per feature)")
