"""
Attribution rasters and the two convergence studies
===================================================

A grid sweeps two features over a rectangle and evaluates one attribution
method at every cell, producing one channel per feature plus their exact
sum and the raw prediction. Channels ship as row,col,value CSVs and PPM
heatmaps (red = negative, white = zero, blue = positive).
"""

import os
import tempfile

import numpy as np

from lpattr.data import generate_dataset
from lpattr.encodings import make_encoding
from lpattr.experiments import experiment_directed_fp, experiment_lime_vs_saliency
from lpattr.fixtures import lp_box
from lpattr.grid import GridSpec, grid_attribution, save_grid_result, verify_grid_files
from lpattr.nn import ModelConfig, train_model

lp = lp_box()
enc = make_encoding(lp, "boundary-distance")
ds = generate_dataset(lp, enc, count=8000, seed=5)
model = train_model(ds, ModelConfig(epochs=10, seed=5))

spec = GridSpec(
    dim_x=0, dim_y=1,
    x_range=tuple(model.bbox[0]), y_range=tuple(model.bbox[1]),
    fixed_values=np.zeros(2),
    resolution=(60, 44),  # small here; the reference raster is 100 x 73
)
result = grid_attribution(model, "saliency", spec, seed=1)
for name, channel in result.channels.items():
    print(f"channel {name:10s} shape {channel.shape}  "
          f"range [{channel.min():+.4f}, {channel.max():+.4f}]")
identity = np.array_equal(result.channels["sum"],
                          result.channels["a1"] + result.channels["a2"])
print("sum channel equals feature channels exactly:", identity)

with tempfile.TemporaryDirectory() as d:
    save_grid_result(result, d, "demo")
    print("emitted files:", sorted(os.listdir(d)))
    print("verification:", verify_grid_files(d, "demo"))

# Study 1: local surrogate slopes approach the gradient as the perturbation
# radius shrinks (least-squares fit isolates the direction; the ridge
# variant shows the magnitude shrink instead).
print("\nsurrogate vs gradient, least-squares fit:")
rep = experiment_lime_vs_saliency(model, radii=(0.5, 0.1, 0.02), points=40,
                                  seed=2, ridge_lambda=0.0)
for row in rep["rows"]:
    print(f"  radius {row['radius']:<4} mean cosine {row['mean_cosine']:.5f}")
rep = experiment_lime_vs_saliency(model, radii=(0.5, 0.1, 0.02), points=40,
                                  seed=2, ridge_lambda=1.0)
print("ridge-regularized magnitudes:",
      [round(r["mean_magnitude"], 4) for r in rep["rows"]])
print(f"checked trend, {rep['trend']}: holds = {rep['trend_holds']}")

# Study 2: directed single-feature probes are algebraically a least-squares
# fit on the same probes; the two agree to rounding error.
rep = experiment_directed_fp(model, radius=0.1, points=50, seed=2)
print(f"\ndirected probes vs least-squares fit: max deviation "
      f"{rep['max_abs_deviation']:.2e} (undirected control "
      f"{rep['control_max_deviation']:.2e})")
