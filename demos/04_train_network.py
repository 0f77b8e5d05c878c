"""
Training the approximator network
=================================

The model is a fixed-shape feed-forward network (7 weight layers, width 64,
softplus hidden activations) trained with momentum SGD on one encoding.
Training is deterministic: one seed fixes the initialization, the batch
order, and therefore every weight.
"""

import os
import tempfile

import numpy as np

from lpattr.data import generate_dataset
from lpattr.encodings import make_encoding
from lpattr.fixtures import lp_box
from lpattr.nn import ModelConfig, load_model, save_model, train_model

lp = lp_box()
enc = make_encoding(lp, "boundary-distance")
ds = generate_dataset(lp, enc, count=8000, seed=7)

config = ModelConfig(epochs=10, seed=7)
model = train_model(ds, config)
print("training summary:", {k: round(v, 6) for k, v in model.training_summary.items()})

# The model answers two queries: values and input gradients.
x = np.array([1.0, 1.5])
print(f"target  at {x}: {enc.values(x)[0]:.4f}")
print(f"predict at {x}: {model.predict(x):.4f}")
print(f"input gradient: {np.round(model.input_gradient(x), 4)}")

# The gradient is an exact derivative of the prediction, not an estimate:
h = 1e-5
fd = [(model.predict(x + h * e) - model.predict(x - h * e)) / (2 * h) for e in np.eye(2)]
print(f"central differences: {np.round(fd, 4)}")

# Determinism: same dataset + same config = identical weights.
again = train_model(ds, ModelConfig(epochs=10, seed=7))
print("retrained weights identical:",
      all(np.array_equal(a, b) for a, b in zip(model.weights, again.weights)))

# The container file round-trips the model byte-exactly.
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "bd.model")
    save_model(model, path)
    back = load_model(path)
    print("loaded model predicts identically:",
          np.array_equal(back.predict_many(ds.X[:100]), model.predict_many(ds.X[:100])))
    save_model(back, path + "2")
    print("container bytes stable:",
          open(path, "rb").read() == open(path + "2", "rb").read())
