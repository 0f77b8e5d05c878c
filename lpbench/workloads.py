"""The three workloads. Each drives lpattr's public API in-process with the
calls the matching CLI subcommands make.

- surrogate-train: gen-data, train, and the dataset and model files, for a
  boundary-distance and a feasibility model on the box program.
- attribution-grid: four attribution rasters with their files, plus the
  directed-FP and LIME-vs-saliency experiments, on a model trained in set-up.
- lp-geometry: gain-penalty and vertex-distance datasets, two property
  tables, and one operation that fails today with CoverageError.

Each workload's ``inputs`` derives its seeds from the run seed through
``sub_seed``, outside the timed set-up; the programs themselves are fixed.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

import checks
import oracles
from harness import digest_bytes, file_bytes, sub_seed
from lpattr.attribution import directed_feature_permutation
from lpattr.data import generate_dataset, load_dataset, save_dataset
from lpattr.encodings import make_encoding
from lpattr.errors import CoverageError
from lpattr.experiments import experiment_directed_fp, experiment_lime_vs_saliency
from lpattr.fixtures import lp_5d, lp_box, random_positive_lp
from lpattr.grid import GridSpec, grid_attribution, image_rows, save_grid_result, verify_grid_files
from lpattr.lp import enumerate_vertices, project_feasible_many, vertex_bbox
from lpattr.nn import ModelConfig, fit_arrays, load_model, save_model, train_model
from lpattr.properties import encoding_property_table
from lpattr.render import render_heatmap
from lpattr.serialize import canonical_json


def _uniform(bbox, count: int, seed: int, shrink: float = 0.0) -> np.ndarray:
    """Fresh points for the checks, uniform in a box shrunk by ``shrink`` of
    its span on every side."""
    lo, hi = bbox[:, 0], bbox[:, 1]
    pad = shrink * (hi - lo)
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo + pad, hi - pad, size=(count, len(lo)))


def _rate(rounds, work: float, suffixes) -> float:
    """``work`` per second of the median round's time in the named ops."""
    return work / float(np.median([sum(r.seconds(s) for s in suffixes) for r in rounds]))


# ----------------------------------------------------------------- surrogate


def _exact_labels(lp, kind, X) -> np.ndarray:
    label = oracles.feasibility_labels if kind == "feasibility" else oracles.min_slack
    return label(lp.A, lp.b, X)


def _fit_r2(lp, kind, model, bbox, seed) -> float:
    """R² of ``model`` against the exact labels on 4,000 fresh points."""
    fresh = _uniform(bbox, 4_000, seed)
    return oracles.r_squared(model.predict_many(fresh), _exact_labels(lp, kind, fresh))


class SurrogateTrain:
    name = "surrogate-train"
    KINDS = ("boundary-distance", "feasibility")
    ROWS = 20_000
    # A model that learns nothing scores R² <= 0 on fresh points; models
    # that leave the plateau score 0.65-0.94 (feasibility) and 0.98-0.99
    # (boundary-distance).
    R2_MIN = 0.5
    # Dataset and model seeds on which default training of the
    # boundary-distance model stays on the constant-predictor plateau
    # (R² about 0). They do not depend on --seed, so that model fails the R²
    # gate in every round and its training is counted as failed. About one
    # seed in ten does the same for boundary-distance and one in a hundred
    # for feasibility, so the seeded feasibility model is not gated on R²;
    # ``_check_steps`` checks the trainer itself.
    PLATEAU_SEEDS = (307626447, 1340026844)
    ops_per_round = 6 * len(KINDS)
    setup_repeats = 5

    def inputs(self, seed):
        return {
            "seeds": {"boundary-distance": self.PLATEAU_SEEDS,
                      "feasibility": (sub_seed(seed, 1, 1), sub_seed(seed, 2, 1))},
            "eval_seed": sub_seed(seed, 3),
        }

    def setup(self, inputs, workdir):
        lp = lp_box()
        return dict(inputs, lp=lp, encodings={k: make_encoding(lp, k) for k in self.KINDS},
                    workdir=workdir)

    def setup_digest(self, state):
        return canonical_json([state["lp"].digest(), state["seeds"]])

    def round(self, st, r):
        for kind in self.KINDS:
            data_seed, model_seed = st["seeds"][kind]
            csv = os.path.join(st["workdir"], f"data-{kind}.csv")
            path = os.path.join(st["workdir"], f"data-{kind}-model.model")
            ds = r.op(f"{kind}.generate_dataset", generate_dataset, st["lp"], st["encodings"][kind],
                      self.ROWS, seed=data_seed)
            r.op(f"{kind}.save_dataset", save_dataset, ds, csv)
            loaded = r.op(f"{kind}.load_dataset", load_dataset, csv)
            pinned = st["seeds"][kind] == self.PLATEAU_SEEDS
            model = r.op(f"{kind}.train_model", train_model, loaded, ModelConfig(seed=model_seed),
                         accept=(lambda m: _fit_r2(st["lp"], kind, m, ds.bbox, st["eval_seed"])
                                 >= self.R2_MIN) if pinned else None)
            r.op(f"{kind}.save_model", save_model, model, path)
            back = r.op(f"{kind}.load_model", load_model, path)
            r.out[kind] = (ds, loaded, model, back)
            r.digests.append(digest_bytes(file_bytes(csv, csv + ".meta.json", path)))

    def check(self, st, r):
        lp, problems = st["lp"], []
        for kind, (ds, loaded, model, back) in r.out.items():
            problems += checks.slack_labels(kind, kind, lp.A, lp.b, ds.X, ds.y)
            problems += checks.dataset_round_trip(f"{kind} dataset", ds, loaded)
            problems += checks.model_round_trip(f"{kind} model", model, back,
                                                _uniform(ds.bbox, 500, st["eval_seed"]))
            val_X = ds.X[ds.val_indices]
            problems += checks.reported_fit(f"{kind} model", back.training_summary,
                                            back.predict_many, val_X, _exact_labels(lp, kind, val_X))
            inner = _uniform(ds.bbox, 64, st["eval_seed"] + 1, shrink=0.1)
            problems += checks.gradients(f"{kind} model", back.predict_many,
                                         back.input_gradient_many, inner)
        return problems + self._check_steps(lp, r.out["feasibility"][0].bbox, st["eval_seed"])

    def _check_steps(self, lp, bbox, seed):
        """Two full-batch steps of the default network on 64 fresh points,
        against central differences of its loss in 4 weights and 4 biases
        of every layer. Whether training escapes the plateau depends on the
        seed; whether each step follows the gradient does not."""
        X = _uniform(bbox, 64, seed + 2)
        y = oracles.min_slack(lp.A, lp.b, X)
        config = ModelConfig(batch_size=len(X), seed=seed)
        states = [fit_arrays(X, y, replace(config, epochs=epochs, learning_rate=lr), bbox)
                  for epochs, lr in ((1, 1e-300), (1, config.learning_rate), (2, config.learning_rate))]
        rng = np.random.Generator(np.random.PCG64(seed + 3))
        picks = [(layer, kind, int(i))
                 for layer, (W, b) in enumerate(zip(states[0].weights, states[0].biases))
                 for kind, size in (("W", W.size), ("b", b.size))
                 for i in rng.choice(size, min(size, 4), replace=False)]
        return checks.training_steps("default network", states, config.learning_rate,
                                     config.momentum, X, y, picks)

    def figures(self, st, rounds):
        out, lp = rounds[0].out, st["lp"]
        sample_epochs = sum(len(o[1].train_indices) * o[2].config.epochs for o in out.values())
        ds, model = out["feasibility"][0], out["feasibility"][3]
        fresh = _uniform(ds.bbox, 4_000, st["eval_seed"])
        feasible = oracles.feasibility_labels(lp.A, lp.b, fresh) > 0
        figures = {
            "train_sample_epochs_per_s": (_rate(rounds, sample_epochs, [".train_model"]), "1/s"),
            "feasibility_accuracy": (float(np.mean((model.predict_many(fresh) >= 0.5) == feasible)), "1"),
        }
        for kind, (ds, _, _, model) in out.items():
            figures[f"{kind.replace('-', '_')}_r2"] = (_fit_r2(lp, kind, model, ds.bbox, st["eval_seed"]), "1")
        return figures


# --------------------------------------------------------------- attribution


class AttributionGrid:
    name = "attribution-grid"
    METHODS = ("integrated-gradients", "saliency", "feature-permutation", "lime")
    TRAIN_ROWS = 6_000
    RESOLUTION = (16, 12)
    ops_per_round = 3 * len(METHODS) + 2
    setup_repeats = 3

    def inputs(self, seed):
        keys = ("data_seed", "model_seed", "grid_seed", "exp_seed", "eval_seed")
        return {k: sub_seed(seed, i + 1) for i, k in enumerate(keys)}

    def setup(self, inputs, workdir):
        lp = lp_box()
        ds = generate_dataset(lp, make_encoding(lp, "boundary-distance"), self.TRAIN_ROWS,
                              seed=inputs["data_seed"])
        model = train_model(ds, ModelConfig(seed=inputs["model_seed"]))
        spec = GridSpec(dim_x=0, dim_y=1, x_range=tuple(model.bbox[0]),
                        y_range=tuple(model.bbox[1]), fixed_values=np.zeros(2),
                        resolution=self.RESOLUTION)
        return dict(inputs, lp=lp, model=model, spec=spec, workdir=workdir)

    def setup_digest(self, state):
        path = os.path.join(state["workdir"], "setup.model")
        save_model(state["model"], path)
        return digest_bytes(file_bytes(path))

    def round(self, st, r):
        model, out_dir = st["model"], os.path.join(st["workdir"], "grids")
        for method in self.METHODS:
            res = r.op(f"{method}.grid_attribution", grid_attribution, model, method, st["spec"],
                       seed=st["grid_seed"])
            manifest = r.op(f"{method}.save_grid_result", save_grid_result, res, out_dir, method)
            report = r.op(f"{method}.verify_grid_files", verify_grid_files, out_dir, method)
            r.out[method] = (res, report)
            r.digests.append(canonical_json(manifest["files"]))
        dfp = r.op("experiment_directed_fp", experiment_directed_fp, model, seed=st["exp_seed"])
        lvs = r.op("experiment_lime_vs_saliency", experiment_lime_vs_saliency, model,
                   seed=st["exp_seed"])
        r.out["experiments"] = (dfp, lvs)
        r.digests.append(canonical_json([dfp, lvs]))

    def check(self, st, r):
        model, spec, problems = st["model"], st["spec"], []
        pts = oracles.cell_centers(spec.x_range, spec.y_range, spec.resolution)
        f_x = model.predict_many(pts)
        f_0 = model.predict_many(np.zeros((1, 2)))[0]
        for method, (res, report) in r.out.items():
            if method == "experiments":
                continue
            problems += checks.grid_report(method, report)
            problems += checks.same_arrays(method, [
                ("prediction channel", res.channels["prediction"].reshape(-1), f_x)])
            cells = np.column_stack([c.reshape(-1) for c in res.feature_channels()])
            if method == "integrated-gradients":
                problems += checks.completeness(method, res.channels["sum"].reshape(-1), f_x, f_0)
            if method == "saliency":
                problems += checks.saliency_cells(method, cells, model.predict_many, pts)
        ig = r.out["integrated-gradients"][0]
        problems += checks.negation_swaps_red_blue(
            "render", lambda m, p: render_heatmap(image_rows(m), p), ig.channels["a1"],
            st["workdir"])

        dfp, lvs = r.out["experiments"]
        if not dfp["max_abs_deviation"] <= checks.DIRECTED_FP_TOL:
            problems.append(f"directed FP deviates from least squares by {dfp['max_abs_deviation']:.3e}")
        inner = _uniform(model.bbox, 8, st["eval_seed"], shrink=0.1)
        problems += checks.directed_fp(
            "directed FP", lambda x: directed_feature_permutation(model, x, dfp["radius"]).values,
            model.predict_many, inner, dfp["radius"])
        mags = [row["mean_magnitude"] for row in lvs["rows"]]
        if any(a <= b for a, b in zip(mags, mags[1:])):
            problems.append(f"ridge LIME magnitudes do not shrink with the radius: {mags}")
        problems += checks.gradients("set-up model", model.predict_many, model.input_gradient_many,
                                     _uniform(model.bbox, 64, st["eval_seed"] + 1, shrink=0.1))
        return problems

    def figures(self, st, rounds):
        cells = self.RESOLUTION[0] * self.RESOLUTION[1]
        return {
            "ig_cells_per_s": (_rate(rounds, cells, ["integrated-gradients.grid_attribution"]), "cells/s"),
            "perturb_cells_per_s": (_rate(rounds, 2 * cells, ["feature-permutation.grid_attribution",
                                                              "lime.grid_attribution"]), "cells/s"),
        }


# ------------------------------------------------------------------ geometry


def _dataset(lp, kind, count, seed, margin=None, exclude_origin=False):
    """gen-data: build the encoding, then draw and label ``count`` points,
    in the default sampling box or in ``vertex_bbox(lp, margin)``."""
    enc = make_encoding(lp, kind, excluded_vertices=np.zeros((1, lp.n)) if exclude_origin else None)
    bbox = None if margin is None else vertex_bbox(lp, margin)
    return generate_dataset(lp, enc, count, bbox=bbox, seed=seed)


class LpGeometry:
    name = "lp-geometry"
    GAIN_ROWS = 1_000
    VERTEX_ROWS = 5_000
    # The tight bounding box of the 8x10 polytope: with the default 1.5 margin
    # the feasible share of the box is about 1e-5 and rejection sampling finds
    # no feasible point on some seeds.
    VERTEX_BOX_MARGIN = 1.0
    COVERAGE_ROWS = 2_000
    COVERAGE_SEED = 0
    CERTIFIED_ROWS = 48
    ops_per_round = 5
    setup_repeats = 5

    def inputs(self, seed):
        keys = ("gain_seed", "vertex_seed", "props_seed", "eval_seed")
        return {k: sub_seed(seed, i + 1) for i, k in enumerate(keys)}

    def setup(self, inputs, workdir):
        return dict(
            inputs,
            gain=random_positive_lp(4, 5, 3),
            vertex=random_positive_lp(8, 10, 3),
            props={"5d": lp_5d(), "3x4": random_positive_lp(3, 4, 3)},
            coverage=random_positive_lp(9, 11, 3),
        )

    def setup_digest(self, st):
        lps = [st["gain"], st["vertex"], st["coverage"], *st["props"].values()]
        return canonical_json([lp.digest() for lp in lps])

    def round(self, st, r):
        gain = r.op("gain-penalty.generate_dataset", _dataset, st["gain"], "gain-penalty",
                    self.GAIN_ROWS, st["gain_seed"])
        vertex = r.op("vertex-distance.generate_dataset", _dataset, st["vertex"], "vertex-distance",
                      self.VERTEX_ROWS, st["vertex_seed"], margin=self.VERTEX_BOX_MARGIN,
                      exclude_origin=True)
        tables = {name: r.op(f"props-{name}.encoding_property_table", encoding_property_table, lp,
                             seed=st["props_seed"])
                  for name, lp in st["props"].items()}
        # Fails today: the feasible share of the sampling box is about 5e-7.
        coverage = r.op("coverage-9x11.generate_dataset", _dataset, st["coverage"],
                        "boundary-distance", self.COVERAGE_ROWS, self.COVERAGE_SEED,
                        expect=CoverageError, timed=False)
        r.out = {"gain": gain, "vertex": vertex, "tables": tables, "coverage": coverage}
        for ds in (gain, vertex, coverage):
            r.digests.append("failed" if ds is None else digest_bytes(ds.X.tobytes(), ds.y.tobytes()))
        r.digests.append(canonical_json({k: {kind: rep.as_row() for kind, rep in t.items()}
                                         for k, t in tables.items()}))

    def check(self, st, r):
        problems = []
        gain_lp, vertex_lp = st["gain"], st["vertex"]
        oracle = {}
        for name, lp in [("4x5", gain_lp), ("8x10", vertex_lp), *st["props"].items()]:
            oracle[name] = oracles.brute_vertices(lp.A, lp.b)
            problems += checks.vertices(name, enumerate_vertices(lp).vertices, lp.A, lp.b, oracle[name])

        ds = r.out["gain"]
        problems += checks.gain_penalty_labels(
            "gain-penalty 4x5", gain_lp.A, gain_lp.b, gain_lp.c, oracle["4x5"], ds.X, ds.y,
            lambda X: project_feasible_many(gain_lp, X), self.CERTIFIED_ROWS)
        ds = r.out["vertex"]
        problems += checks.vertex_distance_labels("8x10", oracles.without_origin(oracle["8x10"]),
                                                  ds.X, ds.y)
        for name, table in r.out["tables"].items():
            problems += checks.traits(f"props {name}", {k: rep.as_row() for k, rep in table.items()})
            lp = st["props"][name]
            X = _uniform(vertex_bbox(lp), 400, st["eval_seed"])
            X = X[oracles.feasibility_labels(lp.A, lp.b, X) == 0][: self.CERTIFIED_ROWS]
            problems += checks.projections(f"props {name}", lp.A, lp.b, oracle[name], X,
                                           project_feasible_many(lp, X))
        ds = r.out["coverage"]
        if ds is not None:  # the coverage fault is mended: its output is checked like any other
            lp = st["coverage"]
            problems += checks.slack_labels("9x11", "boundary-distance", lp.A, lp.b, ds.X, ds.y)
        return problems

    def figures(self, st, rounds):
        rows = self.GAIN_ROWS + self.VERTEX_ROWS
        first = rounds[0].out
        return {
            "label_rows_per_s": (_rate(rounds, rows, ["gain-penalty.generate_dataset",
                                                      "vertex-distance.generate_dataset"]), "rows/s"),
            "props_s": (float(np.median([r.seconds(".encoding_property_table") for r in rounds])), "s"),
            "vertex_distance_feasible_fraction": (first["vertex"].feasible_fraction, "1"),
            "vertex_distance_balance_warning": (float(first["vertex"].balance_warning), "1"),
        }


WORKLOADS = {w.name: w for w in (SurrogateTrain(), AttributionGrid(), LpGeometry())}
