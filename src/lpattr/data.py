"""Balanced sample generation over a box around the polytope.

Points are drawn uniformly in the box, DRAW_CHUNK at a time, until the
n_feas feasible and n_infeas infeasible draws reach ceil(count/2) and
floor(count/2) (stratified rejection), or DRAW_BUDGET_FACTOR * count points
are drawn. The feasible class then takes

    take_feas = min(n_feas, max(ceil(count/2), count - n_infeas))

points and the infeasible class the other count - take_feas, so a short
class gives all it has and balance_warning records it. Each class takes its
first points in draw order and the sample keeps draw order, so the content
is a pure function of (lp, encoding, count, bbox, seed). While drawing,
each class keeps only its first ``count`` draws, the most it can take, so
memory grows with count, not with the number of draws. The train/val split
is a function of (count, seed) alone: each Dataset derives it, and the
sidecar does not store it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .encodings import ENCODING_KINDS, Encoding, make_encoding
from .errors import CoverageError, ValidationError, malformed_file
# enumerate_vertices is not called here; lpbench's tracer test asserts this module holds it
from .lp import LinearProgram, enumerate_vertices, feasible_mask, vertex_bbox  # noqa: F401
from .seeding import rng
from .serialize import canonical_json, checked, format_float, read_table

DRAW_CHUNK = 8192
DRAW_BUDGET_FACTOR = 50
VAL_FRACTION = 0.1
SIDECAR_SHAPE = {"lp_digest": str, "kind": str, "excluded_vertices": (type(None), [[str]]), "bbox": [[str]],
                 "seed": int, "count": int, "feasible_fraction": str, "balance_warning": bool}


@dataclass
class Dataset:
    """Labeled samples plus everything needed to regenerate or audit them."""

    X: np.ndarray  # (count, n)
    y: np.ndarray  # (count,)
    lp_digest: str
    kind: str
    excluded_vertices: np.ndarray | None
    bbox: np.ndarray  # (n, 2)
    seed: int
    feasible_fraction: float
    balance_warning: bool
    train_indices: np.ndarray = field(init=False, repr=False)
    val_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.train_indices, self.val_indices = _split_indices(len(self), self.seed)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def train_arrays(self):
        return self.X[self.train_indices], self.y[self.train_indices]

    def val_arrays(self):
        return self.X[self.val_indices], self.y[self.val_indices]


def check_bbox(bbox, n: int) -> np.ndarray:
    """``bbox`` as an (n, 2) float array of finite (lo, hi) rows with lo < hi;
    anything else raises ValidationError."""
    bbox = np.asarray(bbox, dtype=float)
    if bbox.shape != (n, 2):
        raise ValidationError(f"bbox must have shape ({n}, 2), got {bbox.shape}")
    if not np.isfinite(bbox).all():
        raise ValidationError("bbox bounds must be finite")
    if (bbox[:, 0] >= bbox[:, 1]).any():
        raise ValidationError("bbox lows must be below highs")
    return bbox


def _resolve_bbox(lp: LinearProgram, bbox) -> np.ndarray:
    if bbox is None:
        return vertex_bbox(lp)
    bbox = check_bbox(bbox, lp.n)
    if (bbox[:, 0] < 0).any():
        raise ValidationError("sampling is restricted to x >= 0; bbox lows must be >= 0")
    return bbox


def _split_indices(count: int, seed: int):
    perm = rng(seed, 1).permutation(count)
    n_val = int(count * VAL_FRACTION)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def generate_dataset(lp: LinearProgram, encoding: Encoding, count: int, bbox=None, seed: int = 0) -> Dataset:
    """Draw ``count`` labeled points, half feasible and half infeasible when
    the box allows it. Raises CoverageError when the box never hits the
    feasible set."""
    if count < 0:
        raise ValidationError("count must be >= 0")
    if encoding.lp is not lp and encoding.lp.digest() != lp.digest():
        raise ValidationError("encoding was built for a different program")
    bbox = _resolve_bbox(lp, bbox)
    want_feas = (count + 1) // 2
    want_infeas = count // 2

    gen = rng(seed, 0)
    draws = [np.empty((0, lp.n))]
    classes = [np.empty(0, dtype=bool)]
    n_feas = n_infeas = 0
    while (n_feas < want_feas or n_infeas < want_infeas) and n_feas + n_infeas < DRAW_BUDGET_FACTOR * count:
        chunk = gen.uniform(bbox[:, 0], bbox[:, 1], size=(DRAW_CHUNK, lp.n))
        mask = feasible_mask(lp, chunk)
        # a class takes at most count rows, so only its first count draws are kept
        keep = np.where(mask, np.cumsum(mask) + n_feas, np.cumsum(~mask) + n_infeas) <= count
        draws.append(chunk[keep])
        classes.append(mask[keep])
        n_feas += int(mask.sum())
        n_infeas += int((~mask).sum())
    if count > 0 and n_feas == 0:
        raise CoverageError("no feasible point found in the sampling box")

    # The draws hold at least count points: the loop stops with a half
    # unfilled only after DRAW_BUDGET_FACTOR * count draws.
    take_feas = min(n_feas, max(want_feas, count - n_infeas))
    feasible = np.concatenate(classes)
    picks = [np.flatnonzero(feasible)[:take_feas], np.flatnonzero(~feasible)[:count - take_feas]]
    X = np.concatenate(draws)[np.sort(np.concatenate(picks))]
    return Dataset(
        X=X,
        y=encoding.values(X),
        lp_digest=lp.digest(),
        kind=encoding.kind,
        excluded_vertices=encoding.excluded_vertices,
        bbox=bbox,
        seed=seed,
        feasible_fraction=take_feas / count if count else 0.0,
        balance_warning=n_feas < want_feas or n_infeas < want_infeas,
    )


def label_residual(ds: Dataset, lp: LinearProgram) -> float:
    """Max |phi(x) - y| when labels are recomputed from scratch."""
    if lp.digest() != ds.lp_digest:
        raise ValidationError("dataset was generated from a different program")
    if len(ds) == 0:
        return 0.0
    enc = make_encoding(lp, ds.kind, excluded_vertices=ds.excluded_vertices)
    return float(np.abs(enc.values(ds.X) - ds.y).max())


def _record(columns: int) -> np.dtype:
    """One CSV row of ``columns`` numbers, its fields named as the header names them: x1..xn,y."""
    return np.dtype([(f"x{i}", np.float64) for i in range(1, columns)] + [("y", np.float64)])


def save_dataset(ds: Dataset, csv_path) -> None:
    """CSV with header x1..xn,y, each cell at 17 significant digits as format_float
    writes it ("%.17g"), plus a metadata sidecar at ``<csv_path>.meta.json``."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        header = ",".join(_record(ds.n + 1).names)
        np.savetxt(fh, np.column_stack([ds.X, ds.y]), fmt="%.17g", delimiter=",", header=header, comments="")
    meta = {
        "lp_digest": ds.lp_digest,
        "kind": ds.kind,
        "excluded_vertices": None
        if ds.excluded_vertices is None
        else [[format_float(v) for v in row] for row in ds.excluded_vertices],
        "bbox": [[format_float(lo), format_float(hi)] for lo, hi in ds.bbox],
        "seed": ds.seed,
        "count": len(ds),
        "feasible_fraction": format_float(ds.feasible_fraction),
        "balance_warning": ds.balance_warning,
    }
    with open(f"{csv_path}.meta.json", "w", encoding="utf-8") as fh:
        fh.write(canonical_json(meta) + "\n")


def load_dataset(csv_path) -> Dataset:
    """Read a dataset written by save_dataset; a malformed CSV or sidecar raises ValidationError."""
    with malformed_file(csv_path, "dataset file"):
        with open(csv_path, "r", encoding="utf-8") as fh:
            table = read_table(fh, _record)
        data = table.view(np.float64).reshape(-1, len(table.dtype.names))  # the records' fields as columns
        n = data.shape[1] - 1
        if not np.isfinite(data).all():
            raise ValueError("a cell is not a finite number")
        with open(f"{csv_path}.meta.json", "r", encoding="utf-8") as fh:
            meta = checked(json.load(fh), SIDECAR_SHAPE)
        if meta["count"] != len(data):
            raise ValueError(f"the sidecar's count {meta['count']!r} does not describe the {len(data)} rows")
        if meta["kind"] not in ENCODING_KINDS:
            raise ValueError(f"the sidecar's kind {meta['kind']!r} is no encoding")
        ex = meta["excluded_vertices"]
        return Dataset(
            X=data[:, :n],
            y=data[:, n],
            lp_digest=meta["lp_digest"],
            kind=meta["kind"],
            excluded_vertices=None if ex is None else np.array([[float(v) for v in row] for row in ex]),
            bbox=check_bbox([[float(lo), float(hi)] for lo, hi in meta["bbox"]], n),
            seed=meta["seed"],
            feasible_fraction=float(meta["feasible_fraction"]),
            balance_warning=meta["balance_warning"],
        )
