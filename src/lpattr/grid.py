"""Attribution sweeps over a 2-feature raster.

A grid fixes all but two features, sweeps those two over a rectangle at a
given resolution, and evaluates one attribution method at every cell
center. The result carries one channel per feature, the exact elementwise
sum of the feature channels, and the model's raw prediction channel. An
integrated-gradients grid also records F(baseline) and its worst
completeness residual, which verify_grid_files recomputes from the saved
sum and prediction channels. A channel file lists its cells in row-major
order, and reads back under the one CSV table rule, serialize.read_table.
Randomized methods get one independent seed stream per cell, so results do
not depend on evaluation order.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .attribution import METHOD_TAGS, IGConfig, PerturbConfig, attribute_many, method_settings
from .errors import ConfigurationError, ValidationError, malformed_file
from .render import render_heatmap
from .seeding import sub_seed
from .serialize import canonical_json, checked, digest_of, format_float, read_table, sha256_hex

DEFAULT_RESOLUTION = (100, 73)
MANIFEST_SHAPE = {"channels": [str], "files": {str: str}, "provenance": {"method": str}}
IG_PROVENANCE_SHAPE = {"completeness": {"f_baseline": float, "max_residual": float}}
CHANNEL_RECORD = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])  # header row,col,value


@dataclass(frozen=True)
class GridSpec:
    dim_x: int
    dim_y: int
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    fixed_values: np.ndarray  # length n; entries at dim_x/dim_y are ignored
    resolution: tuple[int, int] = DEFAULT_RESOLUTION  # (width, height)

    def __post_init__(self):
        if self.dim_x == self.dim_y:
            raise ConfigurationError("dim_x and dim_y must differ")
        w, h = self.resolution
        if w < 2 or h < 2:
            raise ConfigurationError("resolution must be at least 2x2")
        if not (self.x_range[0] < self.x_range[1] and self.y_range[0] < self.y_range[1]):
            raise ConfigurationError("ranges must be nonempty")
        object.__setattr__(self, "fixed_values", np.asarray(self.fixed_values, dtype=float))
        n = self.fixed_values.shape[0]
        if not (0 <= self.dim_x < n and 0 <= self.dim_y < n):
            raise ConfigurationError("swept dimensions out of range")

    @property
    def n(self) -> int:
        return self.fixed_values.shape[0]

    def cell_centers(self):
        """(W,) x coordinates and (H,) y coordinates of cell centers."""
        w, h = self.resolution
        xs = self.x_range[0] + (np.arange(w) + 0.5) * (self.x_range[1] - self.x_range[0]) / w
        ys = self.y_range[0] + (np.arange(h) + 0.5) * (self.y_range[1] - self.y_range[0]) / h
        return xs, ys

    def points(self) -> np.ndarray:
        """All cell-center points, shape (W*H, n), cell index = i*H + j."""
        xs, ys = self.cell_centers()
        w, h = self.resolution
        pts = np.tile(self.fixed_values, (w * h, 1))
        pts[:, self.dim_x] = np.repeat(xs, h)
        pts[:, self.dim_y] = np.tile(ys, w)
        return pts


@dataclass
class GridResult:
    """Channels keyed by name: a1..an (per-feature attribution), sum,
    prediction; every channel has shape (W, H), indexed [x_index, y_index]."""

    spec: GridSpec
    channels: dict[str, np.ndarray]
    provenance: dict = field(default_factory=dict)

    def feature_channels(self) -> list[np.ndarray]:
        return [self.channels[f"a{i + 1}"] for i in range(self.spec.n)]


def grid_attribution(
    model,
    method: str,
    spec: GridSpec,
    seed: int = 0,
    ig_cfg: IGConfig | None = None,
    perturb_cfg: PerturbConfig | None = None,
) -> GridResult:
    """Evaluate one attribution method at every cell center."""
    if method not in METHOD_TAGS:  # verify_grid_files refuses a manifest of any other method
        raise ConfigurationError(f"a grid takes one of {METHOD_TAGS}, not {method!r}")
    if model.input_dim != spec.n:
        raise ValidationError(
            f"model expects {model.input_dim} features, grid supplies {spec.n}"
        )
    w, h = spec.resolution
    pts = spec.points()
    seeds = [sub_seed(seed, idx) for idx in range(w * h)] if method in ("feature-permutation", "lime") else None
    values = attribute_many(model, pts, method, ig_cfg, perturb_cfg, seeds)
    channels = {}
    for i in range(spec.n):
        channels[f"a{i + 1}"] = values[:, i].reshape(w, h)
    channels["sum"] = np.add.reduce([channels[f"a{i + 1}"] for i in range(spec.n)], axis=0)
    channels["prediction"] = model.predict_many(pts).reshape(w, h)
    settings = method_settings(method, model, ig_cfg, perturb_cfg) or {}
    prov = {
        "method": method,
        "seed": seed,
        "spec": asdict(spec),
        # the cells' seeds come from the grid seed above, so perturb_cfg.seed is left out
        "config_digest": digest_of({k: v for k, v in settings.items() if k != "seed"}),
    }
    if method == "integrated-gradients":
        f_baseline = float(model.predict_many(settings["baseline"][None])[0])
        prov["completeness"] = {
            "f_baseline": f_baseline,
            "max_residual": completeness_residual(channels["sum"], channels["prediction"], f_baseline),
        }
    return GridResult(spec=spec, channels=channels, provenance=prov)


def completeness_residual(sum_channel: np.ndarray, prediction: np.ndarray, f_baseline: float) -> float:
    """Worst cell of |sum - dF| / max(1, |dF|), dF = prediction - F(baseline):
    how far integrated gradients falls short of completeness."""
    with np.errstate(invalid="ignore", over="ignore"):  # damaged inputs give NaN or inf, a mismatch
        delta = prediction - f_baseline
        return float((np.abs(sum_channel - delta) / np.maximum(1.0, np.abs(delta))).max())


def channel_csv_text(channel: np.ndarray) -> str:
    """`row,col,value` lines in row-major order; row r, col c hold channel[c, r]
    so the column index walks the x axis."""
    w, h = channel.shape
    lines = [",".join(CHANNEL_RECORD.names)]
    for r in range(h):
        for c in range(w):
            lines.append(f"{r},{c},{format_float(channel[c, r])}")
    return "\n".join(lines) + "\n"


def load_channel_csv(path) -> np.ndarray:
    """Read a channel written by channel_csv_text: each cell once, in its row-major order.
    A malformed CSV raises ValidationError; values may be any float, NaN and infinities included."""
    with open(path, "r", encoding="utf-8") as fh, malformed_file(path, "channel CSV"):
        cells = read_table(fh, lambda columns: CHANNEL_RECORD)
        w = int(cells["col"][-1]) + 1 if len(cells) else 0  # a row-major table ends at its last column
        row, col = np.divmod(np.arange(len(cells)), max(w, 1))
        if w < 1 or not (np.array_equal(cells["row"], row) and np.array_equal(cells["col"], col)):
            raise ValueError("the cells are not whole rows of (row, col) in row-major order")
    return np.ascontiguousarray(cells["value"].reshape(-1, w).T)


def image_rows(channel: np.ndarray) -> np.ndarray:
    """Channel (W,H) to image row-major (H,W) with the top row holding the
    largest y, the usual plot orientation."""
    return channel.T[::-1, :]


def save_grid_result(result: GridResult, out_dir, stem: str) -> dict:
    """One CSV and one PPM per channel plus a manifest with sha256 digests.
    Returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name in sorted(result.channels):
        csv_name = f"{stem}_{name}.csv"
        ppm_name = f"{stem}_{name}.ppm"
        text = channel_csv_text(result.channels[name])
        with open(os.path.join(out_dir, csv_name), "w", encoding="utf-8") as fh:
            fh.write(text)
        ppm_bytes = render_heatmap(image_rows(result.channels[name]), os.path.join(out_dir, ppm_name))
        files[csv_name] = sha256_hex(text)
        files[ppm_name] = sha256_hex(ppm_bytes)
    manifest = {
        "provenance": result.provenance,
        "channels": sorted(result.channels),
        "files": files,
    }
    with open(os.path.join(out_dir, f"{stem}_manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(manifest) + "\n")
    return manifest


def verify_grid_files(out_dir, stem: str) -> dict:
    """Recheck a saved grid: file hashes match the manifest, the sum channel
    equals the feature channels added in index order, exactly, and an
    integrated-gradients grid's recorded completeness residual equals the one
    its sum and prediction channels give. A missing, unreadable or mis-sized
    channel is reported as a problem; only a malformed manifest raises, and one whose
    files do not name each channel's CSV and PPM, or whose method is no tag, is malformed."""
    manifest_path = os.path.join(out_dir, f"{stem}_manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh, malformed_file(manifest_path, "grid manifest"):
        manifest = checked(json.load(fh), MANIFEST_SHAPE)
        channels, files, provenance = manifest["channels"], manifest["files"], manifest["provenance"]
        if set(files) != {f"{stem}_{c}.{ext}" for c in channels for ext in ("csv", "ppm")}:
            raise ValueError("files does not name exactly one CSV and one PPM per channel")
        if provenance["method"] not in METHOD_TAGS:
            raise ValueError(f"provenance.method {provenance['method']!r} is no attribution method")
        feature_names = sorted((c for c in channels if c.startswith("a")), key=lambda c: int(c[1:]))
        completeness = None
        if provenance["method"] == "integrated-gradients":
            recorded = checked(provenance, IG_PROVENANCE_SHAPE, "provenance")["completeness"]
            completeness = recorded["f_baseline"], recorded["max_residual"]
    problems = []
    for name, want in files.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"missing file {name}")
            continue
        with open(path, "rb") as fh:
            got = sha256_hex(fh.read())
        if got != want:
            problems.append(f"hash mismatch for {name}")
    names = feature_names + ["sum"] + (["prediction"] if completeness else [])
    loaded = {}
    for c in names:
        try:
            loaded[c] = load_channel_csv(os.path.join(out_dir, f"{stem}_{c}.csv"))
        except (OSError, ValidationError) as exc:
            problems.append(f"cannot read channel {c}: {exc}")
    shapes = {a.shape for a in loaded.values()}
    if len(shapes) > 1:
        problems.append(f"channels differ in size: {sorted(shapes)}")
    elif len(loaded) == len(names):
        if not np.array_equal(np.add.reduce([loaded[c] for c in feature_names], axis=0), loaded["sum"]):
            problems.append("sum channel does not equal the sum of feature channels")
        if completeness and completeness_residual(loaded["sum"], loaded["prediction"], completeness[0]) != completeness[1]:
            problems.append("completeness residual differs from the manifest's")
    return {"stem": stem, "ok": not problems, "problems": problems}
