"""Attribution sweeps over a 2-feature raster.

A grid fixes all but two features, sweeps those two over a rectangle at a
given resolution, and evaluates one attribution method at every cell
center. The result carries one channel per feature, the exact elementwise
sum of the feature channels, and the model's raw prediction channel.
Randomized methods get one independent seed stream per cell, so results do
not depend on evaluation order.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .attribution import IGConfig, PerturbConfig, attribute_many, method_settings
from .errors import ConfigurationError, ValidationError, malformed_file
from .render import render_heatmap
from .seeding import sub_seed
from .serialize import canonical_json, digest_of, format_float, sha256_hex

DEFAULT_RESOLUTION = (100, 73)


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
    method: str
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
    settings = method_settings(method, spec.n, ig_cfg, perturb_cfg) or {}
    prov = {
        "method": method,
        "seed": seed,
        "spec": asdict(spec),
        # the cells' seeds come from the grid seed above, so perturb_cfg.seed is left out
        "config_digest": digest_of({k: v for k, v in settings.items() if k != "seed"}),
    }
    return GridResult(spec=spec, method=method, channels=channels, provenance=prov)


def channel_csv_text(channel: np.ndarray) -> str:
    """`row,col,value` lines; row r, col c hold channel[c, r] so the column
    index walks the x axis."""
    w, h = channel.shape
    lines = ["row,col,value"]
    for r in range(h):
        for c in range(w):
            lines.append(f"{r},{c},{format_float(channel[c, r])}")
    return "\n".join(lines) + "\n"


def load_channel_csv(path) -> np.ndarray:
    """Read a channel written by channel_csv_text; a malformed CSV raises ValidationError."""
    # bytes that are not UTF-8, an empty table, a short row, a non-number, a bad cell
    with open(path, "r", encoding="utf-8") as fh, malformed_file(path, "channel CSV"):
        lines = fh.read().strip().split("\n")
        cells = [(int(r), int(c), float(v)) for r, c, v in (line.split(",") for line in lines[1:])]
        rows = max(r for r, _, _ in cells) + 1
        cols = max(c for _, c, _ in cells) + 1
        if min(min(r, c) for r, c, _ in cells) < 0:
            raise ValueError("negative row or col")
        if len({(r, c) for r, c, _ in cells}) < len(cells):
            raise ValueError("a cell is listed twice")
        if len(cells) != rows * cols:  # no repeats, so every cell is present
            raise ValueError(f"{len(cells)} cells listed for a {rows}x{cols} table")
    out = np.zeros((cols, rows))
    for r, c, v in cells:
        out[c, r] = v
    return out


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
        "stem": stem,
        "method": result.method,
        "provenance": result.provenance,
        "channels": sorted(result.channels),
        "files": files,
    }
    with open(os.path.join(out_dir, f"{stem}_manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(manifest) + "\n")
    return manifest


def verify_grid_files(out_dir, stem: str) -> dict:
    """Recheck a saved grid: file hashes match the manifest and the sum
    channel equals the feature channels added in index order, exactly. A
    missing, unreadable or mis-sized channel is reported as a problem; only
    a malformed manifest raises."""
    manifest_path = os.path.join(out_dir, f"{stem}_manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh, malformed_file(manifest_path, "grid manifest"):
        manifest = json.load(fh)
        files = dict(manifest["files"])
        # str.startswith raises TypeError on a channel name that is no string
        feature_names = sorted((c for c in manifest["channels"] if str.startswith(c, "a")), key=lambda c: int(c[1:]))
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
    loaded = []
    for c in feature_names + ["sum"]:
        try:
            loaded.append(load_channel_csv(os.path.join(out_dir, f"{stem}_{c}.csv")))
        except (OSError, ValidationError) as exc:
            problems.append(f"cannot read channel {c}: {exc}")
    if len({a.shape for a in loaded}) > 1:
        problems.append(f"channels differ in size: {sorted({a.shape for a in loaded})}")
    elif len(loaded) > len(feature_names) and not np.array_equal(np.add.reduce(loaded[:-1], axis=0), loaded[-1]):
        problems.append("sum channel does not equal the sum of feature channels")
    return {"stem": stem, "ok": not problems, "problems": problems}
