"""Heatmap rendering to binary PPM.

Uses a symmetric diverging colormap: the most negative value maps to pure
red, zero to white, the most positive to pure blue, scaled by the largest
absolute value in the matrix. Negating the matrix therefore swaps the red
and blue bytes of every pixel exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import RenderError


def colormap_bytes(matrix: np.ndarray) -> np.ndarray:
    """Map a (H, W) matrix to (H, W, 3) uint8 RGB."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise RenderError("expected a 2-d matrix")
    if not np.isfinite(m).all():
        raise RenderError("matrix contains non-finite values")
    peak = np.max(np.abs(m)) if m.size else 0.0
    if peak == 0.0:
        return np.full(m.shape + (3,), 255, dtype=np.uint8)
    t = m / peak
    fade = np.round(255.0 * (1.0 - np.abs(t)))
    rgb = np.empty(m.shape + (3,), dtype=np.uint8)
    neg = t < 0
    rgb[..., 0] = np.where(neg, 255, fade)
    rgb[..., 1] = fade
    rgb[..., 2] = np.where(neg, fade, 255)
    return rgb


def render_heatmap(matrix: np.ndarray, path) -> bytes:
    """Write the matrix as a P6 PPM, one pixel per entry, row 0 on top.
    Returns the bytes written."""
    rgb = colormap_bytes(matrix)
    h, w = rgb.shape[:2]
    data = f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return data
