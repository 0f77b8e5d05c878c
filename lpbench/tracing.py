"""Spans around lpattr's public functions, installed from outside the package.

A traced run wraps each target function in a span and rebinds the name in
every loaded ``lpattr`` module that holds the same object, so calls made
through a ``from .lp import ...`` binding are seen too, and in the
benchmark modules named by the caller. Targets that are
methods are wrapped on their class. Each span records its name, its parent,
start and end times, and a row count; a few targets add a derived figure
(bytes written, sample-epochs, computed FLOPs). ``uninstall`` restores every
binding it changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    rows: int = 0
    extra: dict = field(default_factory=dict)


def _rows(X) -> int:
    shape = np.shape(X)
    return int(shape[0]) if len(shape) == 2 else 1


def _layer_flops(weights) -> int:
    """Multiply-adds of one forward pass of one row, times two."""
    return sum(2 * W.shape[0] * W.shape[1] for W in weights)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# Per target: how many rows the call handles, and what it adds after it
# returns (given the arguments and the result).
def _rows_arg(index, name):
    return lambda args, kwargs: _rows(args[index] if len(args) > index else kwargs[name])


def _fit_extra(args, kwargs, result):
    X, config = args[0], args[2]
    per_row = _layer_flops(result.weights)
    # forward, weight gradient and input gradient: three passes per sample-epoch
    n = int(np.shape(X)[0]) * config.epochs
    val = kwargs.get("val_X")
    val_rows = 0 if val is None else int(np.shape(val)[0])
    return {"sample_epochs": n, "gflop": (3 * n + val_rows) * per_row / 1e9}


def _gradient_extra(args, kwargs, result):
    # one forward and one backward pass per row
    return {"gflop": 2 * _rows(args[1]) * _layer_flops(args[0].weights) / 1e9}


def _save_dataset_extra(args, kwargs, result):
    path = str(args[1])
    return {"bytes": _file_bytes(path, path + ".meta.json")}


def _save_grid_extra(args, kwargs, result):
    out_dir, stem = args[1], args[2]
    names = list(result["files"]) + [f"{stem}_manifest.json"]
    return {"bytes": _file_bytes(*(os.path.join(out_dir, n) for n in names))}


# (module, attribute path, rows function or None, extra function or None)
TARGETS = [
    ("lp", "enumerate_vertices", None, None),
    ("lp", "project_feasible_many", _rows_arg(1, "X"), None),
    ("lp", "feasible_mask", _rows_arg(1, "X"), None),
    ("encodings", "Encoding.values", _rows_arg(1, "X"), None),
    ("data", "generate_dataset", lambda a, k: int(a[2] if len(a) > 2 else k["count"]), None),
    ("data", "save_dataset", None, _save_dataset_extra),
    ("data", "load_dataset", None, None),
    ("nn", "fit_arrays", _rows_arg(0, "X"), _fit_extra),
    ("nn", "Model.input_gradient_many", _rows_arg(1, "X"), _gradient_extra),
    ("nn", "Model.predict_many", _rows_arg(1, "X"), None),
    ("nn", "save_model", None, None),
    ("nn", "load_model", None, None),
    ("attribution", "integrated_gradients", None, None),
    ("attribution", "feature_permutation", None, None),
    ("attribution", "lime", None, None),
    ("attribution", "fit_local_slopes", None, None),
    ("grid", "grid_attribution", None, None),
    ("grid", "save_grid_result", None, _save_grid_extra),
    ("grid", "verify_grid_files", None, None),
    ("render", "render_heatmap", None, None),
    ("properties", "check_encoding_properties", None, None),
    ("properties", "find_boundary_points", None, None),
    ("experiments", "experiment_directed_fp", None, None),
    ("experiments", "experiment_lime_vs_saliency", None, None),
    ("serialize", "digest_of", None, None),
]


class Tracer:
    """Records spans, and installs the wrappers that open and close them."""

    def __init__(self, package: str = "lpattr", also=()):
        self.package = package
        self.also = tuple(also)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name: str, rows: int = 0) -> Span:
        span = Span(
            sid=len(self.spans),
            name=name,
            parent=self._stack[-1].sid if self._stack else None,
            start=time.perf_counter(),
            rows=rows,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, rows_fn, extra_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, rows_fn(args, kwargs) if rows_fn else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if extra_fn:
                span.extra = extra_fn(args, kwargs, result)
            return result

        return traced

    # -- installation

    def install(self) -> None:
        for mod_name, *_ in TARGETS:
            importlib.import_module(f"{self.package}.{mod_name}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == self.package or k.startswith(self.package + "."))]
        modules += [sys.modules[name] for name in self.also]
        for mod_name, path, rows_fn, extra_fn in TARGETS:
            mod = sys.modules[f"{self.package}.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, rows_fn, extra_fn))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(name, orig, rows_fn, extra_fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting

    def self_times(self) -> dict[int, float]:
        """Span duration minus the durations of its direct children."""
        own = {s.sid: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write_jsonl(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s.sid, "name": s.name, "parent": s.parent, "start": s.start,
                       "end": s.end, "self_s": own[s.sid], "rows": s.rows}
                rec.update(s.extra)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def roots(self) -> list[str]:
        """Name of the top-level span above each span."""
        out: list[str] = []
        for s in self.spans:  # a parent is always recorded before its children
            out.append(s.name if s.parent is None else out[s.parent])
        return out

    def totals(self, spans: list[Span]) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, s, self_s and summed extras."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            t = out.setdefault(s.name, {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["rows"] += s.rows
            t["s"] += s.end - s.start
            t["self_s"] += own[s.sid]
            for k, v in s.extra.items():
                t[k] = t.get(k, 0) + v
        return out
