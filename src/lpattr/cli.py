"""Command-line surface.

Subcommands: gen-data, train, attribute, grid, props, exp-lime-sal,
exp-directed-fp, exp-5d, render, verify. Every subcommand accepts
--lp/--seed/--out; --lp takes a program file or a built-in name (box, tri,
5d). Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 a
study could not measure, or its checked trend failed (report written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .attribution import METHOD_TAGS, IGConfig, PerturbConfig, attribute
from .data import generate_dataset, label_residual, load_dataset, save_dataset
from .encodings import ENCODING_KINDS, make_encoding
from .errors import ConfigurationError, InconclusiveError, LpattrError, ValidationError
from .experiments import (
    experiment_5dim,
    experiment_directed_fp,
    experiment_lime_vs_saliency,
)
from .fixtures import NAMED
from .grid import (
    DEFAULT_RESOLUTION,
    GridSpec,
    grid_attribution,
    image_rows,
    load_channel_csv,
    save_grid_result,
    verify_grid_files,
)
from .lp import LinearProgram, load_lp
from .nn import ModelConfig, load_model, save_model, train_model
from .properties import (
    EXPECTED_ENCODING_TRAITS,
    PROPERTY_NAMES,
    encoding_property_table,
)
from .render import render_heatmap
from .serialize import plain


def _resolve_lp(value: str | None, fallback: str = "box") -> LinearProgram:
    name = value or fallback
    if os.path.exists(name):
        return load_lp(name)
    if name in NAMED:
        return NAMED[name]()
    raise ValidationError(f"--lp {name!r} is neither a file nor one of {sorted(NAMED)}")


def _floats(text: str) -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None
    if not np.isfinite(vals).all():
        raise ValidationError(f"expected finite numbers, got {text!r}")
    return vals


def _pair(text: str, flag: str) -> tuple[float, float]:
    vals = _floats(text)
    if vals.shape != (2,):
        raise ValidationError(f"{flag} expects two comma-separated numbers, got {text!r}")
    return float(vals[0]), float(vals[1])


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_report(args, name: str, obj) -> None:
    """Write ``obj`` as indented JSON to ``name`` under --out and say so."""
    path = os.path.join(_outdir(args), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=plain)
        fh.write("\n")
    print(f"wrote {path}")


def _config(cls, args):
    """A config dataclass filled from the parsed flags of the same names."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


# ------------------------------------------------------------------ handlers


def _cmd_gen_data(args) -> None:
    lp = _resolve_lp(args.lp)
    excluded = np.zeros((1, lp.n)) if args.exclude_origin else None
    enc = make_encoding(lp, args.encoding, excluded_vertices=excluded)
    bbox = None
    if args.bbox is not None:
        flat = _floats(args.bbox)
        if flat.size != 2 * lp.n:
            raise ValidationError(f"--bbox needs {2 * lp.n} numbers (lo,hi per feature)")
        bbox = flat.reshape(lp.n, 2)
    ds = generate_dataset(lp, enc, args.count, bbox=bbox, seed=args.seed)
    stem = args.name or f"data-{args.encoding}"
    path = os.path.join(_outdir(args), f"{stem}.csv")
    save_dataset(ds, path)
    labels = ds.y
    print(f"wrote {path} ({len(ds)} rows, feasible fraction {ds.feasible_fraction:.3f})")
    if len(labels):  # min and max of an empty array raise
        print(f"label range [{labels.min():.6g}, {labels.max():.6g}]")
    if ds.balance_warning:
        print("warning: could not balance feasible/infeasible halves within budget")


def _cmd_train(args) -> None:
    ds = load_dataset(args.data)
    model = train_model(ds, _config(ModelConfig, args))
    stem = args.name or os.path.splitext(os.path.basename(args.data))[0] + "-model"
    path = os.path.join(_outdir(args), f"{stem}.model")
    save_model(model, path)
    summary = model.training_summary
    figures = []  # absent when the validation split is empty
    if "val_loss" in summary:
        figures.append(f"val loss {summary['val_loss']:.6g}")
    if "val_accuracy" in summary:
        figures.append(f"val accuracy {summary['val_accuracy']:.4f}")
    print(f"wrote {path}" + (f" ({', '.join(figures)})" if figures else ""))


def _cmd_attribute(args) -> None:
    model = load_model(args.model)
    x = _floats(args.point)
    baseline = None if args.baseline is None else _floats(args.baseline)
    ig_cfg = IGConfig(steps=args.ig_steps, baseline=baseline)
    vec = attribute(model, x, args.method, ig_cfg=ig_cfg, perturb_cfg=_config(PerturbConfig, args))
    n = model.input_dim
    header = ",".join(
        ["method"] + [f"x{i + 1}" for i in range(n)] + [f"a{i + 1}" for i in range(n)] + ["sum"]
    )
    print(header)
    print(vec.csv_row())
    if args.name:
        path = os.path.join(_outdir(args), f"{args.name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + vec.csv_row() + "\n")
        print(f"wrote {path}")


def _cmd_grid(args) -> None:
    model = load_model(args.model)
    n = model.input_dim
    for flag, dim in (("--dim-x", args.dim_x), ("--dim-y", args.dim_y)):
        if not 0 <= dim < n:
            raise ConfigurationError(f"{flag} {dim} is out of range for a {n}-feature model")
    if args.fixed is not None:
        fixed = _floats(args.fixed)
        if fixed.size != n:
            raise ValidationError(f"--fixed needs {n} numbers")
    else:
        fixed = model.bbox.mean(axis=1)
    x_range = _pair(args.x_range, "--x-range") if args.x_range else tuple(model.bbox[args.dim_x])
    y_range = _pair(args.y_range, "--y-range") if args.y_range else tuple(model.bbox[args.dim_y])
    w, h = _pair(args.resolution, "--resolution")
    if not (w.is_integer() and h.is_integer()):
        raise ValidationError(f"--resolution expects two integers, got {args.resolution!r}")
    w, h = int(w), int(h)
    spec = GridSpec(
        dim_x=args.dim_x,
        dim_y=args.dim_y,
        x_range=x_range,
        y_range=y_range,
        fixed_values=fixed,
        resolution=(w, h),
    )
    result = grid_attribution(
        model,
        args.method,
        spec,
        seed=args.seed,
        ig_cfg=IGConfig(steps=args.ig_steps),
        perturb_cfg=_config(PerturbConfig, args),
    )
    stem = args.name or f"grid-{args.method}"
    out = _outdir(args)
    save_grid_result(result, out, stem)
    report = verify_grid_files(out, stem)
    if not report["ok"]:
        raise ValidationError(f"grid self-check failed: {report['problems']}")
    print(f"wrote {out}/{stem}_* ({w}x{h} cells, {len(result.channels)} channels, sum identity ok)")


def _cmd_props(args) -> None:
    lp = _resolve_lp(args.lp)
    reports = encoding_property_table(lp, sample_count=args.samples, seed=args.seed)
    mismatches = 0
    col = max(len(k) for k in ENCODING_KINDS)
    print(f"{'encoding'.ljust(col)}  " + "  ".join(PROPERTY_NAMES))
    for kind in ENCODING_KINDS:
        row = reports[kind].as_row()
        marks = []
        for name in PROPERTY_NAMES:
            mark = "yes" if row[name] else "no"
            if row[name] != EXPECTED_ENCODING_TRAITS[kind][name]:
                mark += "*"
                mismatches += 1
            marks.append(mark.ljust(len(name)))
        print(f"{kind.ljust(col)}  " + "  ".join(marks))
    if mismatches:
        print(f"{mismatches} cell(s) deviate from the reference table (marked *)")
    table = {kind: {"row": reports[kind].as_row(), "stats": reports[kind].stats} for kind in ENCODING_KINDS}
    _write_report(args, "properties.json", table)


def _cmd_exp_lime_sal(args) -> None:
    model = load_model(args.model)
    report = experiment_lime_vs_saliency(
        model,
        radii=tuple(_floats(args.radii)),
        points=args.points,
        seed=args.seed,
        ridge_lambda=args.ridge_lambda,
        samples=args.samples,
    )
    for row in report["rows"]:
        print(
            f"radius {row['radius']:<6g} mean cosine {row['mean_cosine']:.5f}"
            f"  mean magnitude {row['mean_magnitude']:.5f}  points {row['points_used']}"
        )
    print(f"excluded degenerate points: {report['excluded_degenerate']}")
    _write_report(args, "exp-lime-vs-saliency.json", report)
    if not report["trend_holds"]:
        raise InconclusiveError(f"trend {report['trend']!r} does not hold along the radii")


def _cmd_exp_directed_fp(args) -> None:
    model = load_model(args.model)
    report = experiment_directed_fp(model, radius=args.radius, points=args.points, seed=args.seed)
    print(
        f"max |directed probe - least-squares fit| = {report['max_abs_deviation']:.3e} "
        f"over {report['points']} points (undirected control max {report['control_max_deviation']:.3e})"
    )
    _write_report(args, "exp-directed-fp.json", report)


def _cmd_exp_5d(args) -> None:
    lp = _resolve_lp(args.lp, fallback="5d")
    report = experiment_5dim(lp, seed=args.seed, count=args.count)
    print(f"held-out accuracy: {report['accuracy']:.4f}")
    for inst in report["instances"]:
        slack_marks = [
            f"{s:.4g}{'!' if v else ''}" for s, v in zip(inst["slacks"], inst["violated"])
        ]
        print(f"{inst['label']}: point {np.round(inst['point'], 4).tolist()}")
        print(f"  slacks: {slack_marks}  (! = violated)   prediction {inst['prediction']:.4f}")
        for tag in METHOD_TAGS:
            entry = inst["attributions"][tag]
            cells = [
                f"{v:+.4f}{'~' if small else ''}"
                for v, small in zip(entry["values"], entry["small"])
            ]
            print(f"  {tag:<22} {' '.join(cells)}  (~ = |a| < {report['small_threshold']})")
    _write_report(args, "exp-5dim.json", report)


def _cmd_render(args) -> None:
    channel = load_channel_csv(args.matrix)
    out_path = args.output or os.path.join(
        _outdir(args), os.path.splitext(os.path.basename(args.matrix))[0] + ".ppm"
    )
    render_heatmap(image_rows(channel), out_path)
    print(f"wrote {out_path}")


def _cmd_verify(args) -> None:
    problems = []
    checked = 0
    target = args.dir or args.out
    if os.path.isdir(target):
        for name in sorted(os.listdir(target)):
            if name.endswith("_manifest.json"):
                stem = name[: -len("_manifest.json")]
                report = verify_grid_files(target, stem)
                checked += 1
                state = "ok" if report["ok"] else f"FAILED: {report['problems']}"
                print(f"grid {stem}: {state}")
                problems.extend(report["problems"])
    if args.data:
        lp = _resolve_lp(args.lp)
        ds = load_dataset(args.data)
        resid = label_residual(ds, lp)
        ok = resid <= 1e-9  # False for a NaN residual too
        state = "ok" if ok else f"FAILED (residual {resid:.3e})"
        print(f"dataset {args.data}: labels {state}")
        checked += 1
        if not ok:
            problems.append(f"dataset labels deviate by {resid:.3e}")
    if checked == 0:
        raise ValidationError(f"nothing to verify under {target!r}")
    if problems:
        raise ValidationError("; ".join(problems))
    print(f"verified {checked} item(s)")


# -------------------------------------------------------------------- parser


def _add_perturb_flags(sub) -> None:
    cfg = PerturbConfig()
    sub.add_argument("--radius", type=float, default=cfg.radius, help="perturbation radius p")
    sub.add_argument("--samples", type=int, default=cfg.samples, help="surrogate sample count")
    sub.add_argument("--repeats", type=int, default=cfg.repeats, help="permutation repeats")
    sub.add_argument("--ridge-lambda", type=float, default=cfg.ridge_lambda, help="ridge weight")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lp", help="program file, or built-in name: box, tri, 5d")
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--out", default="out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="lpattr",
        description="Train networks on scalar encodings of a linear program and attribute them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    cfg = ModelConfig()

    sub = subs.add_parser("gen-data", parents=[common], help="sample one encoding into a CSV dataset")
    sub.add_argument("--encoding", required=True, choices=ENCODING_KINDS)
    sub.add_argument("--count", type=int, default=100_000, help="sample count")
    sub.add_argument("--bbox", help="sampling box: lo,hi per feature, flattened")
    sub.add_argument("--exclude-origin", action="store_true", help="drop the origin vertex (vertex-distance)")
    sub.add_argument("--name", help="output stem (default data-<encoding>)")
    sub.set_defaults(func=_cmd_gen_data)

    sub = subs.add_parser("train", parents=[common], help="fit the network on a dataset")
    sub.add_argument("--data", required=True, help="dataset CSV from gen-data")
    sub.add_argument("--depth", type=int, default=cfg.depth, help="weight layers")
    sub.add_argument("--width", type=int, dest="hidden_width", metavar="WIDTH", default=cfg.hidden_width, help="hidden width")
    sub.add_argument("--activation", default=cfg.activation, help="hidden activation")
    sub.add_argument("--loss", default=cfg.loss, help="training loss")
    sub.add_argument("--learning-rate", type=float, default=cfg.learning_rate)
    sub.add_argument("--momentum", type=float, default=cfg.momentum)
    sub.add_argument("--epochs", type=int, default=cfg.epochs)
    sub.add_argument("--batch-size", type=int, default=cfg.batch_size)
    sub.add_argument("--name", help="output stem (default <data>-model)")
    sub.set_defaults(func=_cmd_train)

    sub = subs.add_parser("attribute", parents=[common], help="attribute one point under one method")
    sub.add_argument("--model", required=True, help="model file from train")
    sub.add_argument("--method", required=True, choices=METHOD_TAGS)
    sub.add_argument("--point", required=True, help="comma-separated coordinates")
    sub.add_argument("--ig-steps", type=int, default=IGConfig().steps, help="path integral resolution")
    sub.add_argument("--baseline", help="path integral baseline (default zeros)")
    _add_perturb_flags(sub)
    sub.add_argument("--name", help="also write <name>.csv under --out")
    sub.set_defaults(func=_cmd_attribute)

    sub = subs.add_parser("grid", parents=[common], help="attribution raster over two features")
    sub.add_argument("--model", required=True)
    sub.add_argument("--method", required=True, choices=METHOD_TAGS)
    sub.add_argument("--dim-x", type=int, default=0)
    sub.add_argument("--dim-y", type=int, default=1)
    sub.add_argument("--x-range", help="lo,hi (default: model box)")
    sub.add_argument("--y-range", help="lo,hi (default: model box)")
    sub.add_argument("--fixed", help="values for unswept features (default: box midpoints)")
    sub.add_argument("--resolution", default=f"{DEFAULT_RESOLUTION[0]},{DEFAULT_RESOLUTION[1]}", help="width,height")
    sub.add_argument("--ig-steps", type=int, default=IGConfig().steps)
    _add_perturb_flags(sub)
    sub.add_argument("--name", help="output stem (default grid-<method>)")
    sub.set_defaults(func=_cmd_grid)

    sub = subs.add_parser("props", parents=[common], help="empirical property table for all encodings")
    sub.add_argument("--samples", type=int, default=4000, help="sample count per check")
    sub.set_defaults(func=_cmd_props)

    sub = subs.add_parser("exp-lime-sal", parents=[common], help="surrogate-vs-gradient convergence study")
    sub.add_argument("--model", required=True)
    sub.add_argument("--radii", default="0.5,0.1,0.02", help="descending radii")
    sub.add_argument("--points", type=int, default=50)
    sub.add_argument("--samples", type=int, default=50, help="surrogate sample count")
    sub.add_argument("--ridge-lambda", type=float, default=1.0)
    sub.set_defaults(func=_cmd_exp_lime_sal)

    sub = subs.add_parser("exp-directed-fp", parents=[common], help="directed-probe equivalence study")
    sub.add_argument("--model", required=True)
    sub.add_argument("--radius", type=float, default=0.1)
    sub.add_argument("--points", type=int, default=100)
    sub.set_defaults(func=_cmd_exp_directed_fp)

    sub = subs.add_parser("exp-5d", parents=[common], help="five-feature feasibility study")
    sub.add_argument("--count", type=int, default=100_000, help="training sample count")
    sub.set_defaults(func=_cmd_exp_5d)

    sub = subs.add_parser("render", parents=[common], help="render a channel CSV as a PPM heatmap")
    sub.add_argument("--matrix", required=True, help="row,col,value CSV")
    sub.add_argument("--output", help="output image path")
    sub.set_defaults(func=_cmd_render)

    sub = subs.add_parser("verify", parents=[common], help="recheck emitted grids and datasets")
    sub.add_argument("--dir", help="directory holding *_manifest.json (default --out)")
    sub.add_argument("--data", help="dataset CSV to recheck against --lp")
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except LpattrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OSError as exc:  # an unusable path (missing, a directory, in the way) is a validation error
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return ValidationError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
