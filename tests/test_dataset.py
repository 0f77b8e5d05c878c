import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from lpattr import data
from lpattr.data import (
    DRAW_BUDGET_FACTOR,
    DRAW_CHUNK,
    generate_dataset,
    label_residual,
    load_dataset,
    save_dataset,
)
from lpattr.encodings import make_encoding
from lpattr.errors import CoverageError, ValidationError
from lpattr.fixtures import lp_box, lp_tri, random_positive_lp
from lpattr.lp import FEAS_TOL, feasible_mask, vertex_bbox
from lpattr.seeding import rng
from lpattr.serialize import format_float


BOX_BBOX = np.array([[0.0, 3.0], [0.0, 4.5]])


def test_balanced_feasibility_counts():
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 1000, bbox=BOX_BBOX, seed=7)
    feasible = int(ds.y.sum())
    assert 450 <= feasible <= 550
    assert feasible == 500  # stratified pools fill exactly when both regions are large
    assert ds.feasible_fraction == pytest.approx(0.5)
    assert not ds.balance_warning


def test_empty_dataset():
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 0, seed=1)
    assert len(ds) == 0
    assert ds.X.shape == (0, 2)


def test_determinism():
    lp = lp_box()
    enc = make_encoding(lp, "boundary-distance")
    a = generate_dataset(lp, enc, 500, seed=42)
    b = generate_dataset(lp, enc, 500, seed=42)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.train_indices, b.train_indices)
    c = generate_dataset(lp, enc, 500, seed=43)
    assert not np.array_equal(a.X, c.X)


def test_labels_recomputable():
    lp = lp_box()
    for kind in ("feasibility", "gain-penalty", "vertex-distance"):
        enc = make_encoding(lp, kind)
        ds = generate_dataset(lp, enc, 300, seed=5)
        assert label_residual(ds, lp) == 0.0


def test_default_bbox_is_inflated_vertex_box():
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 100, seed=3)
    np.testing.assert_allclose(ds.bbox, BOX_BBOX)
    assert (ds.X >= 0).all()
    assert (ds.X <= ds.bbox[:, 1]).all()


def test_split_sizes_and_disjointness():
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 1000, seed=9)
    assert len(ds.val_indices) == 100
    assert len(ds.train_indices) == 900
    assert not set(ds.train_indices) & set(ds.val_indices)
    assert set(ds.train_indices) | set(ds.val_indices) == set(range(1000))


def test_coverage_error_when_bbox_misses_polytope():
    lp = lp_tri()
    bad = np.array([[5.0, 6.0], [5.0, 6.0]])  # entirely infeasible region
    with pytest.raises(CoverageError):
        generate_dataset(lp, make_encoding(lp, "feasibility"), 100, bbox=bad, seed=1)


def test_balance_warning_on_thin_feasible_region():
    lp = lp_tri()
    wide = np.array([[0.0, 40.0], [0.0, 40.0]])  # feasible region is 0.5% of the box
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 4000, bbox=wide, seed=2)
    assert len(ds) == 4000
    assert ds.balance_warning
    assert ds.feasible_fraction < 0.45


def test_bbox_validation():
    lp = lp_box()
    enc = make_encoding(lp, "feasibility")
    with pytest.raises(ValidationError):
        generate_dataset(lp, enc, 10, bbox=np.array([[0.0, 1.0]]), seed=1)
    with pytest.raises(ValidationError):
        generate_dataset(lp, enc, 10, bbox=np.array([[1.0, 0.0], [0.0, 1.0]]), seed=1)
    with pytest.raises(ValidationError):
        generate_dataset(lp, enc, 10, bbox=np.array([[-1.0, 1.0], [0.0, 1.0]]), seed=1)
    for bound in (np.inf, np.nan):
        with pytest.raises(ValidationError):
            generate_dataset(lp, enc, 10, bbox=np.array([[0.0, bound], [0.0, 1.0]]), seed=1)


def test_coverage_of_polytope_bounding_box():
    lp = lp_tri()
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 10_000, seed=11)
    # every cell of a 10x10 partition of the vertex bounding box gets a sample
    edges = np.linspace(0.0, 4.0, 11)
    counts = np.histogram2d(ds.X[:, 0], ds.X[:, 1], bins=[edges, edges])[0]
    assert (counts > 0).all()


def test_stream_order_mixes_classes():
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), 1000, seed=13)
    flips = np.abs(np.diff(feasible_mask(lp, ds.X).astype(int))).sum()
    assert flips > 100  # draw order, not feasible block then infeasible block


def test_round_trip_exact(tmp_path):
    lp = lp_box()
    enc = make_encoding(lp, "vertex-distance", excluded_vertices=[[0.0, 0.0]])
    ds = generate_dataset(lp, enc, 250, seed=17)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(ds.X, back.X)
    np.testing.assert_array_equal(ds.y, back.y)
    np.testing.assert_array_equal(ds.train_indices, back.train_indices)
    np.testing.assert_array_equal(ds.excluded_vertices, back.excluded_vertices)
    assert back.lp_digest == lp.digest()
    assert back.kind == "vertex-distance"


@pytest.mark.parametrize("cell, text", [(0, "nan"), (2, "inf"), (1, "-inf")])
def test_non_finite_cell_is_malformed(tmp_path, cell, text):
    lp = lp_box()
    path = tmp_path / "ds.csv"
    save_dataset(generate_dataset(lp, make_encoding(lp, "boundary-distance"), 40, seed=3), path)
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    row[cell] = text
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="not a dataset file"):
        load_dataset(path)


def test_sidecar_stores_count_and_seed_not_the_split(tmp_path):
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "boundary-distance"), 100_000, seed=19)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    sidecar = tmp_path / "ds.csv.meta.json"
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    assert sorted(meta) == ["balance_warning", "bbox", "count", "excluded_vertices", "feasible_fraction",
                            "kind", "lp_digest", "seed"]
    assert sidecar.stat().st_size < 1024
    # a sidecar that also lists the split, as earlier versions wrote it, loads to the same dataset
    old = dict(meta, train_indices=ds.train_indices.tolist(), val_indices=ds.val_indices.tolist())
    sidecar.write_text(json.dumps(old), encoding="utf-8")
    back = load_dataset(path)
    for name in ("X", "y", "bbox", "train_indices", "val_indices"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
    assert (back.seed, back.kind, back.lp_digest) == (ds.seed, ds.kind, ds.lp_digest)


def test_save_is_byte_deterministic(tmp_path):
    lp = lp_box()
    enc = make_encoding(lp, "feasibility")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(generate_dataset(lp, enc, 400, seed=23), p1)
    save_dataset(generate_dataset(lp, enc, 400, seed=23), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def reference_csv(ds):
    """The dataset CSV as the writer used to build it, one ``format_float`` per cell."""
    lines = [",".join([f"x{i + 1}" for i in range(ds.n)] + ["y"])]
    lines += [",".join([format_float(v) for v in row] + [format_float(t)]) for row, t in zip(ds.X, ds.y)]
    return "\n".join(lines) + "\n"


# signed zero, the smallest subnormal, a tiny normal, the largest double and a negative subnormal
PLANTED = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -5e-324]


@pytest.mark.parametrize("count", [0, 1, 7, 250])
def test_csv_matches_the_per_cell_writer_and_loads_the_same_bits(tmp_path, count):
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "boundary-distance"), count, seed=29)
    table = np.column_stack([ds.X, ds.y])
    cells = table.ravel()  # a view: planting here plants in the table
    cells[:len(PLANTED)] = PLANTED[:cells.size]
    ds = dataclasses.replace(ds, X=table[:, :-1].copy(), y=table[:, -1].copy())
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    assert path.read_text(encoding="utf-8") == reference_csv(ds)
    back = load_dataset(path)
    assert back.X.shape == ds.X.shape and back.X.tobytes() == ds.X.tobytes()
    assert back.y.tobytes() == ds.y.tobytes()


def test_loading_holds_no_per_cell_objects(tmp_path):
    # 20,000 rows of (x1, x2, y) are 0.46 MB of float64; one Python str and
    # one float per cell would take about 30 times that
    lp = lp_box()
    ds = generate_dataset(lp, make_encoding(lp, "boundary-distance"), 20_000, seed=31)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    tracemalloc.start()
    try:
        back = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.X.tobytes() == ds.X.tobytes()
    assert peak <= 6 * (ds.X.nbytes + ds.y.nbytes)


def _cell(edit, row=3, col=1):
    """A CSV edit that rewrites one cell of one table row."""
    def apply(lines):
        cells = lines[row].split(",")
        cells[col] = edit(cells[col])
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return apply


def _first_rows(k):
    """A sidecar edit that describes only the table's first ``k`` rows."""
    return lambda meta: dict(meta, count=k)


# name: (edit of the CSV's lines, edit of the sidecar's dict); None leaves it as saved
MALFORMED = {
    "blank line inside the table": (lambda lines: lines[:4] + [""] + lines[4:], None),
    "blank line before rows the sidecar leaves out": (lambda lines: lines[:4] + [""] + lines[4:], _first_rows(3)),
    "whitespace line inside the table": (lambda lines: lines[:4] + ["  "] + lines[4:], None),
    "'#' suffix on a cell": (_cell(lambda c: c + "#"), None),
    "'#' and a number after the last cell": (_cell(lambda c: c + "#1", col=2), None),
    "trailing comma": (_cell(lambda c: c + ",", col=2), None),
    "short row": (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:], None),
    "extra column": (_cell(lambda c: c + ",1", col=2), None),
    "extra column on every row": (lambda lines: lines[:1] + [line + ",1" for line in lines[1:]], None),
    "header only, sidecar count 20": (lambda lines: lines[:1], None),
    "non-UTF-8 byte": (_cell(lambda c: c + "\udcff"), None),
    "underscore in a number": (_cell(lambda c: "1_0"), None),
    "separator \\x1c beside a number": (_cell(lambda c: "\x1c" + c), None),
    "wrong header": (lambda lines: ["a,b,y"] + lines[1:], None),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_tables_and_sidecars_are_rejected(tmp_path, case):
    lp = lp_box()
    path, sidecar = tmp_path / "ds.csv", tmp_path / "ds.csv.meta.json"
    save_dataset(generate_dataset(lp, make_encoding(lp, "boundary-distance"), 20, seed=3), path)
    edit_lines, edit_meta = MALFORMED[case]
    if edit_lines:
        lines = edit_lines(path.read_text(encoding="utf-8").splitlines())
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    if edit_meta:
        sidecar.write_text(json.dumps(edit_meta(json.loads(sidecar.read_text(encoding="utf-8")))), encoding="utf-8")
    with pytest.raises(ValidationError, match="not a dataset file"):
        load_dataset(path)


def test_blank_lines_around_the_table_and_header_only_files_load(tmp_path):
    lp = lp_box()
    enc = make_encoding(lp, "boundary-distance")
    path = tmp_path / "ds.csv"
    save_dataset(generate_dataset(lp, enc, 0, seed=3), path)
    assert path.read_text(encoding="utf-8") == "x1,x2,y\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_dataset(path)
    assert back.X.shape == (0, 2) and back.y.shape == (0,)
    ds = generate_dataset(lp, enc, 20, seed=3)
    save_dataset(ds, path)
    path.write_text("\n \n" + path.read_text(encoding="utf-8") + "\n\t\n", encoding="utf-8")
    assert load_dataset(path).X.tobytes() == ds.X.tobytes()


def oracle_draw(lp, bbox, count, seed):
    """The sample generate_dataset should return, rebuilt without its code:
    replay the seeded stream chunk by chunk, classify rows by A x <= b and
    x >= 0, then hand out the two halves in draw order, a short class giving
    all it has and the other making up the rest."""
    gen = rng(seed, 0)
    want = {True: (count + 1) // 2, False: count // 2}
    rows, feasible = np.empty((0, lp.n)), np.empty(0, dtype=bool)
    while len(rows) < DRAW_BUDGET_FACTOR * count and (
        feasible.sum() < want[True] or (~feasible).sum() < want[False]
    ):
        chunk = gen.uniform(bbox[:, 0], bbox[:, 1], size=(DRAW_CHUNK, lp.n))
        inside = (chunk @ lp.A.T <= lp.b + FEAS_TOL).all(axis=1) & (chunk >= -FEAS_TOL).all(axis=1)
        rows, feasible = np.vstack([rows, chunk]), np.concatenate([feasible, inside])
    have = {True: int(feasible.sum()), False: int((~feasible).sum())}
    short = [cls for cls in (True, False) if have[cls] < want[cls]]
    quota = dict(want)
    for cls in short:
        quota[cls], quota[not cls] = have[cls], count - have[cls]
    taken = {True: 0, False: 0}
    keep = []
    for i, cls in enumerate(feasible.tolist()):
        if taken[cls] < quota[cls]:
            taken[cls] += 1
            keep.append(i)
    return rows[keep], quota[True], bool(short)


@pytest.mark.parametrize("lp_fn, bbox, count, warned", [
    (lp_box, None, 300, False),
    (lp_box, None, 7, False),
    (lp_box, None, 1, False),
    (lp_box, None, 0, False),
    (lp_tri, [[0.0, 40.0], [0.0, 40.0]], 300, True),  # few feasible draws
    (lp_box, [[0.0, 2.002], [0.0, 3.002]], 300, True),  # few infeasible draws
], ids=["balanced", "odd-count", "count-1", "count-0", "short-feasible", "short-infeasible"])
def test_draw_matches_oracle(lp_fn, bbox, count, warned):
    lp = lp_fn()
    box = vertex_bbox(lp) if bbox is None else np.array(bbox)
    X, take_feas, short = oracle_draw(lp, box, count, seed=5)
    ds = generate_dataset(lp, make_encoding(lp, "feasibility"), count, bbox=bbox, seed=5)
    assert short == warned
    np.testing.assert_array_equal(ds.X, X)
    assert ds.X.shape == (count, lp.n)
    assert ds.feasible_fraction == (take_feas / count if count else 0.0)
    assert ds.balance_warning is warned
    np.testing.assert_array_equal(ds.y, feasible_mask(lp, X))


def test_thin_draw_keeps_only_the_rows_it_selects(monkeypatch):
    # The 8x10 polytope fills a small share of its tight vertex box, so a
    # 5,000-row vertex-distance draw runs through many chunks, about 16 MB of
    # draws in all, and keeps at most `count` rows of each class.
    lp = random_positive_lp(8, 10, 3)
    bbox = vertex_bbox(lp, 1.0)
    enc = make_encoding(lp, "vertex-distance", excluded_vertices=np.zeros((1, lp.n)))
    chunks = []
    monkeypatch.setattr(data, "feasible_mask", lambda lp_, X: chunks.append(len(X)) or feasible_mask(lp_, X))
    tracemalloc.start()
    try:
        ds = generate_dataset(lp, enc, 5000, bbox=bbox, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    drawn = sum(chunks)
    assert len(chunks) >= 20 and drawn * lp.n * 8 >= 10e6
    assert peak < drawn * lp.n * 8 / 4
    X, take_feas, short = oracle_draw(lp, bbox, 5000, seed=5)
    np.testing.assert_array_equal(ds.X, X)
    assert ds.y.tobytes() == enc.values(X).tobytes()
    assert ds.feasible_fraction == take_feas / 5000
    assert ds.balance_warning is short
