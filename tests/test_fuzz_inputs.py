"""Seeded mutation fuzz of every file kind the CLI reads.

Each kind is written once by the package itself, then damaged by byte
flips, truncations, token swaps (``nan``, ``1e999``, ``-``, empty) and
deleted lines, and read back through in-process ``cli.main`` by the
cheapest command that reads it. Whatever the damage, the command must
return 0, 2, 3 or 4, raise nothing, and print exactly one ``error:`` line
when it fails. Seeds and counts are fixed, so a failure replays.

The four JSON headers (program, dataset sidecar, model header, grid
manifest) are also damaged exhaustively: every value in them, at any
depth, is swapped for a value of each other JSON kind, and each such file
must exit 2 with one ``error:`` line. README's "File formats" section must
name every field of the shape tables those headers are checked against.

The channel CSV reader is also run against the per-cell reader it replaced,
kept here as ``reference_load_channel``: on seeded mutations of a written
channel, whatever the reference refuses the reader must refuse, and where
both load, the arrays must be the same bits.
"""

import copy
import json
import re
import shutil
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from lpattr import cli
from lpattr.data import SIDECAR_SHAPE
from lpattr.errors import ValidationError, malformed_file
from lpattr.fixtures import lp_box
from lpattr.grid import IG_PROVENANCE_SHAPE, MANIFEST_SHAPE, channel_csv_text, load_channel_csv
from lpattr.lp import PROGRAM_SHAPE, save_lp
from lpattr.nn import HEADER_SHAPE
from lpattr.serialize import format_float

MUTATIONS = 200  # per file kind
TOKENS = (b"nan", b"1e999", b"-", b"")
# numbers and words: the tokens a swap replaces
TOKEN_PATTERN = re.compile(rb"[-+.0-9eE]+|[A-Za-z_]+")


def mutate(data: bytes, gen: np.random.Generator) -> bytes:
    """One seeded byte flip, truncation, token swap or deleted line of ``data``."""
    how = gen.integers(4)
    if how == 0:
        i = gen.integers(len(data))
        return data[:i] + bytes([data[i] ^ int(gen.integers(1, 256))]) + data[i + 1 :]
    if how == 1:
        return data[: gen.integers(len(data))]
    if how == 2:
        spans = [m.span() for m in TOKEN_PATTERN.finditer(data)]
        start, end = spans[gen.integers(len(spans))]
        return data[:start] + TOKENS[gen.integers(len(TOKENS))] + data[end:]
    lines = data.split(b"\n")
    del lines[gen.integers(len(lines))]
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Intact files of every kind: a program, a 20-row dataset and its sidecar,
    a small model, and 4x3 saliency and integrated-gradients grids of that model."""
    d = tmp_path_factory.mktemp("originals")
    save_lp(lp_box(), d / "lp.json")
    steps = [
        ["gen-data", "--lp", "box", "--encoding", "boundary-distance", "--count", "20", "--name", "data"],
        ["train", "--data", str(d / "data.csv"), "--depth", "2", "--width", "4", "--epochs", "1", "--name", "m"],
        ["grid", "--model", str(d / "m.model"), "--method", "saliency", "--resolution", "4,3", "--name", "g"],
        ["grid", "--model", str(d / "m.model"), "--method", "integrated-gradients", "--resolution", "4,3",
         "--name", "gi"],
    ]
    for argv in steps:
        assert cli.main(argv + ["--out", str(d)]) == 0
    return d


# kind -> (files it may damage, the command that reads them)
KINDS = {
    "program": (["lp.json"], ["gen-data", "--lp", "{d}/lp.json", "--encoding", "boundary-distance", "--count", "20"]),
    "dataset": (["data.csv"], ["verify", "--data", "{d}/data.csv", "--lp", "box"]),
    "sidecar": (["data.csv.meta.json"], ["verify", "--data", "{d}/data.csv", "--lp", "box"]),
    "model": (["m.model"], ["attribute", "--model", "{d}/m.model", "--method", "saliency", "--point", "1,1"]),
    "manifest": (["g_manifest.json"], ["verify", "--dir", "{d}"]),
    "channel": ([f"g_{c}.csv" for c in ("a1", "a2", "sum", "prediction")], ["verify", "--dir", "{d}"]),
    "matrix": (["g_a1.csv"], ["render", "--matrix", "{d}/g_a1.csv"]),
    "ig-manifest": (["gi_manifest.json"], ["verify", "--dir", "{d}"]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_inputs_fail_cleanly(kind, originals, tmp_path, capsys):
    names, argv = KINDS[kind]
    d = tmp_path / "in"
    shutil.copytree(originals, d)
    argv = [a.format(d=d) for a in argv] + ["--out", str(tmp_path / "out")]
    gen = np.random.default_rng([list(KINDS).index(kind), 0])
    for i in range(MUTATIONS):
        name = names[gen.integers(len(names))]
        data = (originals / name).read_bytes()
        (d / name).write_bytes(mutate(data, gen))
        capsys.readouterr()
        code = cli.main(argv)
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert code in (0, 2, 3, 4), f"mutation {i} of {name}"
        assert len(errors) == (code != 0), f"mutation {i} of {name}: {errors}"
        (d / name).write_bytes(data)


@pytest.mark.parametrize("field", ["f_baseline", "max_residual"])
def test_malformed_completeness_record_exits_2(field, originals, tmp_path, capsys):
    # an integrated-gradients manifest's completeness record: anything but the
    # recorded number, in JSON or not, fails verify with one error line
    d = tmp_path / "in"
    shutil.copytree(originals, d)
    text = (originals / "gi_manifest.json").read_text()
    entry = re.search(f'"{field}":[^,}}]+', text).group()
    wrong = repr(2.0 * float(entry.split(":")[1]) + 1.0)
    for bad in ("NaN", "Infinity", "-Infinity", "1e999", "null", "true", '"0"', "[]", "{}", "-", "", wrong):
        (d / "gi_manifest.json").write_text(text.replace(entry, f'"{field}":{bad}'))
        capsys.readouterr()
        code = cli.main(["verify", "--dir", str(d), "--out", str(tmp_path / "out")])
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == 2 and len(errors) == 1, bad


# one value of each JSON kind: number, string, bool, null, array, object
KIND_SAMPLES = (7, "x", True, None, [True], {"x": True})
JSON_KINDS = {int: "number", float: "number", str: "string", bool: "bool", type(None): "null", list: "array",
              dict: "object"}
# the provenance fields verify does not read: the grid seed, spec and settings digest
UNREAD = {("provenance", "seed"), ("provenance", "spec"), ("provenance", "config_digest")}
# kind -> swaps its header takes, so a walk that misses values fails
SWAP_CASES = {"program": 75, "sidecar": 70, "model": 70, "ig-manifest": 95}


def json_values(doc, path=()):
    """(key path, value) of every value inside ``doc``, array elements included, outside UNREAD."""
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        if path + (key,) not in UNREAD:
            yield path + (key,), value
            yield from json_values(value, path + (key,))


@pytest.mark.parametrize("kind", SWAP_CASES)
def test_type_swapped_fields_exit_2(kind, originals, tmp_path, capsys):
    (name,), argv = KINDS[kind]
    d = tmp_path / "in"
    shutil.copytree(originals, d)
    argv = [a.format(d=d) for a in argv] + ["--out", str(tmp_path / "out")]
    data = (originals / name).read_bytes()
    # a model file is a magic line, the header line and the arrays; the other files are the header alone
    magic, header, arrays = data.split(b"\n", 2) if kind == "model" else (None, data, None)
    doc = json.loads(header)
    cases = 0
    for path, value in json_values(doc):
        for sample in KIND_SAMPLES:
            if JSON_KINDS[type(sample)] == JSON_KINDS[type(value)]:
                continue
            bad = copy.deepcopy(doc)
            reduce(lambda node, key: node[key], path[:-1], bad)[path[-1]] = sample
            text = json.dumps(bad).encode()
            (d / name).write_bytes(b"\n".join([magic, text, arrays]) if magic else text)
            capsys.readouterr()
            code = cli.main(argv)
            errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
            assert code == 2 and len(errors) == 1, f"{'.'.join(map(str, path))} = {sample!r}: exit {code}"
            cases += 1
    assert cases == SWAP_CASES[kind]


def shape_fields(shape) -> set:
    """Every field name a shape table names, at any depth."""
    if isinstance(shape, dict):
        return {name for name in shape if name is not str} | set().union(*map(shape_fields, shape.values()))
    return set().union(*map(shape_fields, shape)) if isinstance(shape, (list, tuple)) else set()


def test_readme_file_formats_name_every_header_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## File formats\n")[1].split("\n## ")[0]
    tables = (PROGRAM_SHAPE, SIDECAR_SHAPE, HEADER_SHAPE, MANIFEST_SHAPE, IG_PROVENANCE_SHAPE)
    fields = set().union(*map(shape_fields, tables))
    assert len(fields) > 20
    assert sorted(name for name in fields if f"`{name}`" not in section) == []


def reference_channel_csv_text(channel):
    """The channel CSV as the writer has always built it, one ``format_float`` per cell."""
    w, h = channel.shape
    lines = ["row,col,value"]
    for r in range(h):
        for c in range(w):
            lines.append(f"{r},{c},{format_float(channel[c, r])}")
    return "\n".join(lines) + "\n"


def reference_load_channel(path):
    """The channel reader before the CSV table rule: int() and float() per cell,
    any first line skipped as the header, the cells in any order."""
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


# signed zero, the subnormal extremes, the largest double, NaN and the infinities
SPECIAL = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]


def planted_channel(w, h, seed):
    channel = np.random.default_rng(seed).normal(size=(w, h)) * 1e3
    channel.ravel()[: len(SPECIAL)] = SPECIAL[: w * h]
    return channel


@pytest.mark.parametrize("w, h", [(1, 1), (4, 3), (3, 5), (100, 73)])
def test_channel_writer_matches_the_per_cell_writer(tmp_path, w, h):
    channel = planted_channel(w, h, seed=w * h)
    text = channel_csv_text(channel)
    assert text == reference_channel_csv_text(channel)
    (tmp_path / "ch.csv").write_text(text, encoding="utf-8")
    back = load_channel_csv(tmp_path / "ch.csv")
    assert back.shape == (w, h) and back.tobytes() == channel.tobytes()


def test_channel_reader_refuses_what_the_per_cell_reader_refused(tmp_path):
    data = channel_csv_text(planted_channel(4, 3, seed=0)).encode()
    gen = np.random.default_rng([len(KINDS), 1])
    path = tmp_path / "ch.csv"
    both = newly_refused = 0
    for i in range(5 * MUTATIONS):
        bad = data
        for _ in range(gen.integers(1, 4)):  # one to three mutations on top of each other
            bad = mutate(bad, gen) if bad else bad
        path.write_bytes(bad)
        loaded = []
        for reader in (reference_load_channel, load_channel_csv):
            try:
                loaded.append(reader(path))
            except ValidationError:
                loaded.append(None)
        old, new = loaded
        if old is None:
            assert new is None, f"mutation {i}: {bad!r}"
        elif new is None:
            newly_refused += 1  # a damaged header, for one: the reference skipped any first line
        else:
            assert old.shape == new.shape and old.tobytes() == new.tobytes(), f"mutation {i}: {bad!r}"
            both += 1
    assert both >= 50 and newly_refused >= 5
