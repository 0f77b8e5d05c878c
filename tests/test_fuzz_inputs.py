"""Seeded mutation fuzz of every file kind the CLI reads.

Each kind is written once by the package itself, then damaged by byte
flips, truncations, token swaps (``nan``, ``1e999``, ``-``, empty) and
deleted lines, and read back through in-process ``cli.main`` by the
cheapest command that reads it. Whatever the damage, the command must
return 0, 2, 3 or 4, raise nothing, and print exactly one ``error:`` line
when it fails. Seeds and counts are fixed, so a failure replays.
"""

import re
import shutil

import numpy as np
import pytest

from lpattr import cli
from lpattr.fixtures import lp_box
from lpattr.lp import save_lp

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
    a small model, and a 4x3 saliency grid of that model."""
    d = tmp_path_factory.mktemp("originals")
    save_lp(lp_box(), d / "lp.json")
    steps = [
        ["gen-data", "--lp", "box", "--encoding", "boundary-distance", "--count", "20", "--name", "data"],
        ["train", "--data", str(d / "data.csv"), "--depth", "2", "--width", "4", "--epochs", "1", "--name", "m"],
        ["grid", "--model", str(d / "m.model"), "--method", "saliency", "--resolution", "4,3", "--name", "g"],
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
