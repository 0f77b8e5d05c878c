"""Shared fixtures: trained models are expensive, so they are built once per
session and shared by the attribution, grid, and acceptance tests."""

import os
from pathlib import Path

# As in `python -m lpattr`: one BLAS thread, so model queries deal their
# tiles to one lane per CPU (see lpattr.nn). OpenBLAS reads these variables
# once, when numpy loads, so they are set before the first numpy import; a
# thread count already set in either one wins.
if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import lpattr  # noqa: E402
from lpattr.data import generate_dataset  # noqa: E402
from lpattr.encodings import ENCODING_KINDS, make_encoding  # noqa: E402
from lpattr.fixtures import lp_5d, lp_box  # noqa: E402
from lpattr.nn import ModelConfig, train_model  # noqa: E402

BOX_SEED = 501
BOX_COUNT = 20_000


def lpattr_subprocess_env() -> dict:
    """Environment for a child `python -m lpattr`: this process's, with the
    directory that holds the imported `lpattr` package first on PYTHONPATH.

    The child then runs exactly the package under test, from a source checkout
    or an installed copy, whatever its working directory; a relative
    PYTHONPATH entry such as `src` would not resolve from a tmp `cwd`.
    """
    package_root = str(Path(lpattr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def box_lp():
    return lp_box()


@pytest.fixture(scope="session")
def box_encodings(box_lp):
    exclusions = {"vertex-distance": np.zeros((1, box_lp.n))}
    return {
        kind: make_encoding(box_lp, kind, excluded_vertices=exclusions.get(kind))
        for kind in ENCODING_KINDS
    }


@pytest.fixture(scope="session")
def box_datasets(box_lp, box_encodings):
    return {
        kind: generate_dataset(box_lp, enc, BOX_COUNT, seed=BOX_SEED)
        for kind, enc in box_encodings.items()
    }


@pytest.fixture(scope="session")
def box_models(box_datasets):
    return {
        kind: train_model(ds, ModelConfig(seed=BOX_SEED))
        for kind, ds in box_datasets.items()
    }


@pytest.fixture(scope="session")
def feasibility_100k_model(box_lp, box_encodings):
    ds = generate_dataset(box_lp, box_encodings["feasibility"], 100_000, seed=808)
    return train_model(ds, ModelConfig(seed=808)), ds


@pytest.fixture(scope="session")
def fivedim_report():
    from lpattr.experiments import experiment_5dim

    return experiment_5dim(lp_5d(), seed=131)


@pytest.fixture(scope="session")
def monotone_model():
    from lpattr.properties import build_monotone_harness

    return build_monotone_harness(n=2, seed=17)
