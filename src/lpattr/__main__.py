import os

# BLAS threads do not pay at this network's matrix sizes, and a model query
# deals its tiles to one lane per CPU only when BLAS runs one thread (see
# lpattr.nn). OpenBLAS reads these variables once, when numpy loads, so they
# are set before .cli imports numpy; a thread count set in either one wins.
if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
