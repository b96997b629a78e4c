"""Process set-up shared by the benchmark runner and the set-up probe.

Imported before numpy: it pins the BLAS and OpenMP pools to one thread and
puts the checkout's ``src`` first on ``sys.path``, refusing to run against
an installed copy of the package.
"""

import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def prepare() -> Path:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    for p in (str(HERE), str(src)):
        if p not in sys.path:
            sys.path.insert(0, p)
    spec = importlib.util.find_spec("spectral_stokes")
    if spec is None or spec.origin is None or not Path(spec.origin).resolve().is_relative_to(src):
        raise SystemExit(f"spectral_stokes not found under {src}")
    return ROOT
