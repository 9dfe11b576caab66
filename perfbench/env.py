"""Thread pinning, source location and the machine record.

Nothing here imports numpy at module level: ``pin_threads`` has to run
before the first numpy import of a process, because OpenBLAS reads its
thread count once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# One BLAS thread per process. The CLI workload runs two solves at once
# (--jobs 2), so total threads stay at 2 = nproc of the reference machine;
# the API workloads measured no faster with two BLAS threads, only noisier.
BLAS_THREADS = 1
CLI_JOBS = 2
THREAD_ENV = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the path, or exit with status 2:
    the benchmark measures the source next to it, never an installed copy."""
    if not (SRC / "srtd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no srtd package at {SRC / 'srtd'}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def machine_record() -> dict:
    """Versions, BLAS, thread settings and CPU count, so that figures from
    different machines are never compared unlabelled."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "cli_jobs": CLI_JOBS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
