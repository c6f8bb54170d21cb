"""Paths, thread pinning and the environment record shared by the benchmark scripts.

Import this module and call `bootstrap()` before anything imports numpy: the
BLAS thread count is read from the environment when the library loads.
"""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFS_DIR = Path(__file__).resolve().parent / "refs"
OUT_DIR = ROOT / ".bench_out"
CONFIG = ROOT / "configs" / "acceptance.cfg"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread: the machine has two CPUs shared with other tenants, and a
# single thread gives the steadiest timings.  Recorded in every result.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and put the checkout's `src/` first on the path.

    Exits with status 2 when the program's sources or the acceptance config
    are missing, so a directory holding only the benchmark yields no result.
    """
    missing = [p for p in (ROOT / "src" / "gssm" / "__init__.py", CONFIG, SPEC)
               if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
              "run from a full checkout", file=sys.stderr)
        sys.exit(2)
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # Sources are compiled in memory; the checkout's src/ stays untouched.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """Versions, BLAS library and its pinned thread count, CPUs and the seed."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload_seed": seed,
    }
