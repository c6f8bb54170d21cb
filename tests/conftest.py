"""Session-wide test helpers: which OpenBLAS kernel numpy runs on, and no
worker process kept from one test to the next.

A pinned output digest, or a pinned printed digit, holds for the kernel it
was taken on; other OpenBLAS kernels may round a product differently.  The
session header names the kernel in use, and the report of every failing test
names both, so a failure on another kernel reads as a kernel difference, not
as a regression of the forward.
"""

from __future__ import annotations

import ctypes
import functools
import pathlib

import numpy as np
import pytest

from gssm import _pool

# The OpenBLAS core that numpy's bundled OpenBLAS picked where the pinned
# digests and digits were taken (an x86-64 host with AVX-512).
DIGEST_CORE = "SkylakeX"


@functools.cache
def openblas_core() -> str | None:
    """The core name of numpy's bundled OpenBLAS (e.g. 'SkylakeX', or the
    one `OPENBLAS_CORETYPE` selects), or None where it cannot be read: no
    bundled library, or one without `scipy_openblas_get_corename64_`."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii").strip() or None
    return None


def pytest_report_header(config):
    return f"openblas core: {openblas_core()}"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.failed:
        report.sections.append((
            "OpenBLAS core",
            f"pinned digests were taken on {DIGEST_CORE}; this run uses "
            f"{openblas_core() or 'an unknown core'}"))


@pytest.fixture(autouse=True)
def _no_worker_pool_outlives_its_test():
    """Shut down and drop any worker pool a test forked.  A worker runs the
    modules as they were at its fork, so a pool kept for a later test would
    run a function that test patches as it was before the patch."""
    yield
    if _pool._processes is not None:
        _pool._processes.shutdown()
        _pool._processes = None
