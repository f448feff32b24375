"""One OpenBLAS thread for the duration of a call.

numpy and scipy each bundle an OpenBLAS (the wheels' ``numpy.libs`` and
``scipy.libs``), and each starts one thread per core.  The thread count
sets the summation order of a matrix product, and with it the last bits
of every solve; two processes that each run two threads on two cores run
at a fraction of their speed.  `one_thread` sets both pools to one thread
through the libraries' own ``get``/``set_num_threads`` symbols and
restores the previous counts on exit, so the bits depend on neither the
host's core count nor ``OPENBLAS_NUM_THREADS``, and one worker per core
runs at full speed.  A numpy or scipy not built on the wheels' OpenBLAS
lacks the symbols: then the calls run unpinned, with one warning.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import os

import numpy
import scipy

logger = logging.getLogger(__name__)

# (package, library file pattern in <site-packages>/<package>.libs, symbol stem)
_POOLS = (
    (numpy, "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    (scipy, "libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"),
)


def _lookup(package, pattern: str, stem: str):
    """(get, set) of a package's bundled OpenBLAS thread count, or None
    when the library or a symbol is not there."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs")
    paths = glob.glob(os.path.join(libs, pattern))
    if len(paths) != 1:
        return None
    try:
        lib = ctypes.CDLL(paths[0])  # already loaded by the package, so the same pool
        get, set_ = getattr(lib, stem.format("get")), getattr(lib, stem.format("set"))
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def _pools() -> tuple:
    """The thread-count controls found, looked up once per process."""
    found, missing = [], []
    for package, pattern, stem in _POOLS:
        pool = _lookup(package, pattern, stem)
        if pool is None:
            missing.append(package.__name__)
        else:
            found.append(pool)
    if missing:
        logger.warning("no OpenBLAS thread control found for %s; BLAS runs unpinned, "
                       "and solves may differ in their last bits with the thread count",
                       " and ".join(missing))
    return tuple(found)


@contextlib.contextmanager
def one_thread():
    """Run the body, or a decorated function, with both OpenBLAS pools at
    one thread; the previous counts come back on exit."""
    pools = _pools()
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, previous):
            set_(count)
