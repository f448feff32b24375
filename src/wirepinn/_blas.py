"""The one door to BLAS and LAPACK, and one OpenBLAS thread for a call.

wirepinn calls four routines of its own: ``?gemv``, ``?ger`` and ``?axpy``
(float32 and float64) for the generator and Adam, and ``dgbsv`` for the
oracle's Newton step; the surrogate fit's SVD and products are numpy's
(``np.linalg.svd``, ``@``).  `routines()` binds the four, at first use,
through ctypes to the OpenBLAS that numpy's wheel bundles
(``numpy.libs/libscipy_openblas64_*.so``, 64-bit integers): the CBLAS
symbols for the BLAS routines and LAPACK's Fortran ``dgbsv`` (its
LAPACKE wrapper checks its input, and took 15% longer per call).  So every
BLAS and LAPACK call runs on the one library numpy loads anyway, and no
command imports ``scipy.linalg``.  ctypes checks nothing, so each routine
checks dtypes, contiguity and sizes and raises ValueError before it
calls C.  A numpy without that library, or without one of its symbols
(built on Accelerate or MKL, say), gets ``scipy.linalg``'s routines
instead, with one warning; on the same OpenBLAS they give the same bits.

The thread count of an OpenBLAS sets the summation order of a product,
and with it the last bits of every solve; two processes that each run
two threads on two cores run at a fraction of their speed.  `one_thread`
sets each OpenBLAS the process has loaded (numpy's; scipy's too once
``scipy.linalg`` is imported) to one thread through its own
``get``/``set_num_threads`` symbols and restores the previous counts on
exit, so the bits depend on neither the host's core count nor
``OPENBLAS_NUM_THREADS``, and one worker per core runs at full speed.
Without any such symbol the calls run unpinned, with one warning.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import os
import sys

import numpy as np

logger = logging.getLogger(__name__)

# CBLAS enumerations
_ROW_MAJOR, _NO_TRANS, _TRANS = ctypes.c_int(101), ctypes.c_int(111), ctypes.c_int(112)
_ONE = ctypes.c_int64(1)
# a scalar argument of the float32 (char "f") and float64 ("d") routines
_SCALAR = {"f": ctypes.c_float, "d": ctypes.c_double}
# an array argument, made from the array's buffer without copying it
_BYTES = ctypes.c_char * 0


def _library(package_dir: str, package: str, pattern: str, mode: int = ctypes.DEFAULT_MODE):
    """The one OpenBLAS matching ``pattern`` in ``<site-packages>/<package>.libs``
    as a CDLL, or None when it is not there (or, with os.RTLD_NOLOAD, not
    loaded yet)."""
    libs = os.path.join(os.path.dirname(package_dir), package + ".libs")
    paths = glob.glob(os.path.join(libs, pattern))
    if len(paths) != 1:
        return None
    try:
        return ctypes.CDLL(paths[0], mode=mode)
    except OSError:
        return None


def _numpy_openblas(mode: int = ctypes.DEFAULT_MODE):
    """numpy's bundled OpenBLAS, which numpy itself has loaded, or None."""
    return _library(os.path.dirname(np.__file__), "numpy", "libscipy_openblas64_*.so", mode)


def _pointer(a: np.ndarray, written: bool = False):
    """An argument that passes a C-contiguous array's data to C.  Raises
    ValueError for an array that is not C-contiguous, or read-only where
    C writes it."""
    try:
        return _BYTES.from_buffer(a)  # checks C-contiguity; refuses a read-only array
    except TypeError:
        if not a.flags.c_contiguous:
            raise ValueError(f"BLAS takes C-contiguous arrays, not strides {a.strides}") from None
        if written:
            raise ValueError("BLAS cannot write a read-only array") from None
        return ctypes.c_void_p(a.ctypes.data)


def _kind(a, *others) -> str:
    """The arrays' dtype, "f" (float32) or "d" (float64).  Raises
    ValueError for any other dtype, or for arrays of mixed ones."""
    kind = a.dtype.char
    if kind not in "fd" or any(o.dtype.char != kind for o in others):
        raise ValueError(f"BLAS takes arrays of one dtype, float32 or float64, not "
                         f"{', '.join(str(o.dtype) for o in (a, *others))}")
    return kind


def _check_gemv(a, y, trans) -> tuple:
    """(dtype, shape of x) of ``y += a @ x``."""
    kind = _kind(a, y)
    if a.ndim != 2 or y.shape != a.shape[1 if trans else 0:][:1]:
        raise ValueError(f"gemv of a {a.shape}{'.T' if trans else ''} matrix into y {y.shape}")
    return kind, a.shape[0 if trans else 1:][:1]


def _refuse_vector(kind, shape, x):
    raise ValueError(f"gemv takes x of shape {shape} and dtype {np.dtype(kind)}, not {x.shape} {x.dtype}")


def _check_matrix(a) -> str:
    kind = _kind(a)
    if a.ndim != 2:
        raise ValueError(f"ger updates a 2-D matrix, not {a.ndim}-D")
    return kind


def _refuse_outer(kind, shape, x, y):
    raise ValueError(f"ger of x {x.shape} {x.dtype} and y {y.shape} {y.dtype} into a "
                     f"{shape} {np.dtype(kind)} matrix")


def _check_axpy(x, y) -> str:
    kind = _kind(x, y)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"axpy of x {x.shape} into y {y.shape}")
    return kind


def _check_gbsv(kl, ku, ab, b) -> None:
    if ab.dtype.char != "d" or b.dtype.char != "d":
        raise ValueError(f"gbsv solves in float64, not {ab.dtype} and {b.dtype}")
    if kl < 0 or ku < 0 or ab.ndim != 2 or ab.shape[0] != 2 * kl + ku + 1 or b.shape != ab.shape[1:]:
        raise ValueError(f"gbsv with {kl} sub- and {ku} superdiagonals of a {ab.shape} band "
                         f"and b {b.shape}")
    if not ab.flags.f_contiguous:
        raise ValueError("gbsv factorizes in an F-contiguous band")


class _Bundled:
    """The routines of numpy's bundled OpenBLAS.  Each array operand is
    checked and passed as a pointer; an operand a routine binds once
    (`gemv_into`, `ger_into`, `axpy_into`) keeps its pointer and sizes
    for every call."""

    def __init__(self, lib):
        # a missing symbol raises AttributeError here
        self._gemv = {"f": lib.scipy_cblas_sgemv64_, "d": lib.scipy_cblas_dgemv64_}
        self._ger = {"f": lib.scipy_cblas_sger64_, "d": lib.scipy_cblas_dger64_}
        self._axpy = {"f": lib.scipy_cblas_saxpy64_, "d": lib.scipy_cblas_daxpy64_}
        self._dgbsv = lib.scipy_dgbsv_64_
        for f in (*self._gemv.values(), *self._ger.values(), *self._axpy.values(), self._dgbsv):
            f.restype = None  # every argument is passed as a ctypes object

    def gemv_into(self, a, y, trans=False):
        """``update(x)``, which does ``y += a @ x`` (``a.T @ x`` with
        ``trans``) in place; ``a`` is a C-contiguous matrix."""
        kind, shape = _check_gemv(a, y, trans)
        f, one, pa, py = self._gemv[kind], _SCALAR[kind](1.0), _pointer(a), _pointer(y, True)
        rows, cols = ctypes.c_int64(a.shape[0]), ctypes.c_int64(a.shape[1])
        order = _TRANS if trans else _NO_TRANS

        def update(x):
            if x.shape != shape or x.dtype.char != kind:
                _refuse_vector(kind, shape, x)
            f(_ROW_MAJOR, order, rows, cols, one, pa, cols, _pointer(x), _ONE, one, py, _ONE)
        return update

    def ger_into(self, a):
        """``update(alpha, x, y)``, which does ``a += alpha * outer(x, y)``
        in place on the C-contiguous matrix ``a``."""
        kind = _check_matrix(a)
        f, scalar, pa, shape = self._ger[kind], _SCALAR[kind], _pointer(a, True), a.shape
        rows, cols = ctypes.c_int64(shape[0]), ctypes.c_int64(shape[1])

        def update(alpha, x, y):
            if x.shape != shape[:1] or y.shape != shape[1:] or x.dtype.char != kind or y.dtype.char != kind:
                _refuse_outer(kind, shape, x, y)
            f(_ROW_MAJOR, rows, cols, scalar(alpha), _pointer(x), _ONE, _pointer(y), _ONE, pa, cols)
        return update

    def axpy_into(self, x, y):
        """``update(alpha)``, which does ``y += alpha * x`` in place."""
        kind = _check_axpy(x, y)
        f, scalar, n = self._axpy[kind], _SCALAR[kind], ctypes.c_int64(x.size)
        px, py = _pointer(x), _pointer(y, True)
        return lambda alpha: f(n, scalar(alpha), px, _ONE, py, _ONE)

    def gbsv(self, kl, ku, ab, b):
        """LAPACK's banded LU solve: factorizes the F-contiguous float64
        band ``ab`` (LAPACK's (2kl + ku + 1, n) layout) and overwrites
        ``b`` with the solution, both in place; returns LAPACK's info."""
        _check_gbsv(kl, ku, ab, b)
        ipiv = np.empty(b.size, np.int64)
        n, info = ctypes.c_int64(b.size), ctypes.c_int64()
        self._dgbsv(ctypes.byref(n), ctypes.byref(ctypes.c_int64(kl)), ctypes.byref(ctypes.c_int64(ku)),
                    ctypes.byref(_ONE), _pointer(ab.T, True), ctypes.byref(ctypes.c_int64(ab.shape[0])),
                    _pointer(ipiv), _pointer(b, True), ctypes.byref(n), ctypes.byref(info))
        return info.value


class _SciPy:
    """The same routines from ``scipy.linalg``, for a numpy without the
    bundled OpenBLAS; same arguments, same checks.  f2py would copy an
    argument it cannot pass as it is; `_pointer` refuses those first, so
    every routine works in the caller's arrays."""

    def __init__(self):
        from scipy.linalg import blas, lapack

        self._gemv = {k: blas.get_blas_funcs("gemv", dtype=k) for k in "fd"}
        self._ger = {k: blas.get_blas_funcs("ger", dtype=k) for k in "fd"}
        self._axpy = {k: blas.get_blas_funcs("axpy", dtype=k) for k in "fd"}
        self._dgbsv = lapack.dgbsv

    def gemv_into(self, a, y, trans=False):
        kind, shape = _check_gemv(a, y, trans)
        _pointer(a), _pointer(y, True)
        # a.T is the Fortran matrix f2py passes in place
        f, trans = self._gemv[kind], 0 if trans else 1

        def update(x):
            if x.shape != shape or x.dtype.char != kind:
                _refuse_vector(kind, shape, x)
            _pointer(x)
            f(1.0, a.T, x, 1.0, y, trans=trans, overwrite_y=True)
        return update

    def ger_into(self, a):
        kind = _check_matrix(a)
        _pointer(a, True)
        f, shape = self._ger[kind], a.shape

        def update(alpha, x, y):
            if x.shape != shape[:1] or y.shape != shape[1:] or x.dtype.char != kind or y.dtype.char != kind:
                _refuse_outer(kind, shape, x, y)
            _pointer(x), _pointer(y)
            f(alpha, y, x, a=a.T, overwrite_a=True)
        return update

    def axpy_into(self, x, y):
        f = self._axpy[_check_axpy(x, y)]
        _pointer(x), _pointer(y, True)
        return lambda alpha: f(x, y, a=alpha)

    def gbsv(self, kl, ku, ab, b):
        _check_gbsv(kl, ku, ab, b)
        _pointer(ab.T, True), _pointer(b, True)
        return self._dgbsv(kl, ku, ab, b, overwrite_ab=True, overwrite_b=True)[3]


def _bundled():
    """The routines of numpy's bundled OpenBLAS, or None when numpy has no
    such library or it lacks a symbol."""
    lib = _numpy_openblas()
    try:
        return None if lib is None else _Bundled(lib)
    except AttributeError:
        return None


@functools.cache
def routines():
    """The bound routines, the same for the whole process: numpy's bundled
    OpenBLAS where the platform has it, ``scipy.linalg``'s with one warning
    where it does not."""
    found = _bundled()
    if found is None:
        logger.warning("numpy bundles no OpenBLAS with the routines wirepinn calls; "
                       "BLAS and LAPACK run on scipy.linalg's")
        found = _SciPy()
    return found


# (package, library file pattern in <site-packages>/<package>.libs, symbol stem)
_POOLS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"),
)


def _lookup(package: str, pattern: str, stem: str):
    """(get, set) of the thread count of a package's bundled OpenBLAS, or
    None when the package, its library or a symbol is not loaded."""
    module = sys.modules.get(package)
    if module is None:
        return None
    # RTLD_NOLOAD: only a library the package has loaded; loading scipy's
    # just to pin it would cost memory and pin nothing that runs
    lib = _library(os.path.dirname(module.__file__), package, pattern, getattr(os, "RTLD_NOLOAD", 0))
    try:
        get, set_ = getattr(lib, stem.format("get")), getattr(lib, stem.format("set"))
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def _pools() -> tuple:
    """The thread-count controls found, looked up once per process."""
    routines()  # the fallback loads scipy's OpenBLAS, which then needs a pin
    found = [pool for pool in (_lookup(*entry) for entry in _POOLS) if pool is not None]
    if not found:
        logger.warning("no OpenBLAS thread control found; BLAS runs unpinned, "
                       "and solves may differ in their last bits with the thread count")
    return tuple(found)


@contextlib.contextmanager
def one_thread():
    """Run the body, or a decorated function, with every loaded OpenBLAS
    at one thread; the previous counts come back on exit."""
    pools = _pools()
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, previous):
            set_(count)
