import numpy as np
import pytest
from scipy.linalg import blas, lapack

from wirepinn import _blas, oracle, pinn, surrogate

# The generator's shapes (1-64-256-n_out on the canonical and the 17x8
# device) and a bias's one-column moment.  numpy's and scipy's wheels may
# bundle different OpenBLAS releases (numpy 2.4.6's 0.3.31, scipy
# 1.17.1's 0.3.30), whose float32 kernels round some narrower
# matrices differently; these shapes agree.
SHAPES = [(64, 1), (256, 64), (136, 256), (2193, 256), (256, 1)]
DTYPES = [np.float32, np.float64]


@pytest.fixture
def fresh_lookup():
    """`_blas` binds its routines and looks its pools up once per process;
    do both anew before the test and after it."""
    _blas.routines.cache_clear()
    _blas._pools.cache_clear()
    yield
    _blas.routines.cache_clear()
    _blas._pools.cache_clear()


def _numpy_pool():
    pool = _blas._lookup(*_blas._POOLS[0])
    if pool is None:
        pytest.skip("this numpy does not bundle the wheels' OpenBLAS")
    return pool


def test_one_thread_restores_numpys_count(fresh_lookup):
    get, set_ = _numpy_pool()
    before = get()
    try:
        set_(3)
        with _blas.one_thread():
            assert get() == 1
            with _blas.one_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 3
    finally:
        set_(before)


def test_missing_symbol_runs_unpinned_with_one_warning(fresh_lookup, monkeypatch, caplog):
    get, set_ = _numpy_pool()
    monkeypatch.setattr(_blas, "_POOLS", tuple((package, pattern, "no_such_symbol_{}")
                                               for package, pattern, _ in _blas._POOLS))
    before = get()
    try:
        set_(3)
        with caplog.at_level("WARNING", logger="wirepinn._blas"):
            for _ in range(2):
                with _blas.one_thread():
                    assert get() == 3
    finally:
        set_(before)
    warnings = [r.getMessage() for r in caplog.records if r.name == "wirepinn._blas"]
    assert len(warnings) == 1 and warnings[0].startswith("no OpenBLAS thread control found")


def _products(mesh, params):
    """A 17x8 ramp, its fit and a 20-epoch solve, as bytes."""
    sweep = oracle.ramp_sweep(mesh, params, 0.0, 0.75, 0.0075)
    sur = surrogate.fit(sweep.snapshots[:40], mesh.fingerprint())
    problem = pinn.PinnProblem(mesh=mesh, surrogate=sur, params=params)
    result = pinn.solve_bias(problem, 0.75, pinn.SolveOptions(epochs=20, seed=9))
    arrays = [a for s in sweep.snapshots for a in (s.phi, s.n)]
    arrays += [sur.left, sur.right, sur.intercept, result.history,
               result.prediction.phi, result.prediction.n]
    return [a.tobytes() for a in arrays]


def test_fallback_warns_once_and_gives_the_same_bytes(fresh_lookup, monkeypatch, caplog,
                                                      small_mesh, params):
    if _blas._bundled() is None:
        pytest.skip("this numpy does not bundle the wheels' OpenBLAS: the fallback is all there is")
    bundled = _products(small_mesh, params)
    _blas.routines.cache_clear()
    _blas._pools.cache_clear()
    monkeypatch.setattr(_blas, "_bundled", lambda: None)
    with caplog.at_level("WARNING", logger="wirepinn._blas"):
        assert isinstance(_blas.routines(), _blas._SciPy)
        fallback = _products(small_mesh, params)
    warnings = [r.getMessage() for r in caplog.records if r.name == "wirepinn._blas"]
    assert len(warnings) == 1 and warnings[0].startswith("numpy bundles no OpenBLAS")
    assert fallback == bundled


# ---------------------------------------------------------------------------
# the bindings, against scipy.linalg's routines

def _backends():
    """Each set of routines on this platform: numpy's bundle, if there is
    one, and the scipy.linalg fallback."""
    bundled = _blas._bundled()
    return [b for b in (bundled, _blas._SciPy()) if b is not None]


@pytest.mark.parametrize("dtype", DTYPES)
def test_ger_gives_scipys_bits(dtype):
    rng = np.random.default_rng(2)
    f = blas.get_blas_funcs("ger", dtype=dtype)
    for routines in _backends():
        for rows, cols in SHAPES:
            for _ in range(4):
                a = rng.standard_normal((rows, cols)).astype(dtype)
                x, y = rng.standard_normal(rows).astype(dtype), rng.standard_normal(cols).astype(dtype)
                alpha = float(rng.standard_normal())
                want = f(alpha, y, x, a=a.T.copy(order="F")).T
                routines.ger_into(a)(alpha, x, y)
                assert a.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_axpy_gives_scipys_bits(dtype):
    rng = np.random.default_rng(3)
    f = blas.get_blas_funcs("axpy", dtype=dtype)
    for routines in _backends():
        for n in (1, 64, 2193, 65536):
            for _ in range(4):
                x, y = rng.standard_normal(n).astype(dtype), rng.standard_normal(n).astype(dtype)
                alpha = float(rng.standard_normal())
                want = f(x, y.copy(), a=alpha)
                routines.axpy_into(x, y)(alpha)
                assert y.tobytes() == want.tobytes()


def test_gbsv_gives_scipys_bits():
    rng = np.random.default_rng(4)
    for routines in _backends():
        for u, n in ((1, 5), (6, 40), (8, 136), (17, 2193)):
            for _ in range(4):
                band = rng.standard_normal((3 * u + 1, n))
                band[2 * u] += 10.0  # the diagonal, so the system is well posed
                b = rng.standard_normal(n)
                lub, _, want, info = lapack.dgbsv(u, u, band.copy(order="F"), b.copy())
                lu, x = band.copy(order="F"), b.copy()
                assert routines.gbsv(u, u, lu, x) == info == 0
                assert x.tobytes() == want.tobytes() and lu.tobytes() == lub.tobytes()


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("case", [
    "F-ordered matrix", "1-D matrix", "read-only matrix", "integer matrix",
    "short x", "long y", "float64 y", "strided x"])
def test_ger_refuses(case):
    f32 = np.float32
    a, x, y = np.zeros((4, 3), f32), np.ones(4, f32), np.ones(3, f32)
    bind = {"F-ordered matrix": np.zeros((4, 3), f32, order="F"), "1-D matrix": np.zeros(12, f32),
            "read-only matrix": _read_only(np.zeros((4, 3), f32)),
            "integer matrix": np.zeros((4, 3), np.int32)}
    call = {"short x": (np.ones(3, f32), y), "long y": (x, np.ones(4, f32)), "float64 y": (x, np.ones(3)),
            "strided x": (np.ones(8, f32)[::2], y)}
    for routines in _backends():
        with pytest.raises(ValueError):
            routines.ger_into(bind.get(case, a))(1.0, *call.get(case, (x, y)))
        assert not a.any()


@pytest.mark.parametrize("case", ["size mismatch", "mixed dtypes", "strided x", "read-only y", "2-D"])
def test_axpy_refuses(case):
    x, y = np.ones(4), np.zeros(4)
    args = {"size mismatch": (x, np.zeros(5)), "mixed dtypes": (x, np.zeros(4, np.float32)),
            "strided x": (np.ones(8)[::2], y), "read-only y": (x, _read_only(np.zeros(4))),
            "2-D": (np.ones((2, 2)), np.zeros((2, 2)))}[case]
    for routines in _backends():
        with pytest.raises(ValueError):
            routines.axpy_into(*args)(1.0)
        assert not y.any()


def _unaligned(n, writable):
    """A float64 vector of ones that starts 4 bytes past an 8-byte boundary."""
    raw = bytes(4) + np.ones(n).tobytes()
    arr = np.frombuffer(bytearray(raw) if writable else raw, np.float64, n, 4)
    assert not arr.flags.aligned and arr.flags.writeable == writable
    return arr


@pytest.mark.parametrize("writable", [False, True], ids=["read-only", "writable"])
def test_unaligned_refused(writable):
    # a container array may start at any byte offset; ctypes' from_buffer
    # checks no alignment, so C must never see such an array
    a, y = np.zeros((4, 3)), np.zeros(4)
    for routines in _backends():
        m = _unaligned(12, writable).reshape(4, 3)
        with pytest.raises(ValueError, match="aligned"):
            routines.ger_into(m)(1.0, np.ones(4), np.ones(3))
        assert np.all(m == 1.0)
        with pytest.raises(ValueError, match="aligned"):
            routines.ger_into(a)(1.0, np.ones(4), _unaligned(3, writable))
        with pytest.raises(ValueError, match="aligned"):
            routines.axpy_into(_unaligned(4, writable), y)(1.0)
        assert not a.any() and not y.any()
    if writable:
        x = np.ones(4)
        for routines in _backends():
            y = _unaligned(4, True)
            with pytest.raises(ValueError, match="aligned"):
                routines.axpy_into(x, y)(1.0)
            assert np.all(y == 1.0)


@pytest.mark.parametrize("case", ["float32", "C-ordered band", "band rows", "short b", "strided b",
                                  "read-only b", "read-only band"])
def test_gbsv_refuses(case):
    u, n = 2, 10
    band, b = np.zeros((3 * u + 1, n), order="F"), np.ones(n)
    band[2 * u] = 1.0
    args = {"float32": (band.astype(np.float32), b), "C-ordered band": (np.ascontiguousarray(band), b),
            "band rows": (np.zeros((3 * u, n), order="F"), b), "short b": (band, np.ones(n - 1)),
            "strided b": (band, np.ones(2 * n)[::2]), "read-only b": (band, _read_only(np.ones(n))),
            "read-only band": (_read_only(band.copy(order="F")), b)}[case]
    for routines in _backends():
        with pytest.raises(ValueError):
            routines.gbsv(u, u, *args)
        assert np.all(b == 1.0) and np.all(band[2 * u] == 1.0)
