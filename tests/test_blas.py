import pytest

from wirepinn import _blas


@pytest.fixture
def fresh_lookup():
    """`_blas` looks its pools up once per process; look them up anew
    before the test and after it."""
    _blas._pools.cache_clear()
    yield
    _blas._pools.cache_clear()


def _real_pools():
    pools = [_blas._lookup(*entry) for entry in _blas._POOLS]
    if None in pools:
        pytest.skip("this numpy or scipy does not bundle the wheels' OpenBLAS")
    return pools


def _counts(pools):
    return [get() for get, _ in pools]


def test_one_thread_restores_both_counts(fresh_lookup):
    pools = _real_pools()
    before = _counts(pools)
    try:
        for _, set_ in pools:
            set_(3)
        with _blas.one_thread():
            assert _counts(pools) == [1, 1]
            with _blas.one_thread():
                assert _counts(pools) == [1, 1]
            assert _counts(pools) == [1, 1]
        assert _counts(pools) == [3, 3]
    finally:
        for (_, set_), count in zip(pools, before):
            set_(count)


def test_missing_symbol_runs_unpinned_with_one_warning(fresh_lookup, monkeypatch, caplog):
    pools = _real_pools()
    monkeypatch.setattr(_blas, "_POOLS", tuple((package, pattern, "no_such_symbol_{}")
                                               for package, pattern, _ in _blas._POOLS))
    before = _counts(pools)
    try:
        for _, set_ in pools:
            set_(3)
        with caplog.at_level("WARNING", logger="wirepinn._blas"):
            for _ in range(2):
                with _blas.one_thread():
                    assert _counts(pools) == [3, 3]
    finally:
        for (_, set_), count in zip(pools, before):
            set_(count)
    warnings = [r.getMessage() for r in caplog.records if r.name == "wirepinn._blas"]
    assert len(warnings) == 1 and warnings[0].startswith("no OpenBLAS thread control found for numpy and scipy")
