"""Environment record attached to every benchmark result.

Nothing here changes the environment: thread counts are read, never set,
because the program's own BLAS threading (and the sweep's
oversubscription of it) is part of what the benchmark measures.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import platform


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded, or Nones."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = threads = None
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_config{suffix}", None)
                counter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is not None and config is None:
                    getter.restype = ctypes.c_char_p
                    config = getter().decode()
                if counter is not None and threads is None:
                    counter.restype = ctypes.c_int
                    threads = int(counter())
        if config or threads:
            return config, threads
    return None, None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src_dir: str) -> str:
    """sha256 over the package's .py files (path and content), so results
    from a checkout without git still name the code they measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_dir).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def collect(root: str, src_dir: str) -> dict:
    """Versions, accelerators, BLAS threading and the machine; call after
    numpy has been imported."""
    import numpy
    import scipy

    blas_config, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "threadpoolctl_installed": importlib.util.find_spec("threadpoolctl") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src_dir),
    }
