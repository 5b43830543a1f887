"""BLAS thread pin and environment fingerprint.

:func:`pin_blas` must run before numpy is imported: OpenBLAS sizes its
thread pool when the library loads, and a pool wider than one thread
would make the measured figures depend on how busy the box's other CPU
is.  The fingerprint reads the thread count back from every loaded BLAS
library through ``ctypes`` instead of trusting the environment variables.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_THREADS = 1

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# (thread-count getter, config getter) symbol pairs, by library build
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def pin_blas(threads: int = BLAS_THREADS) -> dict:
    """Pin every BLAS/OpenMP pool to ``threads`` and drop ``REPRO_*``
    overrides so each run measures the library's default configuration.

    Returns the ``REPRO_*`` variables that were removed (recorded in the
    fingerprint).  Raises if numpy is already loaded, since the pin would
    then come too late to take effect.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    dropped = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("REPRO_")}
    return dropped


def _loaded_libraries() -> list[str]:
    """Paths of the shared objects mapped into this process that look
    like BLAS implementations."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 6:
                    continue
                name = os.path.basename(parts[5]).lower()
                if ".so" in name and any(
                    k in name for k in ("openblas", "mkl_rt", "blis")
                ):
                    paths.add(parts[5])
    except OSError:
        pass
    return sorted(paths)


def blas_libraries() -> list[dict]:
    """Vendor string and live thread count of every loaded BLAS."""
    out = []
    for path in _loaded_libraries():
        entry = {"library": os.path.basename(path), "vendor": "unknown", "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for get_threads, get_config in _OPENBLAS_SYMBOLS:
            if not hasattr(lib, get_threads):
                continue
            fn = getattr(lib, get_threads)
            fn.argtypes = []
            fn.restype = ctypes.c_int
            entry["threads"] = int(fn())
            if hasattr(lib, get_config):
                cfg = getattr(lib, get_config)
                cfg.argtypes = []
                cfg.restype = ctypes.c_char_p
                entry["vendor"] = cfg().decode(errors="replace").strip()
            break
        out.append(entry)
    return out


def _git_sha(root: str) -> str:
    """HEAD of the checkout at ``root``, read from ``.git`` directly (no
    subprocess); ``"unknown"`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: str, dropped_env: dict | None = None) -> dict:
    """CPUs, BLAS vendor and live thread counts, numpy/scipy versions and
    the git sha — printed beside every run's metrics."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": usable,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_threads_requested": BLAS_THREADS,
        "git_sha": _git_sha(root),
        "dropped_env": sorted(dropped_env or {}),
    }
