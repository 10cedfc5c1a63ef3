"""Machine, library and thread record stored with every results file."""

from __future__ import annotations

import ctypes
import os
import platform

# variables through which a parent shell could pin BLAS/OpenMP threads; the
# benchmark removes them so each workload runs at the library default
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "SCHOOL_THREADS")


def clean_env(env: dict) -> dict:
    return {k: v for k, v in env.items() if k not in THREAD_VARS}


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if ".so" in os.path.basename(p))


def blas_threads() -> list[dict]:
    """Each loaded OpenBLAS: its file, its config string, its thread count."""
    out = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is None:
                    continue
                fn.restype = ctypes.c_int
                fn.argtypes = []
                entry["threads"] = int(fn())
                if cfg is not None:
                    cfg.restype = ctypes.c_char_p
                    cfg.argtypes = []
                    entry["config"] = cfg().decode(errors="replace").strip()
                break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def _blas_build(mod) -> str:
    try:
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def commit(root: str) -> str:
    """The checkout's commit from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def record(root: str) -> dict:
    """Call after numpy and scipy are loaded, in the process that measures."""
    import numpy
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_runtime": blas_threads(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "commit": commit(root),
    }
