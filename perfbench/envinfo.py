"""Environment record: BLAS vendors, versions and live thread counts, CPU, versions.

Collected inside a worker process after NumPy and SciPy are loaded, so the
thread counts are the ones the workload ran with.
"""

import ctypes
import glob
import os
import platform


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime(package):
    """Config string and thread count from the OpenBLAS a package bundles."""
    libs = os.path.join(os.path.dirname(package.__file__), "..", package.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": "unknown", "threads": None}


def _blas(package):
    info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"vendor": info.get("name"), "version": info.get("version")}
    record.update(_openblas_runtime(package))
    return record


def collect():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads SciPy's BLAS)

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
