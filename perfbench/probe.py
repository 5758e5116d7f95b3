"""Print, as one JSON line, the numpy version and BLAS thread count that a
fresh interpreter running qbecc gets."""

import ctypes
import json

import numpy

THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads")


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


if __name__ == "__main__":
    print(json.dumps({"numpy": numpy.__version__, "blas_threads": blas_threads()}))
