"""Process settings a run fixes before numpy is imported.

- BLAS reads its thread count once, when numpy is first imported.
- glibc's malloc serves blocks above a threshold with mmap, moves that
  threshold with the history of frees, and hands the top of the heap back
  to the OS once it passes another threshold.  A decay epoch allocates and
  frees 128-KiB arrays, so with the defaults it took ~2000 page faults and
  spent 40% of its time in the kernel, and a process flipped between
  that and a fault-free state twice as fast, depending on the order of
  earlier frees.  Fixing both thresholds keeps every such block on the heap.
"""

import ctypes
import os

BLAS_THREADS = 1
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from glibc's malloc.h
MMAP_THRESHOLD = 32 << 20  # the largest value glibc accepts on 64-bit
TRIM_THRESHOLD = 256 << 20


def pin():
    """Pin BLAS threads and malloc thresholds; returns the settings for the
    environment block.  Without glibc, malloc is left as it is."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return {"blas_threads": BLAS_THREADS, "malloc": "not pinned"}
    ok = (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
          and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    return {"blas_threads": BLAS_THREADS,
            "malloc": (f"mmap/trim thresholds {MMAP_THRESHOLD}/{TRIM_THRESHOLD}"
                       if ok else "not pinned")}
