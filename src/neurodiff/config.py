"""Global numeric configuration.

Default precision is 64-bit float. A 32-bit mode can be switched on
globally (not per-tensor) for memory-constrained runs.
"""

from contextlib import contextmanager

import numpy as np

_DTYPE = np.float64


def set_precision(name):
    """Set the global floating precision: 'f64' (default) or 'f32'."""
    global _DTYPE
    if name == "f64":
        _DTYPE = np.float64
    elif name == "f32":
        _DTYPE = np.float32
    else:
        raise ValueError(f"unknown precision {name!r}, expected 'f32' or 'f64'")


def dtype():
    return _DTYPE


@contextmanager
def preserved_precision():
    """Restore the precision in force on entry when the block exits."""
    global _DTYPE
    saved = _DTYPE
    try:
        yield
    finally:
        _DTYPE = saved
