"""Test-only helpers for the frame file format (:mod:`repro.frame.npz`).

* :func:`reference_arrays` is the ``np.unique`` encoder the codec's
  ``factorize`` encoder must reproduce array for array;
* :func:`rewrite_npz` edits a frame file's stored arrays in place, the
  way a damaged-but-decodable file would look.
"""

from contextlib import contextmanager

import numpy as np


def reference_arrays(frame) -> dict[str, np.ndarray]:
    """The arrays a frame file stores for *frame*, by ``np.unique``."""
    arrays = {}
    for j, name in enumerate(frame.columns):
        col = frame[name]
        if col.dtype == object:
            values, codes = np.unique(col, return_inverse=True)
            arrays[f"{j}.values"] = values
            arrays[f"{j}.codes"] = codes.astype(np.int32)
        else:
            arrays[f"{j}.raw"] = col
    return arrays


@contextmanager
def rewrite_npz(path):
    """Yield the arrays of the ``.npz`` at *path*; write them back after."""
    with np.load(path, allow_pickle=True) as npz:
        arrays = {name: npz[name] for name in npz.files}
    yield arrays
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
