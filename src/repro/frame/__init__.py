"""A small numpy-backed columnar frame.

The offline environment has no pandas, so the co-analysis pipeline is
written against this substrate instead. It provides the handful of
operations log analysis actually needs — boolean filtering, multi-key
sorting, hash group-by with vectorized aggregations, equi-joins, and
delimited text io — all vectorized over numpy arrays.

The public entry point is :class:`Frame`; :func:`concat` stacks frames
row-wise, :mod:`repro.frame.io` reads/writes delimited text, and
:mod:`repro.frame.npz` is the one on-disk frame file format.
"""

from repro.frame.column import (
    as_column,
    factorize,
    factorize_many,
    first_occurrence_mask,
    is_float_kind,
    is_integer_kind,
    is_string_kind,
)
from repro.frame.frame import Frame, concat
from repro.frame.groupby import GroupBy
from repro.frame.io import read_delimited, write_delimited

__all__ = [
    "Frame",
    "GroupBy",
    "concat",
    "as_column",
    "factorize",
    "factorize_many",
    "first_occurrence_mask",
    "is_float_kind",
    "is_integer_kind",
    "is_string_kind",
    "read_delimited",
    "write_delimited",
]
