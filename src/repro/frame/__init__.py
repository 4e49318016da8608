"""A small numpy-backed columnar frame.

The offline environment has no pandas, so the co-analysis pipeline is
written against this substrate instead. It provides the handful of
operations the pipeline actually runs — boolean filtering, row takes,
multi-key sorting, dictionary encoding (:func:`factorize`) and
delimited text io — all vectorized over numpy arrays. Grouping and
joining are done by the dedicated kernels that need them (the interval
join in :mod:`repro.core.matching`, the chain collapse in
:func:`repro.frame.column.chain_collapse_mask`), not by a generic
group-by or equi-join.

The public entry point is :class:`Frame`; :func:`concat` stacks frames
row-wise, :mod:`repro.frame.io` writes and classifies delimited text,
and :mod:`repro.frame.npz` is the one on-disk frame file format.
"""

from repro.frame.column import (
    as_column,
    factorize,
    factorize_many,
    first_occurrence_mask,
    is_string_kind,
)
from repro.frame.frame import Frame, concat
from repro.frame.io import write_delimited

__all__ = [
    "Frame",
    "concat",
    "as_column",
    "factorize",
    "factorize_many",
    "first_occurrence_mask",
    "is_string_kind",
    "write_delimited",
]
