"""Synthetic Intrepid workload generation.

The real 68,794-job Cobalt log is not redistributable, but the paper
publishes enough of its anatomy to resynthesize a statistically faithful
stand-in:

* Table VI gives the **joint size × runtime distribution** of the
  workload (:mod:`repro.workload.tables`);
* §III-B gives the population structure — 68,794 submissions over
  9,664 distinct execution files (5,547 submitted more than once),
  236 users, 91 projects (:mod:`repro.workload.population`);
* §VI-D gives the suspicious-user/project concentrations
  (16 users own 53.25% of interruptions; 19 projects own 74%).

:class:`repro.workload.sampler.WorkloadSampler` draws the submission
stream the scheduler simulation replays.
"""

import importlib

from repro.workload.tables import (
    RUNTIME_BUCKETS,
    SIZE_CLASSES,
    TABLE_VI_TOTALS,
    runtime_bucket_index,
)

#: the generators, imported on first use: the analysis reads only the
#: tables, and the population model loads the fault processes
_LAZY = {
    "Executable": "population",
    "Population": "population",
    "PopulationProfile": "population",
    "JobSubmission": "sampler",
    "WorkloadSampler": "sampler",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return getattr(module, name)


__all__ = [
    "Population",
    "PopulationProfile",
    "Executable",
    "JobSubmission",
    "WorkloadSampler",
    "TABLE_VI_TOTALS",
    "SIZE_CLASSES",
    "RUNTIME_BUCKETS",
    "runtime_bucket_index",
]
