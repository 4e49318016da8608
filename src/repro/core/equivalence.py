"""Bit-level equivalence between a co-analysis result and the batch run.

The streaming, daemon and sharded-fleet modes promise more than "close
enough" — they are *bit-identical*: every frame byte, every IEEE-754
float bit of the observations and Weibull fits must match the one-shot
batch run. Every ``--check-equivalence`` goes through
:func:`diff_results`, which returns a list of human-readable differences
(empty = equivalent); floats are compared through their raw bit
patterns (``float64 → uint64`` views), so ``-0.0 != 0.0`` and NaNs of
equal payload compare equal — exactly the discipline
``tests/parallel``'s sharded-vs-batch checks use.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.frame import Frame

__all__ = ["frames_equal", "float_key", "diff_results"]


def float_key(value) -> bytes:
    """The IEEE-754 bit pattern of *value* (a total, exact identity)."""
    return struct.pack("<d", float(value))


def frames_equal(a: Frame, b: Frame) -> bool:
    """Column names, dtypes and every value bit-identical."""
    if a.columns != b.columns or a.num_rows != b.num_rows:
        return False
    for name in a.columns:
        ca, cb = a[name], b[name]
        if ca.dtype != cb.dtype:
            return False
        if ca.dtype.kind == "f":
            if not np.array_equal(
                ca.view(np.uint64), cb.view(np.uint64)
            ):
                return False
        elif not np.array_equal(ca, cb):
            return False
    return True


def _scalar_key(value):
    if isinstance(value, (float, np.floating)):
        return float_key(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return str(value)


def _observation_keys(observations) -> list[tuple]:
    return [
        (
            int(o.number),
            bool(o.holds),
            bool(o.available),
            tuple(sorted((k, _scalar_key(v)) for k, v in o.measured.items())),
        )
        for o in observations
    ]


def _fit_key(fit):
    if fit is None:
        return None
    return (float_key(fit.shape), float_key(fit.scale), int(fit.n))


def diff_results(result, batch) -> list[str]:
    """Differences between two :class:`CoAnalysisResult`-like objects.

    Checks everything the acceptance contract names: filtered event
    frames, the match products (pairs, per-job interruptions, case
    labels, per-type case table), the filter statistics, the analysis
    window, the Weibull fits of the interarrival study, and the
    observation verdicts with bit-exact measured values.
    """
    diffs: list[str] = []

    def frame(name: str, fa: Frame, fb: Frame) -> None:
        if not frames_equal(fa, fb):
            diffs.append(
                f"{name}: frames differ"
                f" ({fa.num_rows} vs {fb.num_rows} rows)"
            )

    frame(
        "events_filtered",
        result.events_filtered.frame,
        batch.events_filtered.frame,
    )
    frame(
        "events_final", result.events_final.frame, batch.events_final.frame
    )
    frame("match.pairs", result.match.pairs, batch.match.pairs)
    frame(
        "match.interruptions",
        result.match.interruptions,
        batch.match.interruptions,
    )
    frame("match.type_cases", result.match.type_cases, batch.match.type_cases)
    if result.match.event_cases != batch.match.event_cases:
        diffs.append("match.event_cases: case labels differ")
    if result.filter_stats != batch.filter_stats:
        diffs.append(
            f"filter_stats: {result.filter_stats} vs {batch.filter_stats}"
        )
    frame("interruptions", result.interruptions, batch.interruptions)
    for name in ("t_start", "duration"):
        if float_key(getattr(result, name)) != float_key(getattr(batch, name)):
            diffs.append(
                f"{name}: {getattr(result, name)!r} vs"
                f" {getattr(batch, name)!r}"
            )

    for label, sa, sb in (
        ("interarrivals.before", result.interarrivals, batch.interarrivals),
        ("interarrivals.after", result.interarrivals, batch.interarrivals),
    ):
        attr = label.rsplit(".", 1)[1]
        fa = getattr(sa, attr, None) if sa is not None else None
        fb = getattr(sb, attr, None) if sb is not None else None
        ka = _fit_key(getattr(fa, "weibull", None)) if fa is not None else None
        kb = _fit_key(getattr(fb, "weibull", None)) if fb is not None else None
        if ka != kb:
            diffs.append(f"{label}.weibull: fit bits differ")

    if _observation_keys(result.observations) != _observation_keys(
        batch.observations
    ):
        diffs.append("observations: verdicts or measured values differ")
    return diffs
