"""Durable streaming state: save/resume a run between increments.

A checkpoint is a directory (the format DESIGN.md §12 documents):

* ``checkpoint.json`` — version, the pipeline's threshold configuration
  plus its fingerprint (resume refuses a mismatched pipeline), the
  watermark, counters and rolling-observation scalars;
* one ``<name>.npz`` frame file per buffered frame (pending events, job
  and raw frontiers, accumulated pairs, flushed case labels, survivors,
  jobs, the two chain filters' carried rows, interarrival gaps), in the
  one frame file format (:mod:`repro.frame.npz`).

The index records a blake2b digest for every file it names, and
:func:`validate_checkpoint` cross-checks them the way
:func:`repro.store.manifest.validate_store_manifest` audits a store —
classifying each problem (``unreadable-index``, ``version-mismatch``,
``fingerprint-mismatch``, ``missing-file``, ``hash-mismatch``) so the
daemon's rotation logic can fall back to the previous checkpoint on
any corruption instead of resuming from damaged state. Optional
**extra sections** (``extra`` scalars plus ``x_<name>.npz`` frame
files) carry state the daemon owns above the core runner: the lateness
reorder buffer, feed cursors and the store-append backlog.

Resuming from a checkpoint and ingesting the remaining increments is
bit-identical to having run the whole stream in one process — the
checkpoint tests replay both ways and compare with
:mod:`repro.core.equivalence`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.pipeline import CoAnalysis
from repro.durable import atomic_write, content_hash
from repro.frame import Frame
from repro.frame.npz import FrameFileError, read_frame, write_frame
from repro.obs.manifest import config_fingerprint
from repro.stats.weibull import WeibullFit
from repro.stream.runner import StreamError, StreamingCoAnalysis

__all__ = [
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "load_extras",
    "save_checkpoint",
    "validate_checkpoint",
]

CHECKPOINT_VERSION = 4


def stream_config(pipeline: CoAnalysis) -> dict:
    """The thresholds whose equality resume requires."""
    f = pipeline.filters
    return {
        "temporal_threshold": f.temporal.threshold,
        "spatial_threshold": f.spatial.threshold,
        "causal_window": f.causal.window,
        "causal_min_support": f.causal.min_support,
        "causal_min_confidence": f.causal.min_confidence,
        "tolerance": pipeline.matcher.tolerance,
    }


def _concat_or_none(frames: list[Frame]) -> Frame | None:
    from repro.frame import concat

    if not frames:
        return None
    return frames[0] if len(frames) == 1 else concat(frames)


def _read_index(directory: Path) -> dict:
    """The checkpoint's JSON index; raises on an unreadable or
    other-version one."""
    try:
        with open(directory / "checkpoint.json", "r", encoding="utf-8") as fh:
            index = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StreamError(f"unreadable checkpoint at {directory}: {exc}")
    if index.get("version") != CHECKPOINT_VERSION:
        raise StreamError(
            f"unsupported checkpoint version {index.get('version')!r}"
        )
    return index


def _read(directory: Path, file_name: str, spec) -> Frame:
    try:
        return read_frame(directory / file_name, spec)
    except FrameFileError as exc:
        raise StreamError(f"corrupt checkpoint frame {file_name}: {exc}")


def _decode(directory: Path, name: str, spec) -> list[Frame]:
    if spec is None:
        return []
    return [_read(directory, f"{name}.npz", spec)]


def save_checkpoint(
    runner: StreamingCoAnalysis,
    directory: str | Path,
    extra_state: dict | None = None,
    extra_frames: dict[str, Frame] | None = None,
) -> Path:
    """Persist *runner*'s frontier state; returns the directory.

    The JSON index is written last (atomically), so a torn write leaves
    no checkpoint rather than a corrupt one. *extra_state* (JSON
    scalars) and *extra_frames* (frames, written as ``x_<name>.npz``)
    carry daemon-level state — lateness buffers, feed cursors, the
    store-append backlog — hashed and validated alongside the core
    sections.
    """
    if runner._result is not None:
        raise StreamError("cannot checkpoint a finalized stream")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    matcher = runner._matcher

    flushed = gaps = None
    if matcher.events_flushed:
        flushed = Frame(
            {
                "event_id": np.concatenate(matcher._event_ids),
                "case": np.concatenate(matcher._case),
            }
        )
    if runner._gap_arrays:
        gaps = Frame({"gap": np.concatenate(runner._gap_arrays)})
    frames = {
        "survivors": _concat_or_none(runner._survivors),
        "jobs_all": _concat_or_none(runner._job_frames),
        "pending": _concat_or_none(matcher._pending),
        "jobs_buffer": _concat_or_none(matcher._jobs),
        "raw_tail": _concat_or_none(matcher._raw),
        "pairs": _concat_or_none(matcher._pair_frames),
        "flushed": flushed,
        "temporal_carry": runner._temporal.carry,
        "spatial_carry": runner._spatial.carry,
        "gaps": gaps,
    }
    specs = {
        name: None
        if frame is None
        else write_frame(directory / f"{name}.npz", frame)
        for name, frame in frames.items()
    }
    extra_specs = {
        name: write_frame(directory / f"x_{name}.npz", frame)
        for name, frame in (extra_frames or {}).items()
    }

    hashed = [
        *(f"{name}.npz" for name, spec in specs.items() if spec is not None),
        *(f"x_{name}.npz" for name in extra_specs),
    ]
    hashes = {name: content_hash(directory / name) for name in hashed}

    config = stream_config(runner.pipeline)
    prev_fit = runner._prev_fit
    index = {
        "version": CHECKPOINT_VERSION,
        "config": config,
        "fingerprint": config_fingerprint(config),
        "watermark": runner.watermark,
        "increments": runner.increments,
        "fatal_offset": runner._fatal_offset,
        "raw": runner._raw,
        "after_temporal": runner._after_temporal,
        "after_spatial": runner._after_spatial,
        "ras_span": list(runner._ras_span) if runner._ras_span else None,
        "job_span": list(runner._job_span) if runner._job_span else None,
        "events_flushed": matcher.events_flushed,
        "pairs_emitted": matcher.pairs_emitted,
        "last_survivor_time": runner._last_survivor_time,
        "interrupted": sorted(runner._interrupted),
        "prev_fit": (
            [prev_fit.shape, prev_fit.scale, prev_fit.n, prev_fit.log_likelihood]
            if prev_fit is not None
            else None
        ),
        "frames": specs,
        "hashes": hashes,
        "extra": extra_state or {},
        "extra_frames": extra_specs,
    }
    payload = (json.dumps(index, indent=1) + "\n").encode("utf-8")
    atomic_write(directory / "checkpoint.json", lambda fh: fh.write(payload))
    return directory


def load_checkpoint(
    directory: str | Path, pipeline: CoAnalysis | None = None
) -> StreamingCoAnalysis:
    """Rebuild a :class:`StreamingCoAnalysis` mid-stream.

    *pipeline* must carry the same thresholds the checkpoint was taken
    under (compared by configuration fingerprint); omitting it uses the
    defaults, which the fingerprint check validates too.
    """
    directory = Path(directory)
    index = _read_index(directory)
    runner = StreamingCoAnalysis(
        pipeline=pipeline if pipeline is not None else CoAnalysis()
    )
    fp = config_fingerprint(stream_config(runner.pipeline))
    if fp != index["fingerprint"]:
        raise StreamError(
            "pipeline thresholds do not match the checkpoint: "
            f"{stream_config(runner.pipeline)} vs {index['config']}"
        )

    runner.watermark = float(index["watermark"])
    runner.increments = int(index["increments"])
    runner._fatal_offset = int(index["fatal_offset"])
    runner._raw = int(index["raw"])
    runner._after_temporal = int(index["after_temporal"])
    runner._after_spatial = int(index["after_spatial"])
    runner._ras_span = (
        tuple(index["ras_span"]) if index["ras_span"] else None
    )
    runner._job_span = (
        tuple(index["job_span"]) if index["job_span"] else None
    )
    runner._interrupted = set(int(j) for j in index["interrupted"])
    runner._last_survivor_time = index["last_survivor_time"]
    if index["prev_fit"] is not None:
        shape, scale, n, ll = index["prev_fit"]
        runner._prev_fit = WeibullFit(shape, scale, int(n), ll)

    specs = index["frames"]
    for state, name in (
        (runner._temporal, "temporal_carry"),
        (runner._spatial, "spatial_carry"),
    ):
        state.carry = _concat_or_none(_decode(directory, name, specs[name]))
    runner._gap_arrays = [
        f["gap"] for f in _decode(directory, "gaps", specs["gaps"])
    ]
    runner._survivors = _decode(directory, "survivors", specs["survivors"])
    runner._job_frames = _decode(directory, "jobs_all", specs["jobs_all"])
    matcher = runner._matcher
    matcher._pending = _decode(directory, "pending", specs["pending"])
    matcher._jobs = _decode(directory, "jobs_buffer", specs["jobs_buffer"])
    matcher._raw = _decode(directory, "raw_tail", specs["raw_tail"])
    matcher._pair_frames = _decode(directory, "pairs", specs["pairs"])
    matcher.events_flushed = int(index["events_flushed"])
    matcher.pairs_emitted = int(index["pairs_emitted"])
    flushed = _decode(directory, "flushed", specs["flushed"])
    if flushed:
        matcher._event_ids = [flushed[0]["event_id"]]
        matcher._case = [flushed[0]["case"]]
    runner._pairs_cursor = len(matcher._pair_frames)
    runner._last_flushed = matcher.events_flushed
    return runner


def load_extras(directory: str | Path) -> tuple[dict, dict[str, Frame]]:
    """The daemon-level sections of a checkpoint: scalars and frames."""
    directory = Path(directory)
    index = _read_index(directory)
    frames = {
        name: _read(directory, f"x_{name}.npz", spec)
        for name, spec in index.get("extra_frames", {}).items()
    }
    return index.get("extra", {}), frames


def validate_checkpoint(
    directory: str | Path, verify_hashes: bool = True
) -> list[str]:
    """Audit a checkpoint directory against its own index.

    Returns human-readable problems (empty = healthy), each prefixed
    with its corruption class — ``unreadable-index``,
    ``version-mismatch``, ``fingerprint-mismatch``, ``missing-file`` or
    ``hash-mismatch`` — mirroring
    :func:`repro.store.manifest.validate_store_manifest`. The daemon's
    checkpoint rotation calls this before resuming and falls back to
    the previous slot on any finding.
    """
    directory = Path(directory)
    try:
        with open(directory / "checkpoint.json", "r", encoding="utf-8") as fh:
            index = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable-index: {directory / 'checkpoint.json'}: {exc}"]
    problems: list[str] = []
    version = index.get("version")
    if version != CHECKPOINT_VERSION:
        problems.append(
            f"version-mismatch: checkpoint version {version!r} !="
            f" {CHECKPOINT_VERSION}"
        )
        return problems
    if config_fingerprint(index.get("config", {})) != index.get("fingerprint"):
        problems.append(
            "fingerprint-mismatch: stored config does not hash to the"
            " stored fingerprint"
        )
    for name, expected in index.get("hashes", {}).items():
        path = directory / name
        if not path.is_file():
            problems.append(f"missing-file: {name}")
        elif verify_hashes:
            digest = content_hash(path)
            if digest != expected:
                problems.append(
                    f"hash-mismatch: {name} ({digest} != {expected})"
                )
    return problems
