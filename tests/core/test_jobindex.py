"""The job × midplane index and its readers, pinned bit for bit to the
row-at-a-time oracles in :mod:`tests.core.jobindex_reference`.

Each pin runs on the seed-2011 scale-0.05 trace (the matching golden
tests' trace) and on a seeded fuzz of small job logs: tied start times,
zero-length runs, queries ending exactly on a job's end, empty clean
sets, rack-level events spanning two midplanes, one-job and empty logs.
"""

import numpy as np
import pytest

from repro.core import CoAnalysis
from repro.core.characteristics import midplane_profile
from repro.core.events import fatal_event_table
from repro.core.jobindex import JobMidplaneIndex
from repro.core.vulnerability import (
    CATEGORY_APPLICATION,
    CATEGORY_SYSTEM,
    _features,
    _size_time_grid,
    vulnerability_study,
)
from repro.frame import Frame
from repro.logs.job import JobLog
from repro.machine.partition import ALLOWED_PARTITION_SIZES, PartitionPool
from repro.machine.topology import NUM_MIDPLANES
from repro.simulate import CalibrationProfile, IntrepidSimulation
from repro.stats.infogain import rank_features
from tests.core.helpers import ras
from tests.core.jobindex_reference import (
    CompletedRunIndex,
    index_by_row,
    midplane_counts_by_row,
    midplane_profile_by_row,
    rank_by_row,
    size_time_grid_by_row,
)

_PARTITIONS = [
    p for size in ALLOWED_PARTITION_SIZES for p in PartitionPool().candidates(size)
]
_RACK_EVENT_LOCATIONS = ["R00", "R17", "R23-M0-S", "R31-M1-L2", "R46-M1-N08-J22"]


def assert_bits(got: np.ndarray, want: np.ndarray, what: str = "") -> None:
    """Same dtype, same shape, same bytes: ``==`` on floats, not allclose."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_frames_bits(got: Frame, want: Frame) -> None:
    assert got.columns == want.columns
    for col in want.columns:
        assert_bits(got[col], want[col], col)


def scores(ranking) -> list[tuple[str, str, str]]:
    return [
        (s.name, float(s.gain_ratio).hex(), float(s.information_gain).hex())
        for s in ranking
    ]


def fuzz_jobs(rng: np.random.Generator, n: int) -> JobLog:
    """*n* jobs on random legal partitions, in no particular order.

    Start times sit on a coarse grid so they tie; a quarter of the runs
    have zero length. Some lengths carry a random fraction, so a float
    sum taken in another order than the job order would show.
    """
    starts = rng.integers(0, 40, size=n).astype(np.float64) * 50.0
    lengths = rng.integers(0, 12, size=n).astype(np.float64) * 25.0
    lengths[rng.random(n) < 0.5] += rng.random() * 1e-3 + rng.random() * 7.0
    lengths[rng.random(n) < 0.25] = 0.0
    partitions = [
        _PARTITIONS[i] for i in rng.integers(0, len(_PARTITIONS), size=n)
    ]
    locations = np.array([p.name for p in partitions], dtype=object)
    sizes = np.array([p.size for p in partitions], dtype=np.int64)
    users = np.array([f"u{i}" for i in rng.integers(0, 4, size=n)], dtype=object)
    return JobLog(
        Frame(
            {
                "job_id": rng.permutation(n).astype(np.int64) + 100,
                "job_name": np.array(["j"] * n, dtype=object),
                "executable": np.array(
                    [f"/x{i}" for i in rng.integers(0, 5, size=n)], dtype=object
                ),
                "queued_time": starts - 10.0,
                "start_time": starts,
                "end_time": starts + lengths,
                "location": locations,
                "user": users,
                "project": np.array(
                    [f"p{i}" for i in rng.integers(0, 3, size=n)], dtype=object
                ),
                "size_midplanes": sizes,
            }
        )
    )


def fuzz_events(rng: np.random.Generator, n: int):
    locations = [
        _RACK_EVENT_LOCATIONS[i]
        for i in rng.integers(0, len(_RACK_EVENT_LOCATIONS), size=n)
    ]
    return fatal_event_table(
        ras(
            [
                (i + 1, "E", "FATAL", float(rng.integers(0, 2000)), loc)
                for i, loc in enumerate(locations)
            ]
        )
    )


def queries(rng: np.random.Generator, job_log: JobLog, n: int):
    """(midplane, t1, t2) probes whose ends fall on job start and end
    times (exact ties), between them, and on degenerate windows."""
    frame = job_log.frame
    times = np.concatenate(
        [frame["start_time"], frame["end_time"], [-1.0, 0.0, 1e9]]
    )
    out = []
    for _ in range(n):
        mp = int(rng.integers(0, NUM_MIDPLANES))
        a, b = np.sort(rng.choice(times, size=2))
        if rng.random() < 0.3:
            b = b + 12.5
        out.append((mp, float(a), float(b)))
        if rng.random() < 0.1:
            out.append((mp, float(b), float(b)))
    return out


def assert_clean_queries_match(job_log: JobLog, interrupted, probes) -> None:
    got = JobMidplaneIndex.completed_runs(job_log, interrupted)
    want = CompletedRunIndex(job_log, set(interrupted))
    for mp, t1, t2 in probes:
        assert got.any_between(mp, t1, t2) == want.any_between(mp, t1, t2), (
            mp, t1, t2)
        assert got.any_overlapping(mp, t1, t2) == want.any_overlapping(
            mp, t1, t2
        ), (mp, t1, t2)


def assert_index_matches(jobs: Frame) -> None:
    got = JobMidplaneIndex(jobs)
    for name, want in index_by_row(jobs).items():
        assert_bits(getattr(got, name), want, name)


def assert_vulnerability_matches(
    job_log: JobLog, cat_by_job: dict, susp_users, susp_projects, unreliable
) -> None:
    jobs = job_log.frame
    cats = np.fromiter(
        (cat_by_job.get(int(j), 0) for j in jobs["job_id"]),
        count=jobs.num_rows,
        dtype=np.int64,
    )
    grid = _size_time_grid(jobs, cats)
    want = size_time_grid_by_row(jobs, cat_by_job)
    assert_bits(grid.interrupted, want.interrupted, "interrupted")
    assert_bits(grid.totals, want.totals, "totals")
    features = _features(jobs, susp_users, susp_projects, unreliable)
    for category in (CATEGORY_SYSTEM, CATEGORY_APPLICATION):
        got = rank_features((cats == category).astype(np.int64), features)
        assert scores(got) == scores(
            rank_by_row(
                jobs, cat_by_job, category, susp_users, susp_projects,
                unreliable,
            )
        )


# ----------------------------------------------------------------------
# the simulated trace


@pytest.fixture(scope="module")
def trace():
    return IntrepidSimulation(CalibrationProfile(seed=2011, scale=0.05)).run()


@pytest.fixture(scope="module")
def result(trace):
    return CoAnalysis(study_workers=1).run(trace.ras_log, trace.job_log)


class TestSimulatedTrace:
    def test_index(self, trace):
        assert_index_matches(trace.job_log.frame)

    def test_clean_run_queries(self, trace, result):
        interrupted = result.match.interrupted_job_ids()
        assert len(interrupted) > 0
        rng = np.random.default_rng(2011)
        probes = queries(rng, trace.job_log, 3000)
        # the classifier's and the job filter's own probes: kill times
        # at each pair's midplane
        pairs = result.match.pairs
        t = np.sort(pairs["event_time"])
        probes += [
            (int(mp), float(a), float(b))
            for mp in np.unique(pairs["mp"])
            for a, b in zip(t, t[1:])
        ]
        assert_clean_queries_match(trace.job_log, interrupted, probes)

    def test_midplane_profile(self, trace, result):
        for events in (result.events_final, result.events_filtered):
            assert_frames_bits(
                midplane_profile(events, trace.job_log),
                midplane_profile_by_row(events, trace.job_log),
            )
            assert_bits(
                events.midplane_counts(), midplane_counts_by_row(events)
            )
        # the pipeline's own profile
        assert_frames_bits(
            result.midplane_profile,
            midplane_profile_by_row(result.events_final, trace.job_log),
        )

    def test_raw_event_midplane_counts(self, trace):
        events = fatal_event_table(trace.ras_log)
        assert (events.frame["mp_hi"] > events.frame["mp_lo"]).any()
        assert_bits(events.midplane_counts(), midplane_counts_by_row(events))

    def test_vulnerability(self, trace, result):
        study = result.vulnerability
        interruptions = result.interruptions
        cat_by_job = dict(
            zip(
                (int(j) for j in interruptions["job_id"]),
                (int(c) for c in interruptions["category"]),
            )
        )
        assert cat_by_job
        assert_vulnerability_matches(
            trace.job_log,
            cat_by_job,
            study.suspicious_users,
            study.suspicious_projects,
            study.unreliable_midplanes,
        )
        again = vulnerability_study(
            trace.job_log, interruptions, result.events_final
        )
        want = size_time_grid_by_row(trace.job_log.frame, cat_by_job)
        assert_bits(again.grid.totals, want.totals)
        for category, ranking in (
            (CATEGORY_SYSTEM, again.ranking_system),
            (CATEGORY_APPLICATION, again.ranking_application),
        ):
            assert scores(ranking) == scores(
                rank_by_row(
                    trace.job_log.frame,
                    cat_by_job,
                    category,
                    again.suspicious_users,
                    again.suspicious_projects,
                    again.unreliable_midplanes,
                )
            )


# ----------------------------------------------------------------------
# the fuzz


@pytest.mark.parametrize("n_jobs", [0, 1, 2, 7, 40, 150])
@pytest.mark.parametrize("seed", range(6))
class TestFuzz:
    def test_index(self, seed, n_jobs):
        rng = np.random.default_rng([seed, n_jobs])
        assert_index_matches(fuzz_jobs(rng, n_jobs).frame)

    def test_clean_run_queries(self, seed, n_jobs):
        rng = np.random.default_rng([seed, n_jobs, 1])
        job_log = fuzz_jobs(rng, n_jobs)
        ids = job_log.frame["job_id"]
        probes = queries(rng, job_log, 300)
        for interrupted in (
            [],
            ids[rng.random(n_jobs) < 0.3],
            ids,  # an empty clean set
        ):
            assert_clean_queries_match(job_log, interrupted, probes)

    def test_midplane_profile_and_counts(self, seed, n_jobs):
        rng = np.random.default_rng([seed, n_jobs, 2])
        job_log = fuzz_jobs(rng, n_jobs)
        events = fuzz_events(rng, int(rng.integers(0, 30)))
        assert_bits(events.midplane_counts(), midplane_counts_by_row(events))
        for threshold in (1, 8, 32):
            assert_frames_bits(
                midplane_profile(events, job_log, wide_threshold=threshold),
                midplane_profile_by_row(
                    events, job_log, wide_threshold=threshold
                ),
            )

    def test_vulnerability_features_and_grid(self, seed, n_jobs):
        rng = np.random.default_rng([seed, n_jobs, 3])
        job_log = fuzz_jobs(rng, n_jobs)
        ids = job_log.frame["job_id"]
        cats = rng.integers(0, 3, size=n_jobs)
        cat_by_job = {int(j): int(c) for j, c in zip(ids, cats) if c}
        unreliable = [int(m) for m in rng.permutation(NUM_MIDPLANES)[:12]]
        assert_vulnerability_matches(
            job_log, cat_by_job, ["u0", "u2"], ["p1"], unreliable
        )
        assert_vulnerability_matches(job_log, {}, [], [], [])


class TestMalformedPartition:
    """A malformed job location raises the oracle's ``ValueError``: the
    first bad row's, in row order."""

    @pytest.mark.parametrize(
        "locations, message",
        [
            (["R00-M0", "R99", "Bogus"], "rack R99 outside the 5x8 grid"),
            (["R10", "Bogus", "R99"], "malformed location 'Bogus'"),
            (
                ["R00-M0-N01", "R10"],
                "'R00-M0-N01' is below midplane granularity",
            ),
            (
                ["R00-R01", "R01-R02"],
                "4-midplane partitions align on 2-rack boundaries",
            ),
        ],
    )
    def test_same_error_as_the_row_scan(self, locations, message):
        n = len(locations)
        jobs = Frame(
            {
                "job_id": np.arange(n, dtype=np.int64),
                "start_time": np.zeros(n),
                "end_time": np.ones(n),
                "location": np.array(locations, dtype=object),
                "size_midplanes": np.ones(n, dtype=np.int64),
            }
        )
        with pytest.raises(ValueError) as want:
            index_by_row(jobs)
        with pytest.raises(ValueError) as got:
            JobMidplaneIndex(jobs)
        assert str(got.value) == str(want.value) == message
