"""Performance: chunk-parallel ingestion, the parse cache, telemetry cost.

Four hard gates on a 10× synthetic RAS log (120k rows, every 50th
message carrying an escaped separator): the block kernel must classify
the lines at least 3× faster than the per-line ``classify_ras_line``
loop it replaced, parsing with 4 workers must be at least 2× faster
than 1 worker (skipped on hosts with fewer than 4 available CPUs — a
1-core container cannot express the speedup), a warm-cache rerun must
finish in under 10% of the cold parse while returning a bit-identical
log, and running the same parse under an active
:class:`repro.obs.Tracer` must cost less than 3% extra wall time.
Another test pins the bit-identical guarantee itself at scale, on a
corrupted file, so the speed never drifts away from correctness.
"""

import math
import statistics
import time

import numpy as np
import pytest

from repro.faults.corruption import LogCorruptor
from repro.frame import Frame
from repro.logs.ras import RAS_COLUMNS, RasLog
from repro.logs.stream import parse_ras_block
from repro.logs.textio import read_ras_log, write_ras_log
from repro.obs import Tracer, get_metrics, record_bench
from repro.parallel import ParseCache, effective_cpu_count, replay_cross_record

from benchmarks.conftest import banner
from tests.logs.ras_reference import RasRowCursor, classify_ras_line

BENCH = "perf_parallel_ingestion"

BASE_ROWS = 12_000
SCALE = 10


def make_ras_log(n: int, seed: int = 2011) -> RasLog:
    """A clean n-row RAS log with valid vocabulary and ordered times."""
    rng = np.random.default_rng(seed)
    sev = np.array(["INFO", "WARN", "ERROR", "FATAL"], dtype=object)
    comp = np.array(["KERNEL", "MMCS", "CARD", "MC"], dtype=object)
    data = {
        "recid": np.arange(1, n + 1, dtype=np.int64),
        "msg_id": np.array([f"KERN_{i % 97:04d}" for i in range(n)], dtype=object),
        "component": comp[rng.integers(0, len(comp), n)],
        "subcomponent": np.array([f"sub{i % 11}" for i in range(n)], dtype=object),
        "errcode": np.array([f"_bgp_err_{i % 23}" for i in range(n)], dtype=object),
        "severity": sev[rng.integers(0, len(sev), n)],
        "event_time": np.cumsum(rng.random(n) * 3.0) + 1.2e9,
        "location": np.array([f"R{i % 40:02d}-M{i % 2}" for i in range(n)], dtype=object),
        "serialnumber": np.array([f"SN{i:08d}" for i in range(n)], dtype=object),
        "message": np.array(
            [
                f"ddr correctable error | rank {i % 8}" if i % 50 == 0
                else f"machine check interrupt {i}"
                for i in range(n)
            ],
            dtype=object,
        ),
    }
    return RasLog(Frame({c: data[c] for c in RAS_COLUMNS}))


@pytest.fixture(scope="module")
def big_ras_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / "ras_10x.log"
    write_ras_log(make_ras_log(BASE_ROWS * SCALE), path)
    return path


@pytest.fixture(scope="module")
def corrupted_big_file(big_ras_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("parallel") / "ras_10x_bad.log"
    LogCorruptor(seed=3, rate=0.03).corrupt_file(big_ras_file, out)
    return out


def _logs_identical(a: RasLog, b: RasLog) -> None:
    assert a.frame.columns == b.frame.columns
    for col in a.frame.columns:
        x, y = a.frame[col], b.frame[col]
        assert x.dtype == y.dtype, col
        assert np.array_equal(x, y), col
    ra, rb = a.quarantine, b.quarantine
    assert (ra is None) == (rb is None)
    if ra is not None:
        assert ra.total_rows == rb.total_rows
        assert ra.as_dict() == rb.as_dict()
        for defect, recs in ra.samples.items():
            got = rb.samples.get(defect, [])
            assert [(r.line_no, r.text) for r in recs] == [
                (r.line_no, r.text) for r in got
            ]


def _best(fn, rounds: int = 2) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_gate_block_parse_vs_line_loop(big_ras_file):
    """Hard gate: the block kernel plus the cross-record replay classify
    the 10× log >= 3× faster than a per-line ``classify_ras_line`` loop,
    with the same verdicts."""
    banner("parallel ingestion: block-kernel gate")
    with open(big_ras_file, encoding="utf-8") as fh:
        fh.readline()
        lines = fh.read().split("\n")[:-1]

    def block():
        defects, rows = parse_ras_block(lines)
        accepted, cross = replay_cross_record(rows.recids, rows.times)
        return len(defects) + len(cross), rows.recids[accepted]

    def line_loop():
        cursor = RasRowCursor()
        bad, recids = 0, []
        for text in lines:
            defect, parsed = classify_ras_line(text, cursor)
            if defect is not None:
                bad += 1
                continue
            cursor.accept(parsed[1], parsed[2])
            recids.append(parsed[1])
        return bad, np.array(recids, dtype=np.int64)

    bad_block, recids_block = block()
    bad_line, recids_line = line_loop()
    assert bad_block == bad_line == 0
    assert np.array_equal(recids_block, recids_line)
    # interleaved best-of-N, as in the telemetry gate below
    t_block = t_line = float("inf")
    for _ in range(3):
        t_block = min(t_block, _best(block, rounds=1))
        t_line = min(t_line, _best(line_loop, rounds=1))
    print(
        f"per-line {t_line * 1e3:.0f}ms vs block {t_block * 1e3:.0f}ms"
        f" -> {t_line / t_block:.2f}x on {len(lines)} lines"
    )
    record_bench(
        BENCH, "block_parse_speedup", t_line / t_block,
        block_s=t_block, line_s=t_line, lines=len(lines),
    )
    assert t_line >= 3.0 * t_block


@pytest.mark.skipif(
    effective_cpu_count() < 4,
    reason="speedup gate needs >= 4 available CPUs",
)
def test_gate_parallel_speedup_4x(big_ras_file):
    """Hard gate: 4 workers parse the 10× log >= 2× faster than 1."""
    banner("parallel ingestion: 4-worker speedup gate")
    t1 = _best(
        lambda: read_ras_log(big_ras_file, policy="quarantine", workers=1)
    )
    t4 = _best(
        lambda: read_ras_log(big_ras_file, policy="quarantine", workers=4)
    )
    print(
        f"serial {t1 * 1e3:.0f}ms vs 4-worker {t4 * 1e3:.0f}ms"
        f" -> {t1 / t4:.2f}x speedup on {BASE_ROWS * SCALE} rows"
    )
    record_bench(BENCH, "parse_speedup_4w", t1 / t4, serial_s=t1, four_s=t4)
    assert t1 / t4 >= 2.0


def test_gate_warm_cache_under_10pct(big_ras_file, tmp_path):
    """Hard gate: a warm-cache rerun costs < 10% of the cold parse."""
    banner("parallel ingestion: warm-cache gate")
    cache = ParseCache(tmp_path / "cache")
    t0 = time.perf_counter()
    cold = read_ras_log(big_ras_file, policy="quarantine", cache=cache)
    t_cold = time.perf_counter() - t0
    assert cold.cache_status == "miss"
    t_warm = _best(
        lambda: read_ras_log(big_ras_file, policy="quarantine", cache=cache)
    )
    warm = read_ras_log(big_ras_file, policy="quarantine", cache=cache)
    assert warm.cache_status == "hit"
    _logs_identical(cold, warm)
    print(
        f"cold {t_cold * 1e3:.0f}ms vs warm {t_warm * 1e3:.0f}ms"
        f" -> {100.0 * t_warm / t_cold:.1f}% of cold"
    )
    record_bench(
        BENCH, "warm_cache_fraction", t_warm / t_cold,
        cold_s=t_cold, warm_s=t_warm,
    )
    assert t_warm < 0.10 * t_cold


def test_parallel_identical_at_scale(corrupted_big_file):
    """Bit-identical output, 1 vs 4 workers, on a damaged 10× log."""
    serial = read_ras_log(corrupted_big_file, policy="quarantine", workers=1)
    parallel = read_ras_log(
        corrupted_big_file, policy="quarantine", workers=4
    )
    assert serial.quarantine.bad_rows > 0
    _logs_identical(serial, parallel)


def test_perf_read_parallel_auto(benchmark, big_ras_file):
    log = benchmark(
        read_ras_log, big_ras_file, policy="quarantine", workers=0
    )
    assert len(log) == BASE_ROWS * SCALE


#: interleaved rounds of the telemetry gate (each arm >= 1.2 s a round)
ROUNDS = 8


def test_gate_telemetry_overhead_under_3pct(big_ras_file):
    """Hard gate: an active tracer adds < 3% wall to the serial parse."""
    banner("parallel ingestion: telemetry overhead gate")

    def plain():
        read_ras_log(big_ras_file, policy="quarantine", workers=1)

    def traced():
        tracer = Tracer()
        get_metrics().reset()
        with tracer.activate():
            read_ras_log(big_ras_file, policy="quarantine", workers=1)
        assert "ingest.parse.chunk" in tracer.span_names()

    def sample(arm, reps: int) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            arm()
        return time.perf_counter() - t0

    # the first warm-up parse also warms the page cache; at the faster
    # warm-up pace, one timed sample repeats the parse for >= 1.2 s, so
    # a scheduler hiccup on a shared host is a small share of a sample
    reps = max(3, math.ceil(1.2 / min(sample(plain, 1) for _ in range(2))))

    # each round times both arms back to back, alternating which runs
    # first, so machine-wide drift (load, cpufreq) cancels in the
    # round's traced/plain ratio; the median ratio ignores the rounds a
    # hiccup hit, where a best-of-N per arm takes each arm's luckiest
    plain_s, traced_s = [], []
    for i in range(ROUNDS):
        for arm in (plain, traced) if i % 2 == 0 else (traced, plain):
            (plain_s if arm is plain else traced_s).append(sample(arm, reps))
    ratio = statistics.median(t / b for t, b in zip(traced_s, plain_s))
    base = statistics.median(plain_s) / reps
    tele = statistics.median(traced_s) / reps
    print(
        f"plain {base * 1e3:.0f}ms vs traced {tele * 1e3:.0f}ms a parse"
        f" ({reps} parses a sample, median of {ROUNDS} paired rounds)"
        f" -> {100.0 * (ratio - 1.0):+.2f}% overhead"
    )
    record_bench(
        BENCH, "telemetry_overhead_frac", ratio - 1.0,
        plain_s=base, traced_s=tele, reps=reps, rounds=ROUNDS,
    )
    assert ratio < 1.03
