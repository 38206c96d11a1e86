"""Unit tests of the benchmark's own arithmetic, wrappers and oracle.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from perfbench import arith, calib, oracle
from perfbench.layers import LayerTimers

# ------------------------------------------------------------ percentiles


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert arith.percentile(values, 50) == 50
    assert arith.percentile(values, 99) == 99
    assert arith.percentile(values, 100) == 100
    assert arith.percentile([7.0], 50) == 7.0
    assert arith.percentile(list(reversed(values)), 90) == 90


@pytest.mark.parametrize("n", [1, 10, 99, 100, 999, 1000, 1001, 5000])
def test_samples_beyond_counts_strictly_larger_ranks(n):
    values = list(range(n))
    reported = arith.percentile(values, 99)
    assert arith.samples_beyond(n, 99) == sum(v > reported for v in values)


def test_p99_needs_ten_samples_beyond():
    assert arith.min_samples(99.0) == 1000
    assert arith.min_samples(50.0, min_beyond=10) == 20
    ok = arith.percentile(range(1000), 99, min_beyond=10)
    assert ok == 989
    with pytest.raises(arith.TooFewSamples):
        arith.percentile(range(999), 99, min_beyond=10)
    with pytest.raises(arith.TooFewSamples):
        arith.percentile([], 50)
    with pytest.raises(ValueError):
        arith.percentile([1, 2], 0)


def test_fastest_each_takes_each_units_best_pass():
    assert arith.fastest_each([[3, 1, 5], [2, 4, 5], [9, 9, 0]]) == [2, 1, 0]
    assert arith.fastest_each([[1.5]]) == [1.5]
    with pytest.raises(ValueError):
        arith.fastest_each([[1, 2], [1]])


def test_scale_factor_uses_the_fastest_calibration_sample():
    assert calib.scale_factor([0.050, 0.025, 0.040], 0.025) == 1.0
    assert calib.scale_factor([0.050], 0.025) == 0.5
    with pytest.raises(ValueError):
        calib.scale_factor([], 0.025)


def test_calibration_process_samples_and_stops():
    with calib.Calibration() as calibration:
        calibration.sample(3)
        calibration.sample()
        child = calibration._child
    assert len(calibration.samples) == 5
    assert all(t > 0 for t in calibration.samples)
    assert child.poll() is not None
    assert calibration.factor() == calib.REFERENCE_S / min(
        calibration.samples)


# ------------------------------------------------------------- open loop


def test_poisson_schedule_is_seeded_and_increasing():
    a = arith.poisson_schedule(200.0, 5000, random.Random(3))
    b = arith.poisson_schedule(200.0, 5000, random.Random(3))
    assert a == b
    assert all(x < y for x, y in zip(a, a[1:]))
    assert a[-1] / len(a) == pytest.approx(1 / 200.0, rel=0.05)
    with pytest.raises(ValueError):
        arith.poisson_schedule(0.0, 3, random.Random(0))


def test_latency_is_timed_from_due_time():
    # The generator stalled 50 ms: the second and third requests were
    # sent late but served instantly; their latency still shows the stall.
    due = [0.000, 0.010, 0.020]
    sent = [0.000, 0.060, 0.060]
    done = [0.001, 0.061, 0.062]
    assert arith.due_latencies(due, done) == pytest.approx(
        [0.001, 0.051, 0.042])
    assert arith.lateness(due, sent) == pytest.approx([0.0, 0.05, 0.04])
    # Early sends (timer jitter) never count as negative lateness.
    assert arith.lateness([1.0], [0.999]) == [0.0]


def test_backlog_growth_detection():
    stationary = [0.002, 0.004] * 200
    growing = [0.001 * i for i in range(400)]
    assert not arith.backlog_grows(stationary, tolerance_s=0.005)
    assert arith.backlog_grows(growing, tolerance_s=0.005)


def test_rate_passes_combines_tail_and_backlog():
    fast = [0.010] * 990 + [0.049] * 10
    slow = [0.010] * 980 + [0.060] * 20
    calm = [0.0] * 1000
    assert arith.rate_passes(fast, calm, 0.050, 99, 0.005)
    assert not arith.rate_passes(slow, calm, 0.050, 99, 0.005)
    rising = [0.00001 * i for i in range(1000)]
    assert not arith.rate_passes(fast, rising, 0.050, 99, 0.005)


# ------------------------------------------------------- max-rate search


def _knee(c):
    return lambda rate: rate <= c


def _search(passes, start, rel_step, floor, ceiling, growth=2.0):
    """Drive :func:`arith.rate_search` with a synchronous predicate."""
    probes = []
    search = arith.rate_search(start, rel_step, floor, ceiling, growth)
    rate = next(search)
    try:
        while True:
            ok = passes(rate)
            probes.append((rate, ok))
            rate = search.send(ok)
    except StopIteration as done:
        return done.value, probes


@pytest.mark.parametrize("step", [0.05, 0.10])
def test_max_rate_search_brackets_the_knee(step):
    for knee in (11.0, 37.5, 100.0, 150.0, 273.0, 999.0, 4000.0):
        rate, probes = _search(
            _knee(knee), 100.0, step, 10.0, 6400.0)
        assert rate <= knee
        assert rate >= knee / (1.0 + step)
        assert all(ok == (r <= knee) for r, ok in probes)


def test_max_rate_search_is_monotone_in_the_knee():
    knees = np.geomspace(12.0, 6000.0, 300)
    found = [
        _search(_knee(k), 100.0, 0.05, 10.0, 6400.0)[0]
        for k in knees
    ]
    assert all(a <= b for a, b in zip(found, found[1:]))


def test_max_rate_search_limits():
    assert _search(lambda r: False, 100, 0.05, 10, 6400)[0] == 10
    assert _search(lambda r: True, 100, 0.05, 10, 6400)[0] == 6400
    with pytest.raises(ValueError):
        _search(lambda r: True, 5, 0.05, 10, 6400)


def test_async_rate_search_stops_at_its_deadline():
    """Past the deadline no probe starts; the answer is the highest rate
    that passed so far (the floor if none did)."""
    import asyncio
    from time import perf_counter

    from perfbench import serve

    async def search(knee, budget_s, first):
        async def probe(rate):
            return rate <= knee

        return await serve.search_async(probe, first,
                                        perf_counter() + budget_s)

    rate, tried = asyncio.run(search(500.0, 60.0, True))
    assert serve.FIXED_RATE < rate <= 500.0 and len(tried) > 2
    rate, tried = asyncio.run(search(500.0, -1.0, True))
    assert (rate, tried) == (serve.FIXED_RATE, [(serve.FIXED_RATE, True)])
    rate, tried = asyncio.run(search(500.0, -1.0, False))
    assert rate == serve.SEARCH_FLOOR


def test_rate_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        next(arith.rate_search(100.0, 0.0, 10.0, 6400.0))
    with pytest.raises(ValueError):
        next(arith.rate_search(100.0, 0.05, 10.0, 6400.0, growth=1.0))


# ----------------------------------------------------- queue attribution


def test_queue_wait_attribution():
    batches = [
        (1.0, 1.5, ["a", "b"]),
        (2.0, 2.2, ["a"]),
        (3.0, 3.1, ["c", "c"]),
    ]
    requests = [
        (0.9, 0.95, 1.5, "a"),   # first batch
        (0.8, 0.90, 1.5, "b"),   # first batch
        (1.2, 1.30, 2.2, "a"),   # sent after batch 1 started: batch 2
        (1.3, 1.30, 1.31, "a"),  # done before any later batch: a hit
        (2.9, 2.95, 3.1, "c"),   # two requests share batch 3's two slots
        (2.8, 2.90, 3.1, "c"),
        (2.9, 2.95, 3.1, "d"),   # key in no batch
    ]
    waits = arith.attribute_queue_wait(requests, batches)
    assert waits[0] == pytest.approx(0.1)
    assert waits[1] == pytest.approx(0.2)
    assert waits[2] == pytest.approx(0.8)
    assert waits[3] is None
    assert waits[4] == pytest.approx(0.1)
    assert waits[5] == pytest.approx(0.2)
    assert waits[6] is None


def test_queue_wait_slots_are_not_reused():
    batches = [(1.0, 1.1, ["a"])]
    requests = [(0.5, 0.5, 1.1, "a"), (0.6, 0.6, 1.1, "a")]
    waits = arith.attribute_queue_wait(requests, batches)
    assert waits == [pytest.approx(0.5), None]


def test_invalidation_seconds_pairs_each_service_end_with_its_index_end():
    index_ends = [1.00, 2.00, 3.00]
    service_ends = [1.02, 2.05, 3.01]
    assert arith.invalidation_seconds(service_ends, index_ends) == (
        pytest.approx(0.08))
    assert arith.invalidation_seconds([0.5], index_ends) == 0.0


# --------------------------------------------------------- reconciliation


def test_reconcile_within_eps():
    ok = arith.reconcile({"a": 0.6, "b": 0.38}, 1.0, 0.05)
    assert ok["ok"] and ok["residual_frac"] == pytest.approx(0.02)
    bad = arith.reconcile({"a": 0.6}, 1.0, 0.05)
    assert not bad["ok"] and bad["residual_frac"] == pytest.approx(0.4)
    over = arith.reconcile({"a": 1.2}, 1.0, 0.05)
    assert not over["ok"]
    with pytest.raises(ValueError):
        arith.reconcile({}, 0.0, 0.05)


def test_contained():
    assert arith.contained(1.0, 1.0, 0.0)
    assert arith.contained(1.04, 1.0, 0.05)
    assert not arith.contained(1.06, 1.0, 0.05)


# ------------------------------------------------------------- wrappers


class _Thing:
    @classmethod
    def make(cls, n):
        time.sleep(0.01)
        return cls(), n

    def work(self):
        time.sleep(0.01)
        return helper()

    def steps(self, n):
        for i in range(n):
            time.sleep(0.01)
            yield i


def helper():
    time.sleep(0.02)
    return "done"


def test_timers_nest_self_time_and_restore():
    timers = LayerTimers()
    original_work = _Thing.work
    timers.patch(_Thing, "work", "outer")
    timers.patch(_Thing, "make", "make")
    timers.patch_everywhere(helper, "inner", package=__name__)
    try:
        assert _Thing().work() == "done"
        thing, n = _Thing.make(3)
        assert isinstance(thing, _Thing) and n == 3
    finally:
        timers.restore()
    assert _Thing.work is original_work
    assert helper.__name__ == "helper" and globals()["helper"] is helper
    assert timers.calls == {"outer": 1, "inner": 1, "make": 1}
    assert timers.total_s["outer"] >= 0.03
    assert timers.self_s["outer"] == pytest.approx(
        timers.total_s["outer"] - timers.total_s["inner"], abs=1e-6)
    assert timers.self_s["inner"] == pytest.approx(timers.total_s["inner"])


def test_generators_are_timed_through_consumption():
    timers = LayerTimers()
    timers.patch(_Thing, "steps", "gen")
    try:
        gen = _Thing().steps(3)
        assert timers.total_s["gen"] < 0.005  # creating it costs nothing
        assert list(gen) == [0, 1, 2]
    finally:
        timers.restore()
    assert timers.calls["gen"] == 1
    assert timers.total_s["gen"] >= 0.03
    windows = [(iv[1], iv[2]) for iv in timers.intervals]
    assert timers.self_within("gen", windows) == pytest.approx(
        timers.self_s["gen"])
    assert timers.self_within("gen", [(0.0, 0.0)]) == 0.0


# --------------------------------------------------------------- oracle


def _footrule(a, b):
    k = len(a)
    rank_a = {x: i for i, x in enumerate(a)}
    rank_b = {x: i for i, x in enumerate(b)}
    return sum(
        abs(rank_a.get(x, k) - rank_b.get(x, k)) for x in set(a) | set(b)
    )


def _rows(n, k, domain, seed):
    rng = random.Random(seed)
    base = [rng.sample(range(domain), k) for _ in range(n // 2)]
    rows = []
    for row in base:
        rows.append(row)
        near = list(row)
        i, j = rng.randrange(k), rng.randrange(k)
        near[i], near[j] = near[j], near[i]
        if rng.random() < 0.5:
            fresh = rng.randrange(domain)
            if fresh not in near:
                near[rng.randrange(k)] = fresh
        rows.append(near)
    return rows


def test_oracle_footrule_matches_definition():
    rows = _rows(60, 6, 20, seed=1)
    codes, domain = oracle.encode(rows)
    a = np.repeat(np.arange(len(rows)), len(rows))
    b = np.tile(np.arange(len(rows)), len(rows))
    got = oracle.footrule_pairs(codes, domain, a, b)
    want = [_footrule(rows[i], rows[j]) for i, j in zip(a, b)]
    assert got.tolist() == want


@pytest.mark.parametrize("theta", [0.05, 0.2, 0.4, 1.0])
def test_oracle_self_join_equals_quadratic_scan(theta):
    k = 8
    rows = _rows(120, k, 40, seed=7)
    codes, domain = oracle.encode(rows)
    limit = theta * k * (k + 1)
    got = oracle.self_join(codes, domain, limit)
    want = sorted(
        (i, j, _footrule(rows[i], rows[j]))
        for i in range(len(rows)) for j in range(i + 1, len(rows))
        if _footrule(rows[i], rows[j]) <= limit
    )
    assert got == want
    scanned = oracle.all_pairs_rows(codes, domain, range(len(rows)), limit)
    assert sorted(scanned) == want


def test_min_overlap_bound():
    for k in (5, 10, 25):
        for raw in (0, 10, 40, k * (k + 1)):
            o = oracle.min_overlap(k, raw)
            assert (k - o) * (k - o + 1) <= raw
            if o > 0:
                assert (k - o + 1) * (k - o + 2) > raw
    assert math.isclose(oracle.min_overlap(25, 162.5), 13)
