"""The ``serve-mixed`` workload: an open loop against ``SearchService``.

Load comes from one process, one event loop, no extra threads or
sockets (the calibration process of ``calib.py`` runs only between
phases, while no request is in flight).  A
``ShardedIndex`` of 50,000 DBLP-profile rankings sits behind a
``SearchService`` with an LRU cache.  Traffic is 90% range queries drawn
Zipf(1.0) from a 20,000-ranking pool, 5% inserts of fresh rankings and
5% deletes of earlier inserts.  Arrivals follow a seeded Poisson
schedule; each request is timed from when it was due, and the
generator's own lateness is recorded beside it.

:func:`prepare` generates a seed's corpus file and fresh-ranking file
under ``perfbench/out/`` in ``run.py``'s own process, so the process that
measures only loads them, builds the index and serves.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import itertools
import os
import random
import sys
from time import perf_counter

from . import arith
from .batch import peak_rss_mb, print_raw
from .calib import Calibration
from .layers import LayerTimers

CORPUS = 50_000
#: DBLP profile x44 = 52,800 rankings: the corpus plus a fresh-item pool.
SCALE = 44
POOL = 20_000
THETA = 0.05
THETA_MAX = 0.1
SHARDS = 8
CACHE = 4096
#: One block of the request mix: 90% queries, 5% inserts, 5% deletes.
MIX_BLOCK = ("query",) * 18 + ("insert", "delete")
#: Set-ups after the traffic, beside the one before it.
SETUPS_AFTER = 4

#: Offered rate of the fixed-rate latency phase, its requests per window
#: (p99 needs >= 1000), and the fewest windows a run has (more run while
#: they end within ``--seconds`` of the drains' start); p99 comes from
#: the best window, p50 from the best half-window.  The rate is well
#: below the knee: at 200 req/s the event loop was busy (inserts, misses)
#: for about 45% of the time, so the median request sat on the steep
#: step between requests that found it free and those that waited, and
#: the p50 of 4-second windows in one process spread 0.41; at 100 req/s
#: it spread 0.07.
FIXED_RATE = 100.0
FIXED_REQUESTS = 1100
MIN_WINDOWS = 2
CALIBRATIONS_PER_WINDOW = 4
#: The knee criterion of the traced run's ``serving.knee_qps``: p99
#: within this limit, no growing backlog.
LIMIT_S = 0.050
LATE_TOLERANCE_S = 0.005
#: Knee search from ``FIXED_RATE``: growth factor while bracketing,
#: relative step, and the rates it never leaves.  A rate passes if any
#: of ``PROBE_TRIES`` probes passes.
SEARCH_GROWTH = 2.0
SEARCH_STEP = 0.10
SEARCH_FLOOR = 70.0
SEARCH_CEILING = 6400.0
PROBE_TRIES = 3
#: Seconds the rate search may take.  On a badly slowed host the search
#: walks down to slow rates whose probes last long; past this it stops at
#: the highest rate that passed so far, so the run ends within its limit.
SEARCH_SECONDS = 60.0
#: Requests per rate probe (p99 needs >= 1000 samples).
PROBE_REQUESTS = 1600
#: Closed-loop drains behind ``wall_s`` (the fastest counts): requests
#: per drain (whole mix blocks), concurrent clients, drains.
DRAIN_REQUESTS = 240
DRAIN_CLIENTS = 16
DRAINS = 32
#: Requests of the mix replayed, untimed, with ``revalidate_cache`` on.
REVALIDATE_REQUESTS = 600
#: Inserted before the cache warms, so deletes always find a target.
STOCK = 256
#: Queries checked against ``range_search_bruteforce`` afterwards.
ORACLE_QUERIES = 4
#: Hottest pool queries whose (cached) answers are audited against a
#: fresh index query afterwards; any mismatch is a stale cache hit.
AUDIT_QUERIES = 256
RECONCILE_EPS = 0.05
FRESH_RID = 10_000_000

LAYERS = ("search", "serving", "trace")


def input_paths(seed: int, out_dir: str) -> tuple:
    """The corpus file and the fresh-ranking file of ``seed``."""
    stem = os.path.join(out_dir, f"serve-mixed-{seed}")
    return stem + ".txt", stem + ".fresh.txt"


def prepare(seed: int, out_dir: str) -> None:
    """Generate the seed's corpus and its pool of fresh rankings."""
    from repro import make_dataset
    from repro.rankings.dataset import RankingDataset

    corpus_path, fresh_path = input_paths(seed, out_dir)
    generated = make_dataset("dblp", scale=SCALE, seed=seed)
    RankingDataset(generated.rankings[:CORPUS]).save(corpus_path)
    RankingDataset(generated.rankings[CORPUS:]).save(fresh_path)


class Serve:
    """The serve-mixed workload bound to one seed's prepared files."""

    def __init__(self, seed: int, out_dir: str):
        from repro.rankings.dataset import RankingDataset

        self.seed = seed
        self.path, fresh_path = input_paths(seed, out_dir)
        self.fresh_items = [
            r.items for r in RankingDataset.load(fresh_path).rankings
        ]
        rng = random.Random(seed)
        self.pool_rows = rng.sample(range(CORPUS), POOL)
        self.zipf = list(
            itertools.accumulate(1.0 / rank for rank in range(1, POOL + 1))
        )
        self.failures: list = []
        self.attempted = 0
        self.over_limit = 0
        self._fresh = itertools.count(FRESH_RID)

    # ------------------------------------------------------------ set-up

    def setup(self):
        """Load the corpus, build the index, start the service (timed)."""
        from repro.rankings.dataset import RankingDataset
        from repro.serving.service import SearchService
        from repro.serving.sharded import ShardedIndex

        start = perf_counter()
        corpus = RankingDataset.load(self.path)
        index = ShardedIndex(corpus, kind="prefix", num_shards=SHARDS,
                             theta_max=THETA_MAX)
        service = SearchService(index, cache_size=CACHE)
        elapsed = perf_counter() - start
        self.pool = [corpus.rankings[row] for row in self.pool_rows]
        self.stock: collections.deque = collections.deque()
        return index, service, elapsed

    # ------------------------------------------------------------ traffic

    def query(self, rng: random.Random):
        """A pool ranking drawn Zipf(1.0) by pool position."""
        return self.pool[rng.choices(range(POOL), cum_weights=self.zipf)[0]]

    def requests(self, count: int, rng: random.Random) -> list:
        """``count`` requests of the mix as ``(kind, query)`` pairs.

        Every block of ``len(MIX_BLOCK)`` requests holds the mix exactly,
        in shuffled order, so no run or window gets more inserts than
        another by chance.  Inserts and deletes carry a query too, used
        if a delete finds no earlier insert to remove.
        """
        kinds: list = []
        while len(kinds) < count:
            block = list(MIX_BLOCK)
            rng.shuffle(block)
            kinds.extend(block)
        return [(kind, self.query(rng)) for kind in kinds[:count]]

    def _fresh_ranking(self):
        from repro.rankings.ranking import Ranking

        rid = next(self._fresh)
        items = self.fresh_items[(rid - FRESH_RID) % len(self.fresh_items)]
        return Ranking(rid, items)

    async def execute(self, service, kind: str, query) -> None:
        if kind == "insert":
            ranking = self._fresh_ranking()
            await service.insert(ranking)
            self.stock.append(ranking.rid)
        elif kind == "delete" and self.stock:
            await service.delete(self.stock.popleft())
        else:
            await service.search(query, THETA)

    async def _timed(self, service, op, due: float, sent: float) -> tuple:
        kind, query = op
        ok = True
        try:
            await self.execute(service, kind, query)
        except Exception as error:  # counted, reported, not fatal
            ok = False
            self.failures.append(f"{kind}: raised {error!r}")
        done = perf_counter()
        if done - due > LIMIT_S:
            self.over_limit += 1
        return due, sent, done, kind, query.rid, ok

    async def open_loop(self, service, rate: float, count: int,
                        rng: random.Random, give_up: int | None = None):
        """Issue ``count`` requests on a Poisson schedule at ``rate``.

        Returns ``(due, sent, done, kind, key, ok)`` per issued request.
        With ``give_up`` set, stops issuing once more than that many
        requests have finished over ``LIMIT_S`` — the rate has then
        already failed the max-rate criterion.
        """
        ops = self.requests(count, rng)
        offsets = arith.poisson_schedule(rate, count, rng)
        self.over_limit = 0
        origin = perf_counter() + 0.002
        tasks = []
        for op, offset in zip(ops, offsets):
            if give_up is not None and self.over_limit > give_up:
                break
            due = origin + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(
                self._timed(service, op, due, perf_counter())))
        self.attempted += len(tasks)
        return list(await asyncio.gather(*tasks))

    async def closed_loop(self, service, count: int, clients: int,
                          rng: random.Random) -> float:
        """Serve ``count`` requests of the mix with ``clients`` callers
        that each wait for their reply; returns the wall seconds."""
        ops = collections.deque(self.requests(count, rng))
        self.attempted += count

        async def client():
            while ops:
                now = perf_counter()
                await self._timed(service, ops.popleft(), now, now)

        start = perf_counter()
        await asyncio.gather(*(client() for _ in range(clients)))
        return perf_counter() - start

    async def drain(self, service, calibration=None) -> float:
        """Fastest of ``DRAINS`` closed-loop drains (``wall_s``); with a
        ``calibration``, it is sampled after each drain."""
        rng = random.Random(f"{self.seed}-drain")
        walls = []
        for _ in range(DRAINS):
            walls.append(await self.closed_loop(
                service, DRAIN_REQUESTS, DRAIN_CLIENTS, rng))
            if calibration is not None:
                calibration.sample(1)
        return min(walls)

    async def warm(self, service) -> None:
        """Stock deletable inserts, fill the cache, then run one insert
        and one delete so every cached entry has been scanned once
        (rankings build their rank tables lazily, on first use)."""
        for _ in range(STOCK):
            await self.execute(service, "insert", None)
        rng = random.Random(f"{self.seed}-warm")
        while service.cache_len() < CACHE:
            await asyncio.gather(*(
                service.search(self.query(rng), THETA) for _ in range(256)
            ))
        await self.execute(service, "insert", None)
        await self.execute(service, "delete", None)

    async def knee(self, service, fixed) -> tuple:
        """The highest offered rate that meets the knee criterion,
        searched upward from ``FIXED_RATE``, whose records ``fixed`` are
        the first probe; returns ``(rate, [(rate, passed), ...])``."""
        probe_rng = random.Random(f"{self.seed}-probe")
        deadline = perf_counter() + SEARCH_SECONDS

        async def run_probe(rate):
            for attempt in range(PROBE_TRIES):
                if attempt and perf_counter() > deadline:
                    break
                if probe_passes(await self.open_loop(
                        service, rate, PROBE_REQUESTS, probe_rng,
                        give_up=arith.samples_beyond(PROBE_REQUESTS, 99.0))):
                    return True
            return False

        return await search_async(run_probe, probe_passes(fixed), deadline)

    # ------------------------------------------------------------ checks

    async def check(self, service, index) -> None:
        """A replay of the mix must serve no stale cache hit, sampled
        answers must equal ``range_search_bruteforce`` over the live
        corpus, and the hottest cached answers a fresh index query."""
        from repro.search.prefix_index import range_search_bruteforce

        # With ``revalidate_cache`` the service re-runs every cache hit
        # against the index and counts mismatches in ``stale_hits``.
        service.revalidate_cache = True
        try:
            await self.closed_loop(
                service, REVALIDATE_REQUESTS, DRAIN_CLIENTS,
                random.Random(f"{self.seed}-revalidate"))
        finally:
            service.revalidate_cache = False
        live = index.rankings()
        rng = random.Random(f"{self.seed}-oracle")
        sample = rng.sample(self.pool, ORACLE_QUERIES)
        for query in sample:
            self.attempted += 1
            got = await service.search(query, THETA)
            want = [(r.rid, d) for r, d in
                    range_search_bruteforce(live, query, THETA)]
            if got != want:
                self.failures.append(
                    f"query {query.rid}: {len(got)} results, brute force "
                    f"has {len(want)}")
        stale = 0
        for query in self.pool[:AUDIT_QUERIES]:
            self.attempted += 1
            got = await service.search(query, THETA)
            fresh = [(r.rid, d) for r, d in index.query(query, THETA)]
            if got != fresh:
                stale += 1
                self.failures.append(f"stale cache hit for {query.rid}")
        if service.metrics.stale_hits or stale:
            self.failures.append(
                f"stale_hits {service.metrics.stale_hits}, audit {stale}")

    # ------------------------------------------------------------- timed

    def timed(self, seconds: float) -> dict:
        with Calibration() as calibration:
            return asyncio.run(self._timed_run(seconds, calibration))

    def _setup_timed(self, setups: list, calibration) -> tuple:
        gc.collect()
        index, service, elapsed = self.setup()
        setups.append(elapsed)
        calibration.sample()
        return index, service

    async def _timed_run(self, seconds: float, calibration) -> dict:
        setups: list = []
        index, service = self._setup_timed(setups, calibration)
        await self.warm(service)
        started = perf_counter()
        # Drained first, so every run measures the same warmed state.
        wall = await self.drain(service, calibration)

        # Every figure is taken from the best of a few independent tries:
        # the one least slowed by other tenants of the host (README).
        rng = random.Random(f"{self.seed}-fixed")
        p50s, p99s = [], []
        window_s = FIXED_REQUESTS / FIXED_RATE
        while (len(p99s) < MIN_WINDOWS
               or perf_counter() - started + window_s <= seconds):
            records = await self.open_loop(service, FIXED_RATE,
                                           FIXED_REQUESTS, rng)
            due = [r[0] for r in records]
            latencies = arith.due_latencies(due, [r[2] for r in records])
            half = len(latencies) // 2
            p50s += [arith.percentile(latencies[:half], 50.0),
                     arith.percentile(latencies[half:], 50.0)]
            p99s.append(arith.percentile(
                latencies, 99.0, min_beyond=arith.MIN_BEYOND))
            calibration.sample(CALIBRATIONS_PER_WINDOW)
        await self.check(service, index)
        peak = peak_rss_mb()  # the calibration process is still running
        # The other set-ups come after the traffic, as in the batch
        # workloads, so it runs on the heap of a single set-up.
        for _ in range(SETUPS_AFTER):
            index = service = None
            index, service = self._setup_timed(setups, calibration)

        raw = {
            "setup_s": arith.median(setups),
            "wall_s": wall,
            "p50_ms": 1000.0 * min(p50s),
            "p99_ms": 1000.0 * min(p99s),
        }
        factor = calibration.factor()
        values = {name: value * factor for name, value in raw.items()}
        values.update({
            "peak_rss_mb": peak,
            "success_rate": (
                (self.attempted - len(self.failures)) / self.attempted),
            "max_qps": DRAIN_REQUESTS / values["wall_s"],
        })
        print(
            f"# serve-mixed: {len(p99s)} x {FIXED_REQUESTS} requests at "
            f"{FIXED_RATE:g}/s, error_rate "
            f"{len(self.failures) / self.attempted:g}",
            file=sys.stderr,
        )
        print_raw(raw, calibration)
        return values

    # ------------------------------------------------------------ traced

    def traced(self, trace_path: str) -> dict:
        return asyncio.run(self._traced_run(trace_path))

    async def _traced_run(self, trace_path: str) -> dict:
        from repro.joins import kernels
        from repro.minispark.tracing import Tracer
        from repro.rankings.dataset import RankingDataset
        from repro.serving.service import SearchService
        from repro.serving.sharded import ShardedIndex

        loads = LayerTimers()
        loads.patch(RankingDataset, "load", "rankings.load")
        try:
            index, service, _setup = self.setup()
        finally:
            loads.restore()
        await self.warm(service)
        untraced = await self.drain(service)

        tracer = Tracer()
        service.tracer = tracer
        timers = LayerTimers()
        timers.patch(ShardedIndex, "insert", "search.insert")
        timers.patch(ShardedIndex, "delete", "search.delete")
        timers.patch(SearchService, "insert", "serving.mutation")
        timers.patch(SearchService, "delete", "serving.mutation")
        timers.patch_everywhere(kernels.batch_filter_verify, "kernels.array")
        #: ``(start, end, query rids)`` per ``query_batch`` call.
        batches: list = []
        original_batch = ShardedIndex.query_batch

        def recording_batch(index_self, queries, theta, include_self=False):
            start = perf_counter()
            try:
                return original_batch(index_self, queries, theta,
                                      include_self)
            finally:
                batches.append(
                    (start, perf_counter(), [q.rid for q in queries]))

        ShardedIndex.query_batch = recording_batch
        before_service = dict(vars(service.metrics))
        before_index = dict(vars(index.stats))
        try:
            phase_start = perf_counter()
            fixed: list = []
            rng = random.Random(f"{self.seed}-fixed")
            while (service.metrics.cache_misses - before_service[
                    "cache_misses"] < arith.min_samples(99.0)):
                fixed += await self.open_loop(
                    service, FIXED_RATE, FIXED_REQUESTS, rng)
            phase_wall = perf_counter() - phase_start
            after_service = dict(vars(service.metrics))
            after_index = dict(vars(index.stats))
            traced_drain = await self.drain(service)
        finally:
            ShardedIndex.query_batch = original_batch
            timers.restore()
            service.tracer = None
        knee_qps, tried = await self.knee(service, fixed)
        print(f"# serve-mixed: knee probes "
              f"{[(round(r), ok) for r, ok in tried]}", file=sys.stderr)
        await self.check(service, index)
        tracer.write_chrome_trace(trace_path)

        fixed_end = phase_start + phase_wall
        phase_batches = [b for b in batches if b[1] <= fixed_end]
        spans = [s for s in tracer.spans_of("request_batch")
                 if s.end <= fixed_end]
        metrics, checks = serving_metrics(
            fixed, phase_batches, spans, phase_wall, timers, fixed_end,
            before_service, after_service, before_index, after_index)
        metrics["rankings.load_s"] = loads.total_s["rankings.load"]
        metrics["serving.knee_qps"] = knee_qps
        metrics["trace.overhead_frac"] = traced_drain / untraced - 1.0
        return {"metrics": metrics, "checks": checks,
                "untraced_wall_s": untraced, "traced_wall_s": traced_drain}


def probe_passes(records) -> bool:
    """The max-rate criterion on one open-loop probe's records."""
    due = [r[0] for r in records]
    return len(records) >= arith.min_samples(99.0) and arith.rate_passes(
        arith.due_latencies(due, [r[2] for r in records]),
        arith.lateness(due, [r[1] for r in records]),
        LIMIT_S, 99.0, LATE_TOLERANCE_S,
    )


async def search_async(run_probe, first: bool, deadline: float) -> tuple:
    """:func:`arith.rate_search` driven by asynchronous probes
    (``await run_probe(rate) -> bool``), starting at ``FIXED_RATE`` whose
    verdict ``first`` is already known; returns
    ``(max rate, [(rate, passed), ...])``.  No probe starts after
    ``deadline`` (a ``perf_counter`` time): the answer is then the highest
    rate that passed, or ``SEARCH_FLOOR`` if none did."""
    search = arith.rate_search(FIXED_RATE, SEARCH_STEP, SEARCH_FLOOR,
                               SEARCH_CEILING, SEARCH_GROWTH)
    rate = next(search)
    tried = [(rate, first)]
    try:
        rate = search.send(first)
        while perf_counter() <= deadline:
            ok = await run_probe(rate)
            tried.append((rate, ok))
            rate = search.send(ok)
    except StopIteration as done:
        return done.value, tried
    passed = [r for r, ok in tried if ok]
    return max(passed, default=SEARCH_FLOOR), tried


def serving_metrics(records, batches, spans, phase_wall, timers, phase_end,
                    before_service, after_service, before_index,
                    after_index) -> tuple:
    """Per-layer metrics of the traced fixed-rate phase and its checks."""
    due = [r[0] for r in records]
    late = arith.lateness(due, [r[1] for r in records])
    waits = arith.attribute_queue_wait(
        [(r[0], r[1], r[2], r[4]) for r in records if r[3] == "query"],
        batches,
    )
    waits = [w for w in waits if w is not None]

    def delta(before, after, name):
        return after[name] - before[name]

    hits = delta(before_service, after_service, "cache_hits")
    misses = delta(before_service, after_service, "cache_misses")
    n_batches = delta(before_service, after_service, "batches")
    batched = delta(before_service, after_service, "batched_requests")
    verified = delta(before_index, after_index, "verified")
    results = delta(before_index, after_index, "results")
    in_phase = [iv for iv in timers.intervals if iv[2] <= phase_end]
    batch_s = sum(b[1] - b[0] for b in batches)
    queries = sum(len(b[2]) for b in batches)
    index_ends = sorted(
        iv[2] for iv in in_phase if iv[0] in ("search.insert",
                                               "search.delete"))
    service_ends = [iv[2] for iv in in_phase if iv[0] == "serving.mutation"]
    span_s = sum(s.duration for s in spans)

    def layer_s(name):
        return sum(iv[2] - iv[1] for iv in in_phase if iv[0] == name)

    metrics = {
        "search.batch_calls": len(batches),
        "search.batch_s": batch_s,
        "search.s_per_query": batch_s / queries if queries else 0.0,
        "search.candidates": delta(before_index, after_index, "candidates"),
        "search.verified": verified,
        "search.results": results,
        "search.result_yield": results / verified if verified else 0.0,
        "search.insert_s": layer_s("search.insert"),
        "search.delete_s": layer_s("search.delete"),
        "serving.cache_hit_rate": hits / (hits + misses),
        "serving.invalidations": delta(before_service, after_service,
                                       "invalidations"),
        "serving.invalidation_s": arith.invalidation_seconds(
            service_ends, index_ends),
        "serving.batching_factor": batched / n_batches if n_batches else 0.0,
        "serving.queue_wait_p50_ms": 1000.0 * arith.percentile(waits, 50.0),
        "serving.queue_wait_p99_ms": 1000.0 * arith.percentile(
            waits, 99.0, min_beyond=arith.MIN_BEYOND),
        "serving.gen_late_p99_ms": 1000.0 * arith.percentile(
            late, 99.0, min_beyond=arith.MIN_BEYOND),
        "kernels.array_calls": timers.calls["kernels.array"],
        "kernels.array_s": timers.self_s["kernels.array"],
    }
    checks = {
        "batches_vs_spans": arith.reconcile(
            {"query_batch": batch_s}, span_s, RECONCILE_EPS),
        "spans_within_phase": arith.contained(span_s, phase_wall, 0.0),
        "every_batch_traced": len(spans) == len(batches) == n_batches,
        "waits_nonnegative": all(w >= -1e-6 for w in waits),
    }
    return metrics, checks
