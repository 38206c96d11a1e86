"""Asyncio front end over a mutable range-search index.

:class:`SearchService` turns a :class:`~repro.serving.sharded.ShardedIndex`
(or any index with the same surface) into a long-lived service:

* **request batching** — concurrent ``search()`` calls that arrive while
  a flush is pending are coalesced into one ``query_batch`` call per
  ``(theta, include_self)`` group, so N concurrent requests cost one
  kernel invocation instead of N.  Batching never changes answers: the
  batch path is verified query-for-query identical to the serial path.
* **LRU result cache with precise invalidation** — a cached result for
  query ``q`` at threshold ``theta`` stays valid until a mutation can
  change it: an insert invalidates entry ``(q, theta)`` iff the new
  ranking is within ``theta`` of ``q`` (it would have to appear in the
  result); a delete invalidates iff the deleted rid occurs in the cached
  result.  Re-canonicalization never invalidates — it is a physical
  rebuild of an exact index, so answers are unchanged by construction.
  Two posting maps over the cache keys make a mutation cost
  O(affected entries), not O(cache): a *prefix map* lists each cached
  query under its canonical prefix for ``theta_max`` (an insert probes
  it with the new ranking's prefix — the prefix filter's asymmetric
  argument, so no affected entry is missed), and a *result map* lists
  it under every rid of its result (a delete reads one posting).
* **metrics + tracing** — per-request latencies, QPS, cache hit rate and
  batching factor in :class:`ServiceMetrics`; each flushed batch runs
  under a ``Tracer`` span of kind ``"request_batch"`` when a tracer is
  attached.

A ``revalidate_cache`` debug mode re-executes every cache hit against
the live index and counts mismatches in ``metrics.stale_hits`` — the
concurrency stress test runs with it on and asserts the counter stays
zero under arbitrary interleavings.
"""

from __future__ import annotations

import asyncio
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter

from ..rankings.bounds import (
    admits_disjoint_pairs,
    overlap_prefix_size,
    raw_threshold,
)
from ..rankings.distances import footrule
from ..rankings.ordering import frequency_order_key
from ..rankings.ranking import Ranking

#: Longest TCP request line (bytes) the line protocol reads.
MAX_REQUEST_BYTES = 1 << 16
#: Seconds a connection that sent an oversized line is given to finish
#: sending before it is closed.
DISCARD_SECONDS = 1.0


@dataclass
class ServiceMetrics:
    """Serving-side counters (the index's JoinStats covers the kernels)."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch: int = 0
    inserts: int = 0
    deletes: int = 0
    invalidations: int = 0
    #: Cache entries invalidation examined: for an insert the prefix-map
    #: hits given the exact distance test, for a delete the result-map
    #: posting of the deleted rid.
    invalidation_candidates: int = 0
    invalidation_seconds: float = 0.0
    recanonicalizations: int = 0
    stale_hits: int = 0
    latencies: list = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def batching_factor(self) -> float:
        """Mean requests per kernel batch (1.0 = no coalescing happened)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        position = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[position]

    def snapshot(self, elapsed_seconds: float | None = None) -> dict:
        report = {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "batching_factor": self.batching_factor,
            "max_batch": self.max_batch,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "invalidations": self.invalidations,
            "invalidation_candidates": self.invalidation_candidates,
            "invalidation_seconds": self.invalidation_seconds,
            "recanonicalizations": self.recanonicalizations,
            "stale_hits": self.stale_hits,
            "p50_latency_s": self.latency_quantile(0.50),
            "p95_latency_s": self.latency_quantile(0.95),
        }
        if elapsed_seconds:
            report["qps"] = self.requests / elapsed_seconds
        return report


class SearchService:
    """Asyncio range-search service over a mutable index.

    Parameters
    ----------
    index:
        The data plane — anything with ``query_batch``, ``insert``,
        ``delete``, ``k``, ``theta_max``, ``frozen_frequencies`` (a
        frequency table the index never mutates), and (for
        :meth:`recanonicalize`) the
        :class:`~repro.serving.sharded.ShardedIndex` rebuild surface.
    cache_size:
        LRU capacity in cached query results (0 disables caching).
    batch_window:
        Seconds the flusher waits after the first pending request before
        firing, to let concurrent requests pile into the batch.  The
        default 0.0 still coalesces whatever arrives in the same event
        loop tick.
    tracer:
        Optional :class:`~repro.minispark.tracing.Tracer`; each flushed
        batch becomes a span of kind ``"request_batch"``.
    revalidate_cache:
        Debug mode: serve cache hits but re-query the index and count
        mismatches in ``metrics.stale_hits`` (which must stay 0 — the
        invalidation rules are exact, not heuristic).
    """

    def __init__(
        self,
        index,
        *,
        cache_size: int = 1024,
        batch_window: float = 0.0,
        tracer=None,
        revalidate_cache: bool = False,
    ):
        self.index = index
        self.cache_size = cache_size
        self.batch_window = batch_window
        self.tracer = tracer
        self.revalidate_cache = revalidate_cache
        self.metrics = ServiceMetrics()
        #: key -> (pairs, query ranking, prefix items); key is
        #: (rid, items, theta, include_self) so distinct payloads under a
        #: recycled rid can never alias.
        self._cache: OrderedDict = OrderedDict()
        #: Posting maps over the cache keys, kept in step with ``_cache``
        #: by :meth:`_cache_put` and :meth:`_uncache` alone: prefix item
        #: -> keys, and result rid -> keys.
        self._keys_by_item: dict = {}
        self._keys_by_result: dict = {}
        #: The prefix map's canonical order: the index's frequency table
        #: as frozen when the service is built, held by reference (a
        #: recanonicalization rebinds the index's table, never mutates
        #: it).  Any fixed total order keeps invalidation exact.
        self._order_key = frequency_order_key(index.frozen_frequencies)
        self._pending: list = []
        self._flusher: asyncio.Task | None = None
        #: bumped on every insert/delete; a result computed before a
        #: mutation must not enter the cache after it (the invalidation
        #: has already run and would never see it).
        self._generation = 0

    # -------------------------------------------------------------- search

    async def search(
        self, query: Ranking, theta: float, include_self: bool = False
    ) -> list:
        """All indexed rankings within ``theta`` of ``query``.

        Returns ``(rid, raw_distance)`` pairs sorted by
        ``(distance, rid)`` — the serving-side result shape (rankings
        themselves stay in the index).  A query of the wrong length or a
        ``theta`` outside ``[0, theta_max]`` raises ``ValueError`` here,
        before it could join (and fail) a batch of valid requests.
        """
        self._check_request(query, theta)
        started = asyncio.get_event_loop().time()
        self.metrics.requests += 1
        key = (query.rid, query.items, theta, include_self)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.metrics.cache_hits += 1
            pairs = cached[0]
            if self.revalidate_cache:
                fresh = await self._enqueue(query, theta, include_self)
                if fresh != pairs:
                    self.metrics.stale_hits += 1
                    pairs = fresh
            self._record_latency(started)
            return list(pairs)
        self.metrics.cache_misses += 1
        generation = self._generation
        pairs = await self._enqueue(query, theta, include_self)
        if (
            self.cache_size > 0
            and generation == self._generation
            and self.index.k is not None
        ):
            self._cache_put(key, pairs, query)
        self._record_latency(started)
        return list(pairs)

    def _check_request(self, query: Ranking, theta: float) -> None:
        k = self.index.k
        if k is not None and query.k != k:
            raise ValueError(
                f"query has length {query.k}, index holds top-{k} rankings"
            )
        theta_max = self.index.theta_max
        if not (math.isfinite(theta) and 0.0 <= theta <= theta_max):
            raise ValueError(
                f"theta must be a finite number in [0, {theta_max}], "
                f"got {theta}"
            )

    def _record_latency(self, started: float) -> None:
        self.metrics.latencies.append(
            asyncio.get_event_loop().time() - started
        )

    async def _enqueue(self, query, theta, include_self) -> list:
        """Queue one query for the next batch flush and await its result."""
        future = asyncio.get_event_loop().create_future()
        self._pending.append((query, theta, include_self, future))
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.ensure_future(self._flush_soon())
        return await future

    async def _flush_soon(self) -> None:
        if self.batch_window > 0:
            await asyncio.sleep(self.batch_window)
        else:
            # Yield once so same-tick concurrent requests can join.
            await asyncio.sleep(0)
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.metrics.batches += 1
        self.metrics.batched_requests += len(pending)
        self.metrics.max_batch = max(self.metrics.max_batch, len(pending))
        groups: dict = {}
        for query, theta, include_self, future in pending:
            groups.setdefault((theta, include_self), []).append(
                (query, future)
            )
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "request_batch", kind="request_batch",
                requests=len(pending), groups=len(groups),
            )
        try:
            for (theta, include_self), members in groups.items():
                queries = [query for query, _future in members]
                try:
                    answers = self.index.query_batch(
                        queries, theta, include_self
                    )
                except Exception as error:  # propagate to every waiter
                    for _query, future in members:
                        if not future.done():
                            future.set_exception(error)
                    continue
                for (_query, future), results in zip(members, answers):
                    if not future.done():
                        future.set_result(
                            [(r.rid, distance) for r, distance in results]
                        )
        finally:
            if span is not None:
                self.tracer.end(span)
        if self._pending:
            # A request slipped in while this flush ran; keep draining.
            self._flusher = asyncio.ensure_future(self._flush_soon())

    # ----------------------------------------------------------- mutations

    async def insert(self, ranking: Ranking) -> None:
        """Index a new ranking and invalidate exactly the affected entries.

        A cached result for ``(q, theta)`` changes iff the new ranking
        belongs in it, i.e. ``footrule(q, new) <= theta_raw`` (with the
        ``include_self``/rid caveat for self-pairs) — so only those
        entries are evicted.  Only entries sharing a prefix item with the
        new ranking can qualify (every cached ``theta <= theta_max``), so
        only those are tested; when ``theta_max`` admits item-disjoint
        pairs every entry is a candidate.
        """
        await self._drain()
        self.index.insert(ranking)
        self._generation += 1
        self.metrics.inserts += 1
        started = perf_counter()
        k = self.index.k
        if admits_disjoint_pairs(raw_threshold(self.index.theta_max, k), k):
            candidates = list(self._cache)
        else:
            candidates = set()
            for item in self._cache_prefix(ranking):
                candidates.update(self._keys_by_item.get(item, ()))
        stale = []
        for key in candidates:
            rid, _items, theta, include_self = key
            if not include_self and ranking.rid == rid:
                continue
            query = self._cache[key][1]
            if footrule(query, ranking) <= raw_threshold(theta, k):
                stale.append(key)
        self._invalidate(stale, len(candidates), started)

    async def delete(self, rid) -> Ranking:
        """Drop a ranking; evict exactly the cached results that held it."""
        await self._drain()
        ranking = self.index.delete(rid)
        self._generation += 1
        self.metrics.deletes += 1
        started = perf_counter()
        stale = list(self._keys_by_result.get(rid, ()))
        self._invalidate(stale, len(stale), started)
        return ranking

    def _invalidate(self, stale: list, candidates: int, started) -> None:
        for key in stale:
            self._uncache(key)
        self.metrics.invalidations += len(stale)
        self.metrics.invalidation_candidates += candidates
        self.metrics.invalidation_seconds += perf_counter() - started

    # ---------------------------------------------------------- cache maps

    def _cache_prefix(self, ranking: Ranking) -> list:
        """The items ``ranking`` is listed (or probes) under in the prefix
        map: its first ``overlap_prefix_size(theta_max)`` items in the
        frozen canonical order."""
        k = self.index.k
        size = overlap_prefix_size(raw_threshold(self.index.theta_max, k), k)
        return sorted(ranking.items, key=self._order_key)[:size]

    def _cache_put(self, key, pairs: list, query: Ranking) -> None:
        """Cache one result (replacing any entry under ``key``), list it
        in both posting maps, and evict beyond ``cache_size`` (LRU)."""
        if key in self._cache:
            self._uncache(key)
        prefix = self._cache_prefix(query)
        self._cache[key] = (pairs, query, prefix)
        for item in prefix:
            self._keys_by_item.setdefault(item, set()).add(key)
        for rid, _distance in pairs:
            self._keys_by_result.setdefault(rid, set()).add(key)
        while len(self._cache) > self.cache_size:
            self._uncache(next(iter(self._cache)))

    def _uncache(self, key) -> None:
        """Drop one cache entry and unlink it from both posting maps — the
        one exit for eviction, invalidation and replacement alike."""
        pairs, _query, prefix = self._cache.pop(key)
        for item in prefix:
            _unlist(self._keys_by_item, item, key)
        for rid, _distance in pairs:
            _unlist(self._keys_by_result, rid, key)

    async def recanonicalize(self) -> dict:
        """Rebuild the index's shards under a fresh frequency snapshot.

        Yields to the event loop between shards so queries interleave
        with the rebuild.  The cache is *not* touched: the index is
        exact under any frozen order, so answers cannot change.
        """
        await self._drain()
        drift_before = self.index.drift()
        for _shard_id in self.index.recanonicalize_steps():
            await asyncio.sleep(0)
        self.metrics.recanonicalizations += 1
        return drift_before

    async def _drain(self) -> None:
        """Flush queued queries so they run against the pre-mutation index.

        Queries queued before a mutation was requested are answered
        against the index state they observed; without the drain a
        pending batch could run mid-mutation and race the invalidation.
        """
        while self._pending:
            flusher = self._flusher
            if flusher is not None and not flusher.done():
                await asyncio.shield(flusher)
            else:
                await asyncio.sleep(0)

    # ------------------------------------------------------------- reports

    def cache_len(self) -> int:
        return len(self._cache)

    def stats_snapshot(self, elapsed_seconds: float | None = None) -> dict:
        report = self.metrics.snapshot(elapsed_seconds)
        report["indexed"] = len(self.index)
        report["cache_entries"] = len(self._cache)
        return report


def _unlist(postings: dict, token, key) -> None:
    """Remove ``key`` from ``postings[token]``, dropping an emptied list."""
    keys = postings[token]
    keys.discard(key)
    if not keys:
        del postings[token]


async def serve_tcp(service: SearchService, host: str, port: int):
    """Line-protocol TCP front end (the CLI ``serve`` command).

    Protocol (one request per line, JSON):

    * ``{"op": "query", "items": [...], "theta": 0.1}`` →
      ``{"results": [[rid, raw_distance], ...]}``
    * ``{"op": "insert", "rid": 7, "items": [...]}`` → ``{"ok": true}``
    * ``{"op": "delete", "rid": 7}`` → ``{"ok": true}``
    * ``{"op": "stats"}`` → the metrics snapshot

    A request that fails gets ``{"error": message}`` and the connection
    stays open; a line longer than :data:`MAX_REQUEST_BYTES` gets an
    error reply and the connection is closed.

    Returns the listening ``asyncio.Server`` (caller closes it).
    """
    import json

    async def handle(reader, writer):
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line outgrew the reader's limit: answer, then
                    # hang up once the peer stops sending, so the close
                    # is a FIN and not a reset that could eat the reply.
                    reply = {
                        "error": f"request line longer than "
                                 f"{MAX_REQUEST_BYTES} bytes"
                    }
                    writer.write((json.dumps(reply) + "\n").encode())
                    await writer.drain()
                    writer.write_eof()
                    await _discard_input(reader, DISCARD_SECONDS)
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    op = request.get("op")
                    if op == "query":
                        query = Ranking(
                            request.get("rid", -1),
                            tuple(request["items"]),
                        )
                        results = await service.search(
                            query,
                            float(request["theta"]),
                            bool(request.get("include_self", True)),
                        )
                        reply = {"results": [list(r) for r in results]}
                    elif op == "insert":
                        await service.insert(
                            Ranking(
                                request["rid"], tuple(request["items"])
                            )
                        )
                        reply = {"ok": True}
                    elif op == "delete":
                        await service.delete(request["rid"])
                        reply = {"ok": True}
                    elif op == "stats":
                        reply = service.stats_snapshot()
                    else:
                        reply = {"error": f"unknown op {op!r}"}
                except Exception as error:
                    reply = {"error": str(error)}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        except ConnectionError:
            pass  # the peer reset or went away mid-exchange: a disconnect
        finally:
            writer.close()

    return await asyncio.start_server(
        handle, host, port, limit=MAX_REQUEST_BYTES
    )


async def _discard_input(reader, seconds: float) -> None:
    """Read and drop input until EOF or for at most ``seconds``."""
    try:
        async with asyncio.timeout(seconds):
            while await reader.read(MAX_REQUEST_BYTES):
                pass
    except TimeoutError:
        pass
