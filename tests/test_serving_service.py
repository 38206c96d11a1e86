"""Asyncio front-end tests: batching equality, cache precision, stress.

The two serving-layer promises under concurrency:

* **no stale cache hit** — the service runs with ``revalidate_cache=True``
  (every hit re-executed against the live index) and the stress test
  asserts ``metrics.stale_hits == 0`` across arbitrary interleavings of
  overlapping queries, inserts, deletes, and re-canonicalizations;
* **batching changes nothing** — coalesced requests return per-query
  results identical to serial unbatched calls.
"""

import asyncio
import random

import pytest

from repro.minispark.tracing import Tracer
from repro.rankings import Ranking, RankingDataset
from repro.search import range_search_bruteforce
from repro.serving import SearchService, ShardedIndex

K = 6
THETA = 0.2


def _make_rankings(n, seed=0, domain=30):
    rng = random.Random(seed)
    return [
        Ranking(i, tuple(rng.sample(range(domain), K))) for i in range(n)
    ]


def _index(rankings, **kwargs):
    kwargs.setdefault("kind", "prefix")
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("theta_max", 0.3)
    return ShardedIndex(RankingDataset(rankings), **kwargs)


def run(scenario):
    """Run an async scenario (coroutine function or coroutine object)."""
    return asyncio.run(scenario() if callable(scenario) else scenario)


class TestBatching:
    def test_concurrent_queries_coalesce_into_one_batch(self):
        rankings = _make_rankings(60)
        service = SearchService(_index(rankings), cache_size=0)

        async def scenario():
            return await asyncio.gather(
                *(service.search(r, THETA) for r in rankings[:16])
            )

        results = run(scenario)
        assert len(results) == 16
        assert service.metrics.batches == 1
        assert service.metrics.batched_requests == 16
        assert service.metrics.max_batch == 16
        assert service.metrics.batching_factor == 16.0

    def test_batched_results_equal_unbatched(self):
        rankings = _make_rankings(80, seed=3)
        index = _index(rankings)
        service = SearchService(index, cache_size=0)

        async def batched():
            return await asyncio.gather(
                *(service.search(r, THETA) for r in rankings[:25])
            )

        got = run(batched)
        for query, result in zip(rankings[:25], got):
            want = [
                (r.rid, d)
                for r, d in range_search_bruteforce(
                    rankings, query, THETA
                )
                if r.rid != query.rid
            ]
            assert result == want

    def test_mixed_thetas_grouped_not_mixed_up(self):
        rankings = _make_rankings(50, seed=5)
        service = SearchService(_index(rankings), cache_size=0)

        async def scenario():
            return await asyncio.gather(
                service.search(rankings[0], 0.05),
                service.search(rankings[0], 0.2),
                service.search(rankings[0], 0.2, include_self=True),
            )

        narrow, wide, with_self = run(scenario)
        assert set(narrow) <= set(wide)
        assert (rankings[0].rid, 0) in with_self
        assert (rankings[0].rid, 0) not in wide
        assert service.metrics.batches == 1

    @pytest.mark.parametrize(
        "theta", [float("nan"), float("inf"), -0.1, 0.31]
    )
    def test_bad_theta_fails_alone(self, theta):
        rankings = _make_rankings(50)
        service = SearchService(_index(rankings), cache_size=0)

        async def scenario():
            return await asyncio.gather(
                service.search(rankings[0], THETA),
                service.search(rankings[1], theta),
                return_exceptions=True,
            )

        good, bad = run(scenario)
        assert isinstance(good, list)
        assert isinstance(bad, ValueError)
        assert "theta" in str(bad)

    def test_wrong_length_query_fails_alone(self):
        """One malformed request does not fail the batch it lands in."""
        rankings = _make_rankings(50)
        index = _index(rankings)
        service = SearchService(index)

        async def scenario():
            return await asyncio.gather(
                service.search(rankings[0], THETA),
                service.search(Ranking(-1, (1, 2, 3)), THETA),
                return_exceptions=True,
            )

        good, bad = run(scenario)
        assert good == [(r.rid, d) for r, d in index.query(rankings[0], THETA)]
        assert isinstance(bad, ValueError)
        assert "length 3" in str(bad)
        assert service.cache_len() == 1

    def test_tracer_records_request_batch_spans(self):
        rankings = _make_rankings(40)
        tracer = Tracer()
        service = SearchService(
            _index(rankings), cache_size=0, tracer=tracer
        )

        async def scenario():
            await asyncio.gather(
                *(service.search(r, THETA) for r in rankings[:8])
            )
            await service.search(rankings[9], THETA)

        run(scenario)
        spans = tracer.spans_of("request_batch")
        assert len(spans) == service.metrics.batches
        assert spans[0].args["requests"] == 8


class TestCache:
    def test_hit_after_repeat_query(self):
        rankings = _make_rankings(40)
        service = SearchService(_index(rankings))

        async def scenario():
            first = await service.search(rankings[1], THETA)
            second = await service.search(rankings[1], THETA)
            return first, second

        first, second = run(scenario)
        assert first == second
        assert service.metrics.cache_hits == 1
        assert service.metrics.cache_misses == 1

    def test_insert_invalidates_only_affected_entries(self):
        rankings = _make_rankings(40, seed=11)
        service = SearchService(_index(rankings))

        async def scenario():
            near = await service.search(rankings[2], THETA)
            # A probe sharing no items with ranking 2's neighborhood.
            far_probe = Ranking(900, tuple(range(100, 100 + K)))
            far = await service.search(far_probe, THETA)
            assert far == []
            # Duplicate of ranking 2 must evict its entry, not the far one.
            await service.insert(Ranking(500, rankings[2].items))
            assert service.metrics.invalidations >= 1
            entries_after = service.cache_len()
            refreshed = await service.search(rankings[2], THETA)
            assert (500, 0) in refreshed
            assert refreshed != near
            still_far = await service.search(far_probe, THETA)
            assert still_far == []
            return entries_after

        run(scenario)
        # The far entry survived the insert: its second lookup was a hit.
        assert service.metrics.cache_hits >= 1

    def test_delete_invalidates_entries_containing_rid(self):
        rankings = _make_rankings(40, seed=2)
        # Guarantee ranking 0 has at least one neighbor: an exact twin.
        rankings.append(Ranking(40, rankings[0].items))
        service = SearchService(_index(rankings))

        async def scenario():
            before = await service.search(
                rankings[0], THETA, include_self=False
            )
            victim = before[0][0]
            await service.delete(victim)
            after = await service.search(rankings[0], THETA)
            assert all(rid != victim for rid, _d in after)
            assert service.metrics.invalidations >= 1

        run(scenario)

    def test_recanonicalization_keeps_cache(self):
        rankings = _make_rankings(40)
        service = SearchService(_index(rankings))

        async def scenario():
            first = await service.search(rankings[4], THETA)
            await service.recanonicalize()
            second = await service.search(rankings[4], THETA)
            assert second == first

        run(scenario)
        assert service.metrics.cache_hits == 1
        assert service.metrics.recanonicalizations == 1

    def test_lru_eviction_bounds_cache(self):
        rankings = _make_rankings(50)
        service = SearchService(_index(rankings), cache_size=5)

        async def scenario():
            for query in rankings[:20]:
                await service.search(query, THETA)

        run(scenario)
        assert service.cache_len() == 5


class TestConcurrencyStress:
    @pytest.mark.parametrize("kind", ("prefix", "coarse"))
    def test_no_stale_hit_under_interleaved_mutations(self, kind):
        rankings = _make_rankings(120, seed=7)
        initial, arrivals = rankings[:80], rankings[80:]
        index = _index(initial, kind=kind)
        service = SearchService(index, revalidate_cache=True)
        rng = random.Random(99)

        async def querier(queries):
            for query in queries:
                await service.search(query, THETA)
                if rng.random() < 0.3:
                    await asyncio.sleep(0)

        async def mutator():
            inserted = []
            for ranking in arrivals:
                await service.insert(ranking)
                inserted.append(ranking.rid)
                if len(inserted) % 7 == 0:
                    await service.delete(inserted.pop(0))
                if len(inserted) % 13 == 0:
                    await service.recanonicalize()
                await asyncio.sleep(0)

        async def scenario():
            probes = [rng.choice(initial) for _ in range(60)]
            await asyncio.gather(
                querier(probes[:20]),
                querier(probes[20:40]),
                querier(probes[40:]),
                mutator(),
            )

        run(scenario)
        assert service.metrics.stale_hits == 0
        assert service.metrics.requests == 60
        assert service.metrics.inserts == len(arrivals)
        # Coalescing actually happened under concurrency.
        assert service.metrics.batching_factor > 1.0

    def test_batched_equals_fresh_index_after_settling(self):
        """After the storm, answers match brute force over the survivors."""
        rankings = _make_rankings(100, seed=13)
        index = _index(rankings[:70])
        service = SearchService(index, revalidate_cache=True)

        async def scenario():
            await asyncio.gather(
                *(service.search(r, THETA) for r in rankings[:30]),
                *(service.insert(r) for r in rankings[70:]),
            )
            survivors = index.rankings()
            checks = await asyncio.gather(
                *(service.search(r, THETA) for r in rankings[:30])
            )
            for query, got in zip(rankings[:30], checks):
                want = [
                    (r.rid, d)
                    for r, d in range_search_bruteforce(
                        survivors, query, THETA
                    )
                    if r.rid != query.rid
                ]
                assert got == want

        run(scenario)
        assert service.metrics.stale_hits == 0


class TestTcpServer:
    def test_line_protocol_roundtrip(self):
        import json

        rankings = _make_rankings(30, seed=21)
        service = SearchService(_index(rankings))

        async def scenario():
            from repro.serving import serve_tcp

            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def call(request):
                writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            reply = await call(
                {"op": "query", "items": list(rankings[0].items),
                 "theta": THETA, "include_self": True}
            )
            assert [rankings[0].rid, 0] in reply["results"]
            assert (await call(
                {"op": "insert", "rid": 555,
                 "items": list(rankings[0].items)}
            ))["ok"]
            reply = await call(
                {"op": "query", "items": list(rankings[0].items),
                 "theta": THETA, "include_self": True}
            )
            assert [555, 0] in reply["results"]
            assert (await call({"op": "delete", "rid": 555}))["ok"]
            stats = await call({"op": "stats"})
            assert stats["indexed"] == 30
            assert stats["requests"] >= 2
            error = await call({"op": "bogus"})
            assert "error" in error
            writer.close()
            server.close()
            await server.wait_closed()

        run(scenario)


class TestTcpRobustness:
    """A bad peer ends its own connection only; the server keeps serving."""

    def _serve(self, scenario):
        import json

        from repro.serving import serve_tcp

        rankings = _make_rankings(30, seed=21)
        service = SearchService(_index(rankings))
        query_line = (json.dumps(
            {"op": "query", "items": list(rankings[0].items),
             "theta": THETA, "include_self": True}
        ) + "\n").encode()

        async def main():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                await scenario(port, query_line)
                # Let every connection handler finish before judging.
                async with asyncio.timeout(5):
                    while len(asyncio.all_tasks()) > 1:
                        await asyncio.sleep(0.01)
                # A fresh connection is still answered.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(query_line)
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert [rankings[0].rid, 0] in reply["results"]
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            assert errors == []

        run(main)

    def test_oversized_line_gets_error_reply_and_clean_close(self):
        import json

        from repro.serving.service import MAX_REQUEST_BYTES

        async def scenario(port, _query_line):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "query", "items": [' + b"1, " * 47_000
                         + b'1], "theta": 0.1}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert str(MAX_REQUEST_BYTES) in reply["error"]
            assert await reader.read() == b""  # FIN, not a reset
            writer.close()
            await writer.wait_closed()

        self._serve(scenario)

    def test_peer_reset_mid_exchange_is_a_normal_disconnect(self):
        async def scenario(port, query_line):
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(query_line * 50)
            await writer.drain()
            writer.transport.abort()  # RST while replies are in flight

        self._serve(scenario)
