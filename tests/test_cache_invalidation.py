"""SearchService cache invalidation: posting maps vs the full-scan oracle.

The service keeps two posting maps next to its LRU — cached query
prefix item -> keys, and result rid -> keys — and invalidates from them
alone.  The oracle below is the full scan over every cached entry that
the maps replaced: on every insert and delete the set of evicted keys
must equal the oracle's, and after every step both maps must hold
exactly the live cache keys (nothing leaked by LRU eviction, replacement
or invalidation).

The state machine covers mixed ``theta <= theta_max``, ``include_self``
both ways, TCP-style ``rid = -1`` probes, inserted items absent from the
frozen frequency table, recycled rids, ``recanonicalize()`` mid-stream,
both index kinds, and ``theta_max = 1.0`` (where item-disjoint pairs
qualify and every entry is a candidate).
"""

import asyncio
import random

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.rankings import Ranking, RankingDataset
from repro.rankings.bounds import overlap_prefix_size, raw_threshold
from repro.rankings.distances import footrule
from repro.rankings.ordering import frequency_order_key
from repro.serving import SearchService, ShardedIndex

K = 5
#: The initial corpus draws from ``BASE_DOMAIN``; inserts may use items
#: beyond it, which the frozen frequency table has never seen.
BASE_DOMAIN = list(range(10))
DOMAIN = list(range(14))


def oracle_insert_stale(cache, ranking: Ranking, k: int) -> set:
    """Full scan: keys whose cached result must gain ``ranking``."""
    stale = set()
    for key, (_pairs, query, _prefix) in cache.items():
        _rid, _items, theta, include_self = key
        if not include_self and ranking.rid == query.rid:
            continue
        if footrule(query, ranking) <= raw_threshold(theta, k):
            stale.add(key)
    return stale


def oracle_delete_stale(cache, rid) -> set:
    """Full scan: keys whose cached result holds ``rid``."""
    return {
        key
        for key, (pairs, _query, _prefix) in cache.items()
        if rid in {r for r, _distance in pairs}
    }


def expected_maps(service, frequencies) -> tuple:
    """Both posting maps rebuilt from the live cache alone."""
    k = service.index.k
    size = overlap_prefix_size(raw_threshold(service.index.theta_max, k), k)
    order = frequency_order_key(frequencies)
    by_item: dict = {}
    by_result: dict = {}
    for key, (pairs, query, _prefix) in service._cache.items():
        for item in sorted(query.items, key=order)[:size]:
            by_item.setdefault(item, set()).add(key)
        for rid, _distance in pairs:
            by_result.setdefault(rid, set()).add(key)
    return by_item, by_result


def _items(domain):
    return st.permutations(domain).map(lambda p: tuple(p[:K]))


class CacheInvalidationMachine(RuleBasedStateMachine):
    kind = "prefix"
    theta_max = 0.3

    @initialize(
        corpus=st.lists(_items(BASE_DOMAIN), min_size=1, max_size=12),
        num_shards=st.integers(min_value=1, max_value=3),
        cache_size=st.integers(min_value=1, max_value=8),
    )
    def setup(self, corpus, num_shards, cache_size):
        self.loop = asyncio.new_event_loop()
        rankings = [Ranking(i, items) for i, items in enumerate(corpus)]
        self.index = ShardedIndex(
            RankingDataset(rankings),
            kind=self.kind,
            num_shards=num_shards,
            theta_max=self.theta_max,
            theta_c=min(0.03, self.theta_max),
        )
        self.frozen = self.index.frozen_frequencies
        self.service = SearchService(self.index, cache_size=cache_size)
        self.live = set(range(len(corpus)))
        self.deleted: list = []
        self.next_rid = len(corpus)

    def teardown(self):
        loop = getattr(self, "loop", None)
        if loop is not None:
            loop.close()

    def run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    @rule(
        theta=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 1.0]),
        include_self=st.booleans(),
        probe=_items(DOMAIN),
        shape=st.sampled_from(("resident", "tcp", "foreign")),
        data=st.data(),
    )
    def search(self, theta, include_self, probe, shape, data):
        theta = min(theta, self.theta_max)
        if shape == "resident" and self.live:
            rid = data.draw(st.sampled_from(sorted(self.live)))
            query = next(r for r in self.index.rankings() if r.rid == rid)
        elif shape == "tcp":
            query = Ranking(-1, probe)
        else:
            query = Ranking(10_000 + self.next_rid, probe)
        self.run(self.service.search(query, theta, include_self))

    @rule(items=_items(DOMAIN), recycle=st.booleans())
    def insert(self, items, recycle):
        if recycle and self.deleted:
            rid = self.deleted.pop()
        else:
            rid = self.fresh_rid()
        self.check_insert(Ranking(rid, items))

    @precondition(lambda self: self.service._cache)
    @rule(data=st.data(), same_rid=st.booleans())
    def insert_twin_of_cached_query(self, data, same_rid):
        """A twin is within every theta of its query; under the query's
        own rid it belongs only in the entries with ``include_self``."""
        key = data.draw(st.sampled_from(sorted(self.service._cache, key=repr)))
        rid, items = key[0], key[1]
        if not same_rid or rid < 0 or rid in self.live:
            rid = self.fresh_rid()
        elif rid in self.deleted:
            self.deleted.remove(rid)
        self.check_insert(Ranking(rid, items))

    def fresh_rid(self) -> int:
        self.next_rid += 1
        return self.next_rid - 1

    def check_insert(self, ranking):
        before = dict(self.service._cache)
        want = oracle_insert_stale(before, ranking, K)
        self.run(self.service.insert(ranking))
        self.live.add(ranking.rid)
        assert set(before) - set(self.service._cache) == want

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        rid = data.draw(st.sampled_from(sorted(self.live)))
        before = dict(self.service._cache)
        want = oracle_delete_stale(before, rid)
        self.run(self.service.delete(rid))
        self.live.discard(rid)
        self.deleted.append(rid)
        assert set(before) - set(self.service._cache) == want

    @rule()
    def recanonicalize(self):
        before = set(self.service._cache)
        self.run(self.service.recanonicalize())
        assert set(self.service._cache) == before

    @invariant()
    def maps_hold_exactly_the_live_keys(self):
        if not hasattr(self, "service"):
            return
        service = self.service
        assert len(service._cache) <= service.cache_size
        by_item, by_result = expected_maps(service, self.frozen)
        assert service._keys_by_item == by_item
        assert service._keys_by_result == by_result
        listed = set().union(*service._keys_by_item.values())
        assert listed == set(service._cache)


class PrefixMachine(CacheInvalidationMachine):
    kind, theta_max = "prefix", 0.3


class CoarseMachine(CacheInvalidationMachine):
    kind, theta_max = "coarse", 0.3


class PrefixThetaOneMachine(CacheInvalidationMachine):
    kind, theta_max = "prefix", 1.0


class CoarseThetaOneMachine(CacheInvalidationMachine):
    kind, theta_max = "coarse", 1.0


_settings = settings(max_examples=25, stateful_step_count=40, deadline=None)

TestPrefix = PrefixMachine.TestCase
TestPrefix.settings = _settings
TestCoarse = CoarseMachine.TestCase
TestCoarse.settings = _settings
TestPrefixThetaOne = PrefixThetaOneMachine.TestCase
TestPrefixThetaOne.settings = _settings
TestCoarseThetaOne = CoarseThetaOneMachine.TestCase
TestCoarseThetaOne.settings = _settings


def _service(n=400, cache_size=256, theta_max=0.1, seed=4):
    rng = random.Random(seed)
    rankings = [
        Ranking(i, tuple(rng.sample(range(2000), 10))) for i in range(n)
    ]
    index = ShardedIndex(
        RankingDataset(rankings), num_shards=2, theta_max=theta_max
    )
    return rankings, SearchService(index, cache_size=cache_size)


def test_far_insert_tests_no_entry_and_counts_it():
    """An insert sharing no item with any cached query tests nothing."""
    rankings, service = _service()

    async def scenario():
        for query in rankings[:200]:
            await service.search(query, 0.05)
        await service.insert(Ranking(9_999, tuple(range(5000, 5010))))
        assert service.metrics.invalidation_candidates == 0
        await service.insert(Ranking(10_000, rankings[3].items))
        await service.delete(10_000)

    asyncio.run(scenario())
    metrics = service.metrics
    assert service.cache_len() == 199
    # The twin of ranking 3 evicts that entry; its delete finds nothing
    # cached (the entry is gone), so only the insert tested candidates.
    assert metrics.invalidations == 1
    assert 1 <= metrics.invalidation_candidates < 200
    assert metrics.invalidation_seconds > 0.0
    snapshot = service.stats_snapshot()
    assert snapshot["invalidation_candidates"] == (
        metrics.invalidation_candidates
    )
    assert snapshot["invalidation_seconds"] == metrics.invalidation_seconds


def test_theta_max_one_tests_every_entry():
    rankings, service = _service(n=60, theta_max=1.0)

    async def scenario():
        for query in rankings[:20]:
            await service.search(query, 0.05)
        await service.insert(Ranking(9_999, tuple(range(5000, 5010))))

    asyncio.run(scenario())
    assert service.metrics.invalidation_candidates == 20
