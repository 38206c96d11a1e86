"""Mutable sharded range-search index — the serving layer's data plane.

A :class:`ShardedIndex` wraps ``num_shards`` mutable range indexes
(:class:`~repro.search.prefix_index.PrefixIndex` or
:class:`~repro.search.coarse_index.CoarseIndex`) behind one
insert/delete/query surface:

* **routing** — a ranking lives on shard ``rid % num_shards``; queries
  fan out to every shard and merge by ``(distance, rid)``.  Because each
  shard is exact over its residents, the merged answer is exact over the
  whole corpus for any interleaving of mutations and queries.
* **frozen canonical order** — all shards share one frequency snapshot
  (materialized as an :class:`~repro.rankings.encoding.ItemEncoder`
  dictionary), so insert-side and query-side prefixes always agree.
  Live frequencies are tracked alongside; :meth:`ShardedIndex.drift`
  measures how far the frozen dictionary has fallen behind
  (:meth:`~repro.rankings.encoding.ItemEncoder.drift_from`).
* **re-canonicalization** — :meth:`recanonicalize` refreezes the
  dictionary at the live frequencies and rebuilds the shards *one at a
  time* (:meth:`recanonicalize_steps` yields between shards), so a
  service keeps answering queries mid-rebuild; shards still on the old
  order and shards already on the new one are each internally
  consistent, hence still exact.  With ``drift_threshold`` set, every
  ``drift_check_every``-th mutation checks the drift score and triggers
  a rebuild automatically.

One :class:`~repro.joins.types.JoinStats` object is owned by the sharded
index and shared by every shard (and survives rebuilds), so the filter
funnel of the whole serving lifetime stays observable.
"""

from __future__ import annotations

from ..joins.types import JoinStats
from ..rankings.dataset import RankingDataset
from ..rankings.encoding import ItemEncoder
from ..rankings.ordering import item_frequencies
from ..rankings.ranking import Ranking
from ..search.coarse_index import CoarseIndex
from ..search.prefix_index import PrefixIndex, knn_search

INDEX_KINDS = ("prefix", "coarse")


class ShardedIndex:
    """N-shard mutable range-search index over top-k rankings.

    Parameters
    ----------
    dataset:
        Initial corpus (optional).  Each shard is batch-built from its
        residents; later arrivals go through the incremental path.
    kind:
        ``"prefix"`` (pure inverted index) or ``"coarse"``
        (cluster-pruned) shards.
    num_shards:
        Shard count; rankings route by ``rid % num_shards``.
    theta_max, theta_c, use_position_filter, kernel:
        Passed through to every shard (``theta_c`` only for coarse).
    drift_threshold:
        Auto-recanonicalize when the drift score exceeds this value
        (``None`` disables the automatic trigger; :meth:`recanonicalize`
        stays available).
    drift_check_every:
        Mutations between drift evaluations (drift is O(dictionary), so
        it is not computed on every insert).
    """

    def __init__(
        self,
        dataset: RankingDataset | None = None,
        *,
        kind: str = "prefix",
        num_shards: int = 4,
        theta_max: float = 0.4,
        theta_c: float = 0.03,
        use_position_filter: bool = True,
        kernel: str = "vectorized",
        k: int | None = None,
        drift_threshold: float | None = None,
        drift_check_every: int = 64,
    ):
        if kind not in INDEX_KINDS:
            raise ValueError(
                f"unknown index kind {kind!r}; choose from {INDEX_KINDS}"
            )
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        rankings = list(dataset) if dataset is not None else []
        self.kind = kind
        self.num_shards = num_shards
        self.theta_max = theta_max
        self.theta_c = theta_c
        self.use_position_filter = use_position_filter
        self.kernel = kernel
        self.k = rankings[0].k if rankings else k
        self.stats = JoinStats()
        self._live_frequencies = item_frequencies(rankings)
        self._frozen_frequencies = dict(self._live_frequencies)
        self.encoder = ItemEncoder(self._frozen_frequencies)
        self.recanonicalizations = 0
        self.mutations_since_recanonicalize = 0
        self._mutations_since_drift_check = 0
        self.drift_threshold = drift_threshold
        self.drift_check_every = drift_check_every
        routed: list = [[] for _ in range(num_shards)]
        for ranking in rankings:
            routed[self.shard_of(ranking.rid)].append(ranking)
        self._shards = [self._build_shard(residents) for residents in routed]

    def _build_shard(self, residents: list):
        """Build one shard over ``residents`` under the frozen order."""
        dataset = RankingDataset(residents) if residents else None
        if self.kind == "prefix":
            return PrefixIndex(
                dataset,
                theta_max=self.theta_max,
                use_position_filter=self.use_position_filter,
                k=self.k,
                frequencies=self._frozen_frequencies,
                kernel=self.kernel,
                stats=self.stats,
            )
        return CoarseIndex(
            dataset,
            theta_max=self.theta_max,
            theta_c=self.theta_c,
            k=self.k,
            frequencies=self._frozen_frequencies,
            kernel=self.kernel,
            stats=self.stats,
        )

    # ------------------------------------------------------------- surface

    def shard_of(self, rid: int) -> int:
        """Deterministic rid -> shard routing."""
        return rid % self.num_shards

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, rid) -> bool:
        return rid in self._shards[self.shard_of(rid)]

    @property
    def frozen_frequencies(self) -> dict:
        """The frequency table behind the current canonical order.

        Read-only by contract: a recanonicalization binds a new table and
        never mutates this one, so a caller may hold it by reference as a
        fixed total order (the service's cache invalidation does).
        """
        return self._frozen_frequencies

    def rankings(self) -> list:
        """Every indexed ranking (shard-major, insertion order within)."""
        collected: list = []
        for shard in self._shards:
            collected.extend(shard.rankings())
        return collected

    def insert(self, ranking: Ranking) -> None:
        """Route one new ranking to its shard and track frequencies."""
        if self.k is None:
            self.k = ranking.k
        self._shards[self.shard_of(ranking.rid)].insert(ranking)
        frequencies = self._live_frequencies
        for item in ranking.items:
            frequencies[item] = frequencies.get(item, 0) + 1
        self._note_mutation()

    def delete(self, rid) -> Ranking:
        """Remove the ranking with id ``rid``; returns it."""
        ranking = self._shards[self.shard_of(rid)].delete(rid)
        frequencies = self._live_frequencies
        for item in ranking.items:
            remaining = frequencies[item] - 1
            if remaining:
                frequencies[item] = remaining
            else:
                del frequencies[item]
        self._note_mutation()
        return ranking

    def query(
        self, query: Ranking, theta: float, include_self: bool = False
    ) -> list:
        """All indexed rankings within ``theta``; ``(ranking, distance)``
        pairs merged across shards, sorted by ``(distance, rid)``."""
        merged: list = []
        for shard in self._shards:
            merged.extend(shard.query(query, theta, include_self))
        merged.sort(key=lambda pair: (pair[1], pair[0].rid))
        return merged

    def query_batch(
        self, queries: list, theta: float, include_self: bool = False
    ) -> list:
        """Answer many queries with one kernel call per shard.

        Returns one merged, sorted result list per query — identical to
        calling :meth:`query` on each query alone.
        """
        merged: list = [[] for _ in queries]
        for shard in self._shards:
            for row, results in enumerate(
                shard.query_batch(queries, theta, include_self)
            ):
                merged[row].extend(results)
        for results in merged:
            results.sort(key=lambda pair: (pair[1], pair[0].rid))
        return merged

    def knn(self, query: Ranking, n: int, initial_theta: float = 0.05):
        """The ``n`` most similar indexed rankings (radius doubling)."""
        return knn_search(self, query, n, initial_theta)

    # ----------------------------------------------- drift & recanonization

    def drift(self) -> dict:
        """Drift of the live frequency order from the frozen dictionary."""
        return ItemEncoder(self._live_frequencies).drift_from(self.encoder)

    def _note_mutation(self) -> None:
        self.mutations_since_recanonicalize += 1
        self._mutations_since_drift_check += 1
        if (
            self.drift_threshold is not None
            and self._mutations_since_drift_check >= self.drift_check_every
        ):
            self._mutations_since_drift_check = 0
            if self.drift()["score"] > self.drift_threshold:
                self.recanonicalize()

    def recanonicalize_steps(self):
        """Refreeze the dictionary and rebuild shards one at a time.

        A generator: after each yielded shard id the index is fully
        queryable (rebuilt shards run on the new frozen order, pending
        ones on the old — each shard is internally consistent, so merged
        answers stay exact mid-rebuild).  Driving it to exhaustion is
        :meth:`recanonicalize`.
        """
        self._frozen_frequencies = dict(self._live_frequencies)
        self.encoder = ItemEncoder(self._frozen_frequencies)
        for shard_id in range(self.num_shards):
            residents = sorted(
                self._shards[shard_id].rankings(), key=lambda r: r.rid
            )
            self._shards[shard_id] = self._build_shard(residents)
            yield shard_id
        self.mutations_since_recanonicalize = 0
        self._mutations_since_drift_check = 0
        self.recanonicalizations += 1

    def recanonicalize(self) -> dict:
        """Rebuild every shard under a fresh frequency snapshot."""
        for _shard_id in self.recanonicalize_steps():
            pass
        return self.drift()
