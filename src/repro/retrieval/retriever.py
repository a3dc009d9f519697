"""ANN-style candidate serving from the streaming VQ index.

The read path is four batched hops, all through the serving-hardened
client (so hedged reads, per-shard degradation, and deadlines apply);
each hop is one ``multi_get``, i.e. one read frame per server process:

1. the user — recent items, consumed history and the index's centroid
   set (``vq:meta``) with its write version together: none of the
   three depends on another;
2. vectors — the recent items' embedding rows (normalized mean = the
   query vector), plus every live centroid's vector unless the
   retriever's :class:`Codebook` is at the version hop 1 read;
3. probe — rank centroids by dot product against the query, take the
   top ``probe_width`` and fetch their posting lists;
4. re-rank — fetch the candidate rows hop 2 did not already bring and
   score by dot product, dropping already-consumed items.

Four is the dependency floor of this key layout: which rows to fetch
depends on the postings, which postings on the probe, the probe on the
query vector and the centroids, and those on the user's keys and the
meta object. What a warm query no longer reads is the codebook. The
index's single writer advances the write version of ``vq:meta`` after
every op's codebook writes (:mod:`repro.retrieval.vq`), so the
centroid vectors are read once per version and kept client-side. The
version is read before the vectors and bumped after them. So a
codebook may hold vectors newer than its version says, never older,
and the next version read replaces it. It is filled only from a clean
read (nothing degraded or hedged), because a replica may lag.

A cold index (no centroids yet, or no embedded recent items for this
user) raises :class:`~repro.errors.ColdIndexError`; the front end
counts it and degrades to CF, so retrieval never blocks a serve. A
*degraded* user-side key is not an empty one: when the client could not
reach ``recent``/``history``/``vq:meta`` the store failure is raised
(same fallback), never served as "no history to exclude".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ColdIndexError, ConfigurationError, DataServerDownError
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.types import RetrievalAnswer, RetrievalStats
from repro.tdstore.client import TDStoreClient
from repro.tdstore.engines import VERSION_PREFIX
from repro.topology.state import StateKeys
from repro.types import Recommendation


@dataclass(frozen=True)
class RetrieverConfig:
    """Read-path knobs. ``probe_width`` is the recall/latency dial the
    bench sweeps; ``recent_k`` bounds the query-vector read."""

    probe_width: int = 4
    recent_k: int = 5
    exclude_consumed: bool = True

    def __post_init__(self):
        if self.probe_width <= 0:
            raise ConfigurationError(
                f"probe_width must be positive: {self.probe_width}"
            )


def _ranked(query: np.ndarray, vecs: dict) -> list:
    """``(-score, id)`` ascending over ``vecs`` (id -> vector): best dot
    product first, ids break ties. One row-wise C call; ``vecdot`` runs
    the same per-row dot kernel as ``np.dot`` on each row, so scores
    match it bit for bit (a ``rows @ query`` matvec does not)."""
    if not vecs:
        return []
    rows = np.asarray(list(vecs.values()), dtype=np.float64)
    return sorted(zip((-np.vecdot(rows, query)).tolist(), vecs))


_META_VERSION = VERSION_PREFIX + K.meta()


@dataclass(frozen=True)
class Codebook:
    """The index's centroids at one write version of ``vq:meta``.

    ``cids`` is the sorted live centroid set, ``ids`` those of them
    whose vector was readable, ``matrix`` their vectors as float64
    rows in ``ids`` order. Version 0 is an index that never published
    one; such a codebook is used once and never kept.
    """

    version: int
    cids: tuple
    ids: tuple
    matrix: np.ndarray

    @classmethod
    def read(cls, version: int, cids: list, fetched: dict) -> "Codebook":
        """Assemble from a hop that read ``vqcent:`` keys into ``fetched``."""
        ids, vecs = [], []
        for cid in cids:
            vec = fetched.get(K.centroid(cid))
            if vec is not None:
                ids.append(cid)
                vecs.append(vec)
        return cls(version, tuple(cids), tuple(ids),
                   np.asarray(vecs, dtype=np.float64))

    def probe(self, query: np.ndarray, width: int) -> list:
        """The ``width`` centroids nearest ``query``, as :func:`_ranked`
        orders them (the same ``vecdot`` kernel, so the same scores)."""
        if not self.ids:
            return []
        scores = (-np.vecdot(self.matrix, query)).tolist()
        return [cid for __, cid in sorted(zip(scores, self.ids))[:width]]


class VQRetriever:
    """Nearest-centroid probe → posting lists → dot-product re-rank."""

    def __init__(
        self,
        client: TDStoreClient,
        config: RetrieverConfig | None = None,
    ):
        self._store = client
        self.cfg = config if config is not None else RetrieverConfig()
        self.stats = RetrievalStats()
        # the last codebook read cleanly at a published version
        self.codebook: Codebook | None = None

    def _read_all(self, keys: list, versions=()) -> dict:
        """``multi_get`` for keys whose absence changes the answer's
        meaning: a degraded one raises instead of reading as empty."""
        got = self._store.multi_get(keys, versions=versions)
        lost = self._store.last_failed_keys
        if lost:
            raise DataServerDownError(
                f"VQ read path could not reach {sorted(lost)}"
            )
        return got

    # -- query vector -------------------------------------------------------

    def _recent_items(self, user_id: str, recent) -> list:
        items = [item for item, __, __t in (recent or [])[: self.cfg.recent_k]]
        if not items:
            raise ColdIndexError(
                f"user {user_id!r} has no recent items", reason="no_recent"
            )
        return items

    @staticmethod
    def _mean_query(user_id: str, rows) -> np.ndarray:
        vecs = [
            np.asarray(row["vec"], dtype=np.float64)
            for row in rows
            if row is not None
        ]
        if not vecs:
            raise ColdIndexError(
                f"no embedded recent items for user {user_id!r}",
                reason="unembedded_user",
            )
        mean = np.mean(vecs, axis=0)
        norm = float(np.linalg.norm(mean))
        if norm <= 0.0:
            raise ColdIndexError(
                f"degenerate query vector for user {user_id!r}",
                reason="degenerate_query",
            )
        return mean / norm

    def query_vector(self, user_id: str) -> np.ndarray:
        """Normalized mean of the user's recent items' embedding rows."""
        key = StateKeys.recent(user_id)
        items = self._recent_items(user_id, self._read_all([key])[key])
        rows = self._store.multi_get([K.embedding(i) for i in items])
        return self._mean_query(user_id, rows.values())

    # -- the codebook ---------------------------------------------------------

    def _index(self, root: dict, hedged: int, rows=()) -> "tuple[Codebook, dict]":
        """Hop 2: read ``rows``, and the centroid vectors unless the
        codebook is at the version ``root`` (hop 1) carries.

        ``hedged`` is the client's hedged-read count before hop 1: a
        codebook read through a hedge, or with a key degraded, serves
        this query but is not kept.
        """
        version = root[_META_VERSION]
        book = self.codebook
        if version and book is not None and book.version == version:
            return book, self._store.multi_get(rows)
        cids = sorted(root[K.meta()] or {})
        fetched = self._store.multi_get([*rows, *map(K.centroid, cids)])
        book = Codebook.read(version, cids, fetched)
        if (
            version
            and not self._store.last_failed_keys
            and self._store.hedged_reads == hedged
        ):
            self.codebook = book
        return book, fetched

    # -- the probe ----------------------------------------------------------

    def retrieve(
        self,
        query: np.ndarray,
        n: int,
        exclude: set[str] | None = None,
        *,
        index: "tuple[Codebook, dict] | None" = None,
    ) -> RetrievalAnswer:
        """Serve candidates for an explicit query vector.

        ``index`` is :meth:`recommend` handing over the codebook and
        what its hop 2 read (the recent items' rows), so only hops 3
        and 4 remain here; without it ``vq:meta`` and its version are
        read first, and the centroid vectors too on a codebook miss.
        The rows hop 4 brings are added to that dict.
        """
        self.stats.queries += 1
        if index is None:
            hedged = self._store.hedged_reads
            root = self._read_all([K.meta()], versions=(K.meta(),))
            index = self._index(root, hedged)
        book, fetched = index
        exclude = exclude or set()
        if not book.cids:
            self.stats.cold_misses += 1
            raise ColdIndexError("VQ index has no centroids yet")
        probed = book.probe(query, self.cfg.probe_width)
        if not probed:
            self.stats.cold_misses += 1
            raise ColdIndexError("no centroid vectors readable")
        self.stats.probes += len(probed)
        postings = self._store.multi_get([K.posting(c) for c in probed])
        candidates = sorted(
            {
                item
                for cid in probed
                for item in (postings.get(K.posting(cid)) or {})
                if item not in exclude
            }
        )
        if not candidates:
            self.stats.empty_answers += 1
            return RetrievalAnswer(probed_centroids=tuple(probed))
        fetched.update(
            self._store.multi_get(
                [
                    key for item in candidates
                    if (key := K.embedding(item)) not in fetched
                ]
            )
        )
        top = _ranked(
            query,
            {
                item: row["vec"] for item in candidates
                if (row := fetched.get(K.embedding(item))) is not None
            },
        )
        self.stats.candidates_scored += len(top)
        del top[n:]
        return RetrievalAnswer(
            items=tuple(item for __, item in top),
            scores=tuple(-s for s, __ in top),
            probed_centroids=tuple(probed),
            candidates_seen=len(candidates),
        )

    def recommend(self, user_id: str, n: int, now: float) -> list[Recommendation]:
        """The engine-facing entry point: top-N for a user."""
        recent_key = StateKeys.recent(user_id)
        history_key = StateKeys.history(user_id)
        keys = [recent_key, K.meta()]
        if self.cfg.exclude_consumed:
            keys.append(history_key)
        hedged = self._store.hedged_reads
        user = self._read_all(keys, versions=(K.meta(),))
        items = self._recent_items(user_id, user[recent_key])
        row_keys = [K.embedding(i) for i in items]
        book, fetched = self._index(user, hedged, row_keys)
        query = self._mean_query(user_id, [fetched[k] for k in row_keys])
        answer = self.retrieve(
            query, n, set(user.get(history_key) or {}), index=(book, fetched)
        )
        return [
            Recommendation(item, score, source="vq")
            for item, score in zip(answer.items, answer.scores)
        ]


def brute_force_rank(
    client: TDStoreClient, query: np.ndarray, items, n: int,
    exclude: set[str] | None = None,
) -> list[str]:
    """Exact dot-product top-N over every row — the recall baseline.

    Probing every centroid with re-rank must converge to this ranking;
    the bench's recall@k measures how close narrow probes get.
    """
    exclude = exclude or set()
    rows = client.multi_get([K.embedding(i) for i in items])
    ranked = _ranked(
        query,
        {
            item: row["vec"] for item in items
            if item not in exclude
            and (row := rows.get(K.embedding(item))) is not None
        },
    )
    return [item for __, item in ranked[:n]]


class VQIndexProbe:
    """Read-only index health reader for :class:`SystemMonitor`.

    Stats the index maintains through the op journal (splits, merges,
    reassignments, indexed items) come back exactly even under chaos
    replays; structural figures (centroid count, posting-size p99) are
    recomputed from the live key set.
    """

    def __init__(self, client: TDStoreClient):
        self._store = client

    def stats(self) -> dict:
        """Two strict read frames: the centroid set, then every posting
        list with the journaled counters."""
        meta = self._store.gather([K.meta()])[0].get(K.meta()) or {}
        counters = ("indexed", "reassignments", "splits", "merges")
        got = self._store.gather(
            [*map(K.posting, sorted(meta)), *map(K.stat, counters)]
        )[0]
        sizes = sorted(len(got.get(K.posting(cid)) or {}) for cid in meta)
        p99 = sizes[min(len(sizes) - 1, int(len(sizes) * 0.99))] if sizes else 0
        return {
            "centroids": len(meta),
            "indexed_items": int(got.get(K.stat("indexed"), 0.0)),
            "reassignments": int(got.get(K.stat("reassignments"), 0.0)),
            "splits": int(got.get(K.stat("splits"), 0.0)),
            "merges": int(got.get(K.stat("merges"), 0.0)),
            "posting_p99": p99,
        }
