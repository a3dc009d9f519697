"""Query-time recommendation from TDStore state (Figure 9).

The engine owns no model: it reads the state the topologies maintain —
similar-items lists, recent-item filters, demographic hot lists, CB
profiles, AR rules, CTR values — and assembles answers per query. This
is exactly the paper's split: TDProcess computes, TDStore holds, the
engine serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.algorithms.ctr import BACKOFF_LEVELS, situation_key
from repro.algorithms.demographic import GLOBAL_GROUP
from repro.retrieval.retriever import RetrieverConfig, VQRetriever
from repro.tdstore.client import TDStoreClient
from repro.topology.bolts_cb import item_tags
from repro.topology.bolts_ctr import profile_attributes
from repro.topology.state import StateKeys
from repro.types import Recommendation, UserProfile

ProfileLookup = Callable[[str], "UserProfile | None"]


@dataclass
class EngineConfig:
    """Per-application query configuration."""

    group_of: Callable[[str], str] | None = None
    min_similarity: float = 0.0
    complement_with_db: bool = True
    prior_ctr: float = 0.02
    vq: RetrieverConfig | None = None


@dataclass
class CFAnswer:
    """One user's answer from the batched CF path, with the state keys it
    was computed from — the serving layer registers those as cache tags
    so stream updates touching them invalidate the cached result."""

    results: list[Recommendation]
    dep_items: tuple[str, ...]
    dep_groups: tuple[str, ...]


class RecommenderEngine:
    """Answers top-N queries from TDStore state."""

    def __init__(
        self,
        client: TDStoreClient,
        config: EngineConfig | None = None,
    ):
        self._store = client
        self._config = config if config is not None else EngineConfig()
        self._vq: VQRetriever | None = None

    @property
    def store(self) -> TDStoreClient:
        """The TDStore client queries read through (the serving front end
        scopes per-query deadlines onto it)."""
        return self._store

    # -- item-based CF (Eq 2 + Section 4.3) ---------------------------------

    def recommend_cf(self, user_id: str, n: int, now: float) -> list[Recommendation]:
        recent = self._store.get(StateKeys.recent(user_id), None) or []
        history = self._store.get(StateKeys.history(user_id), None) or {}
        consumed = set(history)
        results = self._score_cf(
            recent,
            consumed,
            lambda item: self._store.get(StateKeys.sim_list(item), None),
            n,
        )
        if len(results) < n and self._config.complement_with_db:
            results = self._complement(
                user_id, n, results, consumed,
                lambda count: self.hot_items_for(user_id, count, now),
            )
        return results

    def _score_cf(
        self,
        recent,
        consumed: set[str],
        sim_lookup: Callable[[str], "dict | None"],
        n: int,
    ) -> list[Recommendation]:
        """Equation 2 scoring, shared by the per-key and batched paths so
        the two can never diverge. One native sort of negated tuples ranks
        (score desc, support desc, item asc); negation is exact, so every
        score is its quotient bit for bit."""
        min_similarity = self._config.min_similarity
        numerator: dict[str, float] = {}
        denominator: dict[str, float] = {}
        numerator_get, denominator_get = numerator.get, denominator.get
        for item, rating, __ in recent:
            sim_list = sim_lookup(item)
            if not sim_list:
                continue
            for candidate, similarity in sim_list.items():
                # `<=` lets NaN through; its NaN support fails `> 0.0` below
                if candidate in consumed or similarity <= min_similarity:
                    continue
                numerator[candidate] = (
                    numerator_get(candidate, 0.0) + similarity * rating
                )
                denominator[candidate] = (
                    denominator_get(candidate, 0.0) + similarity
                )
        scored = [
            (-(total / support), -support, candidate)
            for candidate, total in numerator.items()
            if (support := denominator[candidate]) > 0.0
        ]
        scored.sort()
        del scored[n:]
        return [
            Recommendation(item, -negated, "cf") for negated, __, item in scored
        ]

    def _complement(
        self,
        user_id: str,
        n: int,
        results: list[Recommendation],
        consumed: set[str],
        hot_items: Callable[[int], "list[tuple[str, float]]"],
    ) -> list[Recommendation]:
        have = {r.item_id for r in results} | consumed
        for item, score in hot_items(n * 2 + len(have)):
            if item in have:
                continue
            results.append(Recommendation(item, score, source="db"))
            have.add(item)
            if len(results) >= n:
                break
        return results

    # -- batched CF (serving layer) ----------------------------------------

    def recommend_cf_batch(
        self,
        user_ids,
        n: int,
        now: float,
        hot_lists: "dict[str, dict] | None" = None,
    ) -> dict[str, CFAnswer]:
        """Answer many CF queries from three batched reads.

        One :meth:`~repro.tdstore.client.TDStoreClient.multi_get` fetches
        every user's recent/history pair, a second fetches the sim lists
        of every recent item across the whole batch, and (when the
        complement is on) a third fetches the hot lists of every group
        the batch touches — instead of the per-key path's
        ``2 + R + G`` store round-trips *per user*.

        ``hot_lists`` is in/out: groups already present are not fetched
        (the serving layer's hot tier injects them), and groups this
        call does fetch are added to the dict so the caller can cache
        them. Scoring is shared with :meth:`recommend_cf`, so a batched
        answer is identical to the per-key answer over the same state.
        """
        user_ids = list(dict.fromkeys(user_ids))
        user_keys = [StateKeys.recent(u) for u in user_ids]
        user_keys += [StateKeys.history(u) for u in user_ids]
        snapshot = self._store.multi_get(user_keys)
        recents = {
            u: snapshot.get(StateKeys.recent(u)) or [] for u in user_ids
        }
        consumed = {
            u: set(snapshot.get(StateKeys.history(u)) or {}) for u in user_ids
        }
        batch_items: list[str] = []
        seen_items: set[str] = set()
        for u in user_ids:
            for item, __, __unused in recents[u]:
                if item not in seen_items:
                    seen_items.add(item)
                    batch_items.append(item)
        sim_lists = (
            self._store.multi_get(
                [StateKeys.sim_list(item) for item in batch_items]
            )
            if batch_items
            else {}
        )
        hot_by_group: dict[str, dict] = (
            hot_lists if hot_lists is not None else {}
        )
        if self._config.complement_with_db:
            groups_needed: list[str] = []
            for u in user_ids:
                for group in self._groups_for(u):
                    if group not in hot_by_group and group not in groups_needed:
                        groups_needed.append(group)
            if groups_needed:
                fetched = self._store.multi_get(
                    [StateKeys.hot(g) for g in groups_needed]
                )
                for group in groups_needed:
                    hot_by_group[group] = fetched.get(StateKeys.hot(group)) or {}
        answers: dict[str, CFAnswer] = {}
        for u in user_ids:
            results = self._score_cf(
                recents[u],
                consumed[u],
                lambda item: sim_lists.get(StateKeys.sim_list(item)),
                n,
            )
            dep_groups: tuple[str, ...] = ()
            if len(results) < n and self._config.complement_with_db:
                groups = self._groups_for(u)
                results = self._complement(
                    u, n, results, consumed[u],
                    lambda count, groups=groups: self._merge_hot(
                        groups, lambda g: hot_by_group.get(g) or {}, count
                    ),
                )
                dep_groups = tuple(groups)
            answers[u] = CFAnswer(
                results=results,
                dep_items=tuple(item for item, __, __u in recents[u]),
                dep_groups=dep_groups,
            )
        return answers

    # -- demographic hot items ------------------------------------------------

    def _groups_for(self, user_id: str) -> list[str]:
        groups = [GLOBAL_GROUP]
        if self._config.group_of is not None:
            group = self._config.group_of(user_id)
            if group != GLOBAL_GROUP:
                groups.insert(0, group)
        return groups

    @staticmethod
    def _merge_hot(
        groups: list[str],
        lookup: Callable[[str], dict],
        n: int,
    ) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = []
        seen: set[str] = set()
        for group in groups:
            hot = lookup(group) or {}
            ranked = sorted(hot.items(), key=lambda kv: (-kv[1], kv[0]))
            for item, score in ranked:
                if item not in seen:
                    out.append((item, score))
                    seen.add(item)
                if len(out) >= n:
                    return out
        return out

    def hot_items_for(
        self, user_id: str, n: int, now: float
    ) -> list[tuple[str, float]]:
        return self._merge_hot(
            self._groups_for(user_id),
            lambda group: self._store.get(StateKeys.hot(group), None) or {},
            n,
        )

    # -- embedding retrieval (streaming VQ) ---------------------------------

    @property
    def vq_retriever(self) -> VQRetriever:
        """The lazily-built VQ candidate source (shares the engine's
        client, so query deadlines scope onto its reads too)."""
        if self._vq is None:
            self._vq = VQRetriever(self._store, self._config.vq)
        return self._vq

    def recommend_vq(
        self, user_id: str, n: int, now: float
    ) -> list[Recommendation]:
        """ANN-style candidates from the streaming VQ index.

        Raises :class:`~repro.errors.ColdIndexError` when the index (or
        this user's embedding view of it) cannot answer — the front
        end's cue to degrade to CF. No DB complement here: cold is a
        signal, not a gap to paper over.
        """
        return self.vq_retriever.recommend(user_id, n, now)

    # -- content-based ------------------------------------------------------------

    def recommend_cb(self, user_id: str, n: int, now: float) -> list[Recommendation]:
        profile = self._store.get(StateKeys.profile(user_id), None) or {}
        if not profile:
            return []
        live_weights = {tag: weight for tag, (weight, __) in profile.items()}
        norm = math.sqrt(sum(w * w for w in live_weights.values()))
        if norm <= 0.0:
            return []
        consumed = self._store.get(StateKeys.consumed(user_id), None) or set()
        scores: dict[str, float] = {}
        for tag, weight in live_weights.items():
            for item in self._store.get(StateKeys.tag_index(tag), None) or ():
                if item in consumed:
                    continue
                scores[item] = scores.get(item, 0.0) + weight
        ranked: list[tuple[float, str]] = []
        for item, dot in scores.items():
            meta = self._store.get(StateKeys.item_meta(item), None)
            if meta is None:
                continue
            lifetime = meta.get("lifetime")
            if lifetime is not None and now >= meta.get("publish_time", 0.0) + lifetime:
                continue
            item_norm = math.sqrt(max(1, len(item_tags(meta))))
            ranked.append((dot / (norm * item_norm), item))
        ranked.sort(key=lambda row: (-row[0], row[1]))
        return [
            Recommendation(item, score, source="cb")
            for score, item in ranked[:n]
        ]

    # -- association rules ------------------------------------------------------

    def recommend_ar(
        self,
        user_id: str,
        n: int,
        now: float,
        session_items: list[str],
        min_support: int = 2,
        min_confidence: float = 0.05,
    ) -> list[Recommendation]:
        best: dict[str, float] = {}
        in_session = set(session_items)
        for item in session_items:
            base = self._store.get(StateKeys.ar_item(item), 0.0)
            if base <= 0.0:
                continue
            partners = self._store.get(StateKeys.ar_partners(item), None) or ()
            for partner in partners:
                if partner in in_session:
                    continue
                joint = self._store.get(StateKeys.ar_pair(item, partner), 0.0)
                if joint < min_support:
                    continue
                confidence = joint / base
                if confidence >= min_confidence:
                    best[partner] = max(best.get(partner, 0.0), confidence)
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            Recommendation(item, conf, source="ar")
            for item, conf in ranked[:n]
        ]

    # -- situational CTR ------------------------------------------------------------

    def rank_by_ctr(
        self,
        user_id: str,
        candidates: list[str],
        n: int,
        profiles: ProfileLookup,
    ) -> list[Recommendation]:
        attributes = profile_attributes(profiles(user_id))
        scored = []
        for item in candidates:
            value = self._config.prior_ctr
            for level in BACKOFF_LEVELS:
                situation = situation_key(attributes, level)
                if situation is None:
                    continue
                stored = self._store.get(StateKeys.ctr(item, situation), None)
                if stored is not None:
                    value = stored
                    break
            scored.append((value, item))
        scored.sort(key=lambda row: (-row[0], row[1]))
        return [
            Recommendation(item, score, source="ctr")
            for score, item in scored[:n]
        ]
