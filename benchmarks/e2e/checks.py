"""Correctness checks of the benchmark.

A failed check raises :class:`CheckFailed`; the workload then exits
non-zero and prints no metrics.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.retrieval.keys import RetrievalKeys
from repro.retrieval.retriever import brute_force_rank
from repro.retrieval.vq import index_integrity

from benchmarks.e2e.load import TOP_N, WINDOW
from benchmarks.e2e.topology import group_of

DEFAULT_SEED = 2015
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")
SAMPLED_QUERIES = 50
# Probe width 8 reaches recall@10 of 0.55-0.70 on the embeddings this
# stream learns (43 centroids over ~140 items, three items a posting);
# bench_retrieval.py owns the 0.8 bar on its clustered catalog. The floor
# here catches a re-rank that stopped ranking.
MIN_RECALL = 0.45

# state families of the fingerprint, by TDStore key prefix
FAMILIES = {
    "histories": ("hist:", "recent:"),
    "item_counts": ("itemCount:",),
    "pair_counts": ("pairCount:",),
    "sim_lists": ("simlist:", "threshold:"),
    "hot_lists": ("hot:",),
    "retrieval": (
        "emb:", "embrecent:", "vq:", "vqcent:", "vqcount:", "vqpost:",
        "vqassign:",
    ),
}


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


def _jsonable(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def fingerprint(contents: dict) -> "dict[str, str]":
    """SHA-256 of the canonical JSON of each state family in a
    ``snapshot_contents()`` result."""
    merged: dict = {}
    for data in contents.values():
        merged.update(data)
    out = {}
    for family, prefixes in FAMILIES.items():
        rows = sorted(
            (key, value)
            for key, value in merged.items()
            if key.startswith(prefixes)
        )
        canon = json.dumps(rows, sort_keys=True, default=_jsonable)
        out[family] = hashlib.sha256(canon.encode()).hexdigest()
    return out


def check_same_state(actual: dict, expected: dict, what: str):
    if actual != expected:
        differing = sorted(k for k in expected if actual.get(k) != expected[k])
        raise CheckFailed(f"state of {what} differs in {differing}")


def check_golden(warm_fingerprint: dict, seed: int):
    """At the default seed the state after preload and warm-up must be
    the committed one: the repo's byte-identity invariant as a
    precondition. Other seeds rely on the sim-vs-process comparison."""
    if seed != DEFAULT_SEED:
        return
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    check_same_state(
        warm_fingerprint, golden["after_warmup"], "the warmed stack against golden.json"
    )


def check_answers(stack, seed: int) -> float:
    """Sampled CF answers from the serving path equal the per-key
    ``recommend_cf`` answers on the same state; the VQ index is intact
    and its recall@10 against brute force holds. Returns the recall."""
    rng = np.random.default_rng([seed, 3])
    client = stack.query_client
    users, items = stack.events.users, stack.events.items
    now = stack.pipeline.clock.now()
    per_key = RecommenderEngine(client, EngineConfig(group_of=group_of))
    sampled = [
        users[r] for r in rng.choice(len(users), SAMPLED_QUERIES, replace=False)
    ]
    # the driver never publishes group changes (see Stack.ingest), so
    # drop the hot lists and the sampled users' answers before comparing
    for group in ["global"] + [f"g{n}" for n in range(4)]:
        stack.bus.publish("group", group)
    for user in sampled:
        stack.bus.publish("user", user)
    for at in range(0, len(sampled), WINDOW):
        window = [(user, TOP_N) for user in sampled[at : at + WINDOW]]
        answers = stack.cf.query_batch(window, now)
        for user, n in window:
            if answers[(user, n)] != per_key.recommend_cf(user, n * 2, now)[:n]:
                raise CheckFailed(
                    f"serving answer for {user} differs from the per-key "
                    "recommend_cf answer on the same state"
                )
    problems = index_integrity(client, items)["problems"]
    if problems:
        raise CheckFailed(f"VQ index integrity: {problems[:3]}")
    rows = client.multi_get([RetrievalKeys.embedding(item) for item in items])
    embedded = [
        item for item in items if rows.get(RetrievalKeys.embedding(item)) is not None
    ]
    recalls = []
    for item in rng.choice(embedded, SAMPLED_QUERIES):
        query = np.asarray(
            rows[RetrievalKeys.embedding(item)]["vec"], dtype=np.float64
        )
        exact = brute_force_rank(client, query, embedded, TOP_N, exclude={item})
        answer = stack.retriever.retrieve(query, TOP_N, exclude={item})
        recalls.append(len(set(answer.items) & set(exact)) / len(exact))
    recall = sum(recalls) / len(recalls)
    if recall < MIN_RECALL:
        raise CheckFailed(f"VQ recall@10 {recall:.3f} < {MIN_RECALL}")
    return recall
