"""Streaming-VQ retrieval quality and throughput.

Builds a clustered catalog the way the topology would — rows learned by
SGD steps toward group context anchors, every observation folded into
the streaming index under tuple-derived op ids — then measures:

* recall@10 against exact brute-force re-ranking, swept over probe
  widths (the retriever's latency/recall dial);
* candidate throughput of the read path at each width;
* build throughput of the index's single-writer update;
* structural honesty: nonzero splits (the stream actually restructured
  the index) and zero lost keys (``index_integrity`` is clean);
* key digests per warm query: ``stable_hash`` digests computed while
  routing a repeated pass of the queries;
* centroid reads per warm query: ``vqcent:`` keys that repeated pass
  reads (the retriever keeps the codebook per index version).

Writes ``BENCH_retrieval.json`` at the repo root; the CI smoke gates on
recall@10 >= 0.8, splits > 0, zero lost keys, and zero digests and zero
centroid reads per warm query.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_retrieval.py -q -s
"""

from __future__ import annotations

import time

import numpy as np

from repro.retrieval.embedding import EmbeddingConfig, EmbeddingRow, updated_row
from repro.retrieval.keys import RetrievalKeys as K
from repro.retrieval.retriever import (
    RetrieverConfig,
    VQIndexProbe,
    VQRetriever,
    brute_force_rank,
)
from repro.retrieval.vq import StreamingVQIndex, VQConfig, index_integrity
from repro.tdstore import TDStoreCluster
from repro.topology.state import CachedStore
from repro.utils import hashing

from benchmarks.conftest import SEED, report, report_json

GROUPS = 8
ITEMS_PER_GROUP = 30
DIM = 16
LEARN_STEPS = 12
PROBE_WIDTHS = [1, 2, 4, 8]
N_QUERIES = 60
TOP_K = 10

ECFG = EmbeddingConfig(dim=DIM)
VCFG = VQConfig(
    dim=DIM, seed_centroids=4, max_centroids=64,
    split_threshold=8.0, merge_floor=1.0,
)


def learned_catalog(rng):
    """(item, row) pairs clustered by shared context anchors."""
    rows = []
    for g in range(GROUPS):
        for i in range(ITEMS_PER_GROUP):
            item = f"g{g}i{i}"
            row = EmbeddingRow.from_value(item, None, ECFG)
            for s in range(LEARN_STEPS):
                # mostly the group anchor, occasionally a neighbour
                # group's — co-click noise keeps clusters imperfect
                ctx = (
                    f"ctx{(g + 1) % GROUPS}"
                    if rng.random() < 0.15
                    else f"ctx{g}"
                )
                row = updated_row(row, ctx, 1.0, ECFG)
            rows.append((item, row))
    return rows


def test_retrieval_quality_and_throughput(monkeypatch):
    rng = np.random.default_rng(SEED)
    catalog = learned_catalog(rng)
    items = [item for item, __ in catalog]

    cluster = TDStoreCluster(num_data_servers=2, num_instances=16)
    client = cluster.client()
    store = CachedStore(cluster.client())
    index = StreamingVQIndex(store, VCFG)

    t0 = time.perf_counter()
    for n, (item, row) in enumerate(catalog):
        client.put(K.embedding(item), row.to_value())
        index.observe(item, list(row.vec), f"bench:{n}")
        store.flush()
    build_seconds = time.perf_counter() - t0

    probe_stats = VQIndexProbe(client).stats()
    integrity = index_integrity(client, items)
    assert integrity["problems"] == [], integrity["problems"]
    assert probe_stats["splits"] > 0

    query_items = [
        items[int(rng.integers(len(items)))] for __ in range(N_QUERIES)
    ]
    queries = [
        (
            qi,
            np.asarray(client.get(K.embedding(qi))["vec"], dtype=np.float64),
            brute_force_rank(client, np.asarray(
                client.get(K.embedding(qi))["vec"], dtype=np.float64
            ), items, TOP_K, exclude={qi}),
        )
        for qi in query_items
    ]

    sweep = []
    for width in PROBE_WIDTHS:
        retriever = VQRetriever(client, RetrieverConfig(probe_width=width))
        recalls = []
        t0 = time.perf_counter()
        for qi, q, exact in queries:
            answer = retriever.retrieve(q, TOP_K, exclude={qi})
            recalls.append(len(set(answer.items) & set(exact)) / len(exact))
        seconds = time.perf_counter() - t0
        sweep.append(
            {
                "probe_width": width,
                "recall_at_10": sum(recalls) / len(recalls),
                "queries_per_s": N_QUERIES / seconds,
                "candidates_per_s": retriever.stats.candidates_scored / seconds,
                "mean_candidates": retriever.stats.candidates_scored
                / N_QUERIES,
            }
        )

    # the widest probe's pass above was the warm-up: key placement is
    # memoized per process and the codebook kept at the index's version,
    # so repeating it computes no digest and reads no centroid
    digests = []
    digest = hashing._digest
    centroid_reads = []
    multi_get = client.multi_get

    def counting(key):
        digests.append(key)
        return digest(key)

    def reading(keys, *args, **kwargs):
        keys = list(keys)
        centroid_reads.extend(k for k in keys if k.startswith("vqcent:"))
        return multi_get(keys, *args, **kwargs)

    monkeypatch.setattr(hashing, "_digest", counting)
    monkeypatch.setattr(client, "multi_get", reading)
    for qi, q, __ in queries:
        retriever.retrieve(q, TOP_K, exclude={qi})
    monkeypatch.undo()

    headline = sweep[-1]["recall_at_10"]  # widest probe in the sweep
    payload = {
        "seed": SEED,
        "catalog_items": len(items),
        "dim": DIM,
        "build_observes_per_s": len(items) / build_seconds,
        "centroids": probe_stats["centroids"],
        "splits": probe_stats["splits"],
        "merges": probe_stats["merges"],
        "reassignments": probe_stats["reassignments"],
        "posting_p99": probe_stats["posting_p99"],
        "lost_keys": len(integrity["problems"]),
        "recall_at_10": headline,
        "digests_per_warm_query": len(digests) / N_QUERIES,
        "centroid_reads_per_warm_query": len(centroid_reads) / N_QUERIES,
        "probe_sweep": sweep,
    }
    report_json("retrieval", payload)

    lines = [
        "Streaming-VQ retrieval "
        f"({len(items)} items, {probe_stats['centroids']} centroids, "
        f"{probe_stats['splits']} splits, {probe_stats['merges']} merges, "
        f"build {payload['build_observes_per_s']:.0f} obs/s)",
        f"  {'probe':>5} {'recall@10':>10} {'queries/s':>10} "
        f"{'candidates/s':>13}",
    ]
    for row in sweep:
        lines.append(
            f"  {row['probe_width']:>5} {row['recall_at_10']:>10.3f} "
            f"{row['queries_per_s']:>10.0f} {row['candidates_per_s']:>13.0f}"
        )
    lines.append(
        f"  key digests per warm query: {payload['digests_per_warm_query']:g}"
    )
    lines.append(
        "  centroid reads per warm query: "
        f"{payload['centroid_reads_per_warm_query']:g}"
    )
    report("retrieval", "\n".join(lines))

    assert headline >= 0.8, f"recall@10 {headline:.3f} below the 0.8 floor"
