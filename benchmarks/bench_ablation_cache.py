"""Ablation: the fine-grained cache under a temporal burst (Section 5.2).

The paper: burst traffic has locality — a small set of keys absorbs most
reads — so a per-key cache on each worker slashes TDStore load. We
replay a bursty key stream against raw TDStore reads and against a
CachedStore that gathers each 24-read wave up front (as a bolt's
``reads(tup)`` declares it) and then reads from its cache, and compare
server-side read counts.
"""

import numpy as np
import pytest

from repro.tdstore import TDStoreCluster
from repro.topology.state import CachedStore, Reads

from benchmarks.conftest import report


def bursty_keys(num_reads=5000, num_keys=500, hot_keys=5, hot_share=0.8,
                seed=4):
    """80% of reads hit 1% of keys: the hot-news locality of Section 5.2."""
    rng = np.random.default_rng(seed)
    keys = []
    for __ in range(num_reads):
        if rng.random() < hot_share:
            keys.append(f"hist:hot-{int(rng.integers(hot_keys))}")
        else:
            keys.append(f"hist:cold-{int(rng.integers(num_keys))}")
    return keys


WAVE = 24  # reads per wave: the benchmark topology's micro-batch


@pytest.fixture(scope="module")
def cache_results():
    keys = bursty_keys()
    seeded = TDStoreCluster(num_data_servers=3, num_instances=16)
    for key in set(keys):
        seeded.client().put(key, {"payload": key})
    baseline_start = sum(seeded.read_stats().values())
    raw_client = seeded.client()
    for key in keys:
        raw_client.get(key)
    raw_reads = sum(seeded.read_stats().values()) - baseline_start

    cached_store = CachedStore(seeded.client())
    cached_start = sum(seeded.read_stats().values())
    for at in range(0, len(keys), WAVE):
        wave = keys[at : at + WAVE]
        cached_store.prefetch([Reads(owned=tuple(dict.fromkeys(wave)))])
        for key in wave:
            cached_store.get(key)
        cached_store.flush()
    cached_reads = sum(seeded.read_stats().values()) - cached_start
    return keys, raw_reads, cached_reads, cached_store


def test_cache_absorbs_burst_reads(cache_results, benchmark):
    keys, raw_reads, cached_reads, cached_store = cache_results
    saving = 1 - cached_reads / raw_reads
    waves = -(-len(keys) // WAVE)
    report(
        "ablation_cache",
        "\n".join(
            [
                "Ablation: fine-grained cache under temporal burst (Section 5.2)",
                f"reads issued:                 {len(keys)} "
                f"in {waves} waves of {WAVE}",
                f"TDStore reads, no cache:      {raw_reads}",
                f"TDStore reads, cached:        {cached_reads} "
                f"({saving:.0%} absorbed)",
                f"distinct keys read:           {len(set(keys))}",
            ]
        ),
    )
    assert cached_reads < raw_reads * 0.2
    # an owned key is fetched once, then served from the cache
    assert cached_reads == len(set(keys))

    benchmark(cached_store.get, keys[0])
