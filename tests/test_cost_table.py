"""The cost table: the system's deterministic work counts, pinned.

``tests/cost_table.json`` holds one row per count, ``{name, value,
unit, workload, how}``. This module recomputes every row on
``SimSubstrate`` — the end-to-end benchmark's topology over its action
stream, from the state the benchmark serves from — and requires each to
equal its pinned value. The counts do not depend on the host, so a
change to one is a change to the program's work: update the row in the
same commit and say why.

A failure prints the rows that differ. ``COST_TABLE_UPDATE=1`` also
prints the whole recomputed table for copying into the file by hand;
nothing is ever rewritten.
"""

from __future__ import annotations

import json
import os
import pickle
from collections import Counter
from pathlib import Path

import pytest

from benchmarks.e2e.load import BATCH, EventTrace
from benchmarks.e2e.topology import CF_COMPONENTS, e2e_topology
from benchmarks.e2e.workload import PRELOAD_BATCHES, WARMUP_BATCHES
from repro.retrieval.retriever import VQIndexProbe
from repro.runtime import SimSubstrate
from repro.runtime.wire import PICKLE_PROTOCOL
from repro.tdaccess.cluster import TDAccessCluster
from repro.tdstore.data_server import JOURNALED
from repro.utils.clock import SimClock

from tests.retrieval.helpers import seeded_store

TABLE = Path(__file__).with_name("cost_table.json")
SEED = 2015
MEASURED_BATCHES = 40
WORKLOAD = "e2e stream on SimSubstrate"
WINDOW = (
    f"seed {SEED}, {MEASURED_BATCHES} micro-batches of {BATCH} after the "
    f"{PRELOAD_BATCHES}-batch seed state and {WARMUP_BATCHES} warm-up batches"
)


class MutateLog:
    """A bolt's client that tallies every op of every ``mutate`` it sends,
    the keys and probes of every ``gather``, and the method of every
    call, into a :class:`Tally`."""

    def __init__(self, inner, tally):
        self._inner = inner
        self._tally = tally

    def mutate(self, ops):
        tally = self._tally
        tally.calls.append("mutate")
        for method, args in ops:
            family = args[0].partition(":")[0]
            tally.ops[family] += 1
            tally.bytes[family] += len(pickle.dumps((method, args), PICKLE_PROTOCOL))
            if method in JOURNALED:
                tally.ids += len(args[1]) if isinstance(args[1], tuple) else 1
        return self._inner.mutate(ops)

    def gather(self, keys, probes=()):
        tally = self._tally
        tally.calls.append("gather")
        tally.keys += len(keys)
        tally.probes += len(probes)
        return self._inner.gather(keys, probes)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tally:
    """Mutate ops and pickled bytes by key family, journaled op ids,
    gathered keys and probes, the client calls, and the sync records
    hosts queued on their replicas, since the last :meth:`reset`."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.ops: Counter = Counter()
        self.bytes: Counter = Counter()
        self.ids = 0
        self.keys = 0
        self.probes = 0
        self.calls: list = []
        self.syncs = 0

    def count_syncs(self, server):
        """Tally every record queued on ``server`` as a replica."""
        enqueue = server.enqueue_syncs

        def counting(instance, records):
            self.syncs += len(records)
            return enqueue(instance, records)

        server.enqueue_syncs = counting


def measure() -> "list[dict]":
    with SimSubstrate() as substrate:
        clock = SimClock()
        store = seeded_store(substrate)
        index = VQIndexProbe(store.client()).stats()
        cluster = substrate.build_storm(clock)
        tdaccess = TDAccessCluster(clock, num_data_servers=2)
        tdaccess.create_topic("costs", 2, retention_segments=2)
        # the simulator runs the bolts in this process, so their clients
        # can tally into a local counter
        tally = Tally()
        for server in store.data_servers:
            tally.count_syncs(server)
        topology = e2e_topology("costs")(
            clock,
            lambda: MutateLog(store.client(), tally),
            tdaccess.consumer("costs"),
        )
        cluster.submit(topology)
        producer = tdaccess.producer()
        events = EventTrace(SEED)
        for __ in range(PRELOAD_BATCHES):  # what the seeded state holds
            events.next_batch()

        def micro_batch():
            for payload in events.next_batch():
                clock.advance_to(payload["timestamp"])
                producer.send("costs", payload, key=payload["user"])
            cluster.reactivate_spouts(topology.name)
            cluster.run_until_idle()

        for __ in range(WARMUP_BATCHES):
            micro_batch()
        metrics = cluster.metrics(topology.name)
        executed = sum(map(metrics.component_executed, CF_COMPONENTS))
        retried = metrics.retried_tuples
        evictions = store.journal_evictions()
        tally.reset()
        micro_batch()
        frames = list(tally.calls)
        for __ in range(MEASURED_BATCHES - 1):
            micro_batch()
        assert metrics.trees_failed == 0
        executed = sum(map(metrics.component_executed, CF_COMPONENTS)) - executed
        retried = metrics.retried_tuples - retried
        evictions = store.journal_evictions() - evictions
        # what the slaves still owe: nothing in the window syncs them
        pending = [
            record
            for server in store.data_servers
            for inbox in server._sync_inbox.values()
            for record in inbox.values()
        ]

    def per_batch(value):
        return round(value / MEASURED_BATCHES, 3)

    how = f"per micro-batch over {WINDOW}"
    rows = [
        ("storm.tuples_per_event", round(executed / (MEASURED_BATCHES * BATCH), 4),
         "count", f"CF bolt executions per event over {WINDOW}"),
        ("storm.retried_tuples", per_batch(retried), "count",
         f"tuples failed waves put back on their tasks' queues, {how}"),
        ("mutate.ops", per_batch(sum(tally.ops.values())), "count",
         f"ops in the bolts' mutate envelopes, {how}"),
        ("mutate.bytes", per_batch(sum(tally.bytes.values())), "bytes",
         f"pickled (method, args) of those ops, {how}"),
        ("mutate.journaled_ids", per_batch(tally.ids), "count",
         f"op ids the put_once / apply_op ops carry, {how}"),
        ("gather.keys", per_batch(tally.keys), "count",
         f"keys in the bolts' gather frames, {how}"),
        ("gather.probes", per_batch(tally.probes), "count",
         f"journal probes in the bolts' gather frames, {how}"),
        ("tdstore.journal_evictions", per_batch(evictions), "count",
         f"op-journal ids trimmed past JOURNAL_LIMIT, {how}"),
        ("replication.records_enqueued", per_batch(tally.syncs), "count",
         f"sync records the hosts queued on their slaves, {how}"),
        ("replication.pending_records", len(pending), "count",
         f"sync records in the slaves' inboxes after {WINDOW}, with no "
         "idle-time sync"),
        ("replication.pending_bytes",
         sum(len(pickle.dumps(record, PICKLE_PROTOCOL)) for record in pending),
         "bytes", "those records, each pickled at PICKLE_PROTOCOL"),
    ]
    for family in sorted(tally.ops):
        rows.append((f"mutate.ops.{family}", per_batch(tally.ops[family]),
                     "count", f"mutate ops on '{family}:' keys, {how}"))
        rows.append((f"mutate.bytes.{family}", per_batch(tally.bytes[family]),
                     "bytes", f"pickled mutate ops on '{family}:' keys, {how}"))
    rows += [
        ("micro_batch.frames", frames, "calls",
         "gather / mutate calls of the bolts' clients in the first measured "
         "micro-batch, in order"),
        ("retrieval.centroids", index["centroids"], "count",
         "centroids of the seed state's VQ index"),
        ("retrieval.posting_p99", index["posting_p99"], "count",
         "p99 posting-list size of the seed state's VQ index"),
    ]
    return [
        {"name": name, "value": value, "unit": unit, "workload": WORKLOAD,
         "how": text}
        for name, value, unit, text in rows
    ]


def diff(pinned: "list[dict]", computed: "list[dict]") -> "list[str]":
    old = {row["name"]: row["value"] for row in pinned}
    new = {row["name"]: row["value"] for row in computed}
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            lines.append(f"{name}: {old.get(name, '(absent)')} -> "
                         f"{new.get(name, '(absent)')}")
    return lines


@pytest.fixture(scope="module")
def computed():
    return measure()


def test_the_counts_match_the_table(computed):
    pinned = json.loads(TABLE.read_text())
    changed = diff(pinned, computed)
    if os.environ.get("COST_TABLE_UPDATE") == "1":
        print("\n".join(["cost table diff:", *changed]))
        print(json.dumps(computed, indent=1))
    assert not changed, "cost table out of date:\n" + "\n".join(changed)


def test_rows_are_described(computed):
    for row in json.loads(TABLE.read_text()):
        assert set(row) == {"name", "value", "unit", "workload", "how"}
        assert row["how"]
