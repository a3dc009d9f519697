"""The benchmark's topology recipe, and the probe it times bolts with.

``e2e_topology`` is a module-level recipe so that
``repro.runtime.topology_recipe`` can rebuild it inside a spawned Storm
worker: ``TDAccessSpout(batch 24)`` -> ``PretreatmentBolt`` (x2) ->
``userHistory`` -> ``itemCount`` / ``pairCount`` -> ``simList``, plus
``groupCount``, keyed layers at parallelism 4. ``retrieval=True`` adds
the embedding/VQ bolts (dim 16, ``max_centroids=64``,
``split_threshold=8.0``, as in ``bench_retrieval.py``); the benchmark
uses that only to build the index during set-up.

With ``trace_dir`` set, every bolt's ``execute`` and every call on the
``TDStoreClient`` handed to bolts is timed by a :class:`BoltProbe` that
lives where the bolts run (this process on ``SimSubstrate``, the worker
on ``ProcessSubstrate``). The driver steers it with control payloads on
the action stream, which ``PretreatmentBolt`` drops as malformed:
``{"e2e_ctl": "on" | "off" | "flush"}``, one copy per pretreatment task,
which also leaves the shuffle grouping's round-robin where it was: the
traced stream is routed exactly like the untraced one. ``flush`` rewrites
``probe-<pid>.json`` in ``trace_dir``; the driver sends it outside the
timed region and merges the files.
"""

from __future__ import annotations

import json
import os
import time

from repro.retrieval.bolts import RetrievalConfig
from repro.retrieval.embedding import EmbeddingConfig
from repro.retrieval.vq import VQConfig
from repro.storm.grouping import FieldsGrouping, ShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.topology.bolts_cf import (
    ItemCountBolt,
    PairCountBolt,
    SimListBolt,
    UserHistoryBolt,
)
from repro.topology.bolts_common import PretreatmentBolt
from repro.topology.bolts_db import GroupCountBolt
from repro.topology.framework import add_retrieval_bolts
from repro.topology.spouts import TDAccessSpout

from benchmarks.e2e.load import BATCH

PARALLELISM = 4
PRETREATMENT_TASKS = 2
LINKED_TIME = 6 * 3600.0
CF_COMPONENTS = (
    "pretreatment",
    "userHistory",
    "itemCount",
    "pairCount",
    "simList",
    "groupCount",
)
CONTROL_KEY = "e2e_ctl"
# the client calls bolts make (through CachedStore and the VQ index)
STORE_OPS = (
    "get",
    "multi_get",
    "put",
    "put_once",
    "apply",
    "op_seen",
    "run_once",
    "incr",
    "delete",
)


def group_of(user: str) -> str:
    """Demographic group: user index mod 4."""
    return f"g{int(user[1:]) % 4}"


def retrieval_config() -> RetrievalConfig:
    return RetrievalConfig(
        embedding=EmbeddingConfig(dim=16),
        vq=VQConfig(
            dim=16,
            seed_centroids=4,
            max_centroids=64,
            split_threshold=8.0,
            merge_floor=1.0,
        ),
        # co-clicks link over the same horizon as the CF linked time
        co_window=LINKED_TIME,
        parallelism=PARALLELISM,
    )


class BoltProbe:
    """``(count, total, self)`` per bolt execute and per store call,
    aggregated in the process that runs the bolts."""

    def __init__(self, trace_dir: str):
        self.enabled = False
        self.path = os.path.join(trace_dir, f"probe-{os.getpid()}.json")
        self.totals: dict[str, list] = {}
        self._store_seconds = 0.0  # store time inside the current execute

    def _add(self, name: str, duration: float, own: float):
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += own

    def control(self, command: str):
        if command == "on":
            self.enabled = True
        elif command == "off":
            self.enabled = False
        elif command == "flush":
            scratch = f"{self.path}.tmp"
            with open(scratch, "w") as handle:
                json.dump({"totals": self.totals}, handle)
            os.replace(scratch, self.path)

    def client_factory(self, inner):
        return lambda: _ProbedClient(inner(), self)

    def watch(self, component: str, bolt):
        """Time ``bolt.execute``; returns the bolt."""
        inner = bolt.execute
        name = f"topology.{component}.execute"
        listens = component == "pretreatment"

        def execute(tup):
            if listens:
                payload = tup["payload"]
                if isinstance(payload, dict) and CONTROL_KEY in payload:
                    self.control(payload[CONTROL_KEY])
            if not self.enabled:
                return inner(tup)
            self._store_seconds = 0.0
            start = time.perf_counter()
            try:
                return inner(tup)
            finally:
                duration = time.perf_counter() - start
                self._add(name, duration, duration - self._store_seconds)

        bolt.execute = execute
        return bolt


class _ProbedClient:
    """A ``TDStoreClient`` whose calls are timed by a :class:`BoltProbe`."""

    def __init__(self, client, probe: BoltProbe):
        self._client = client
        for op in STORE_OPS:
            setattr(self, op, self._timed(op, getattr(client, op), probe))

    @staticmethod
    def _timed(op: str, fn, probe: BoltProbe):
        name = f"tdstore.{op}"

        def call(*args, **kwargs):
            if not probe.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                probe._store_seconds += duration
                probe._add(name, duration, duration)

        return call

    def __getattr__(self, name: str):
        return getattr(self._client, name)


def e2e_topology(
    topo_name: str = "e2e",
    retrieval: bool = False,
    trace_dir: "str | None" = None,
):
    """Recipe-compatible factory-builder for the benchmark topology."""
    probe = BoltProbe(trace_dir) if trace_dir is not None else None

    def factory(clock, client_factory, consumer):
        clients = client_factory
        if probe is not None:
            clients = probe.client_factory(client_factory)

        def bolt(component: str, make):
            if probe is None:
                return make
            return lambda: probe.watch(component, make())

        builder = TopologyBuilder(topo_name)
        builder.add_spout(
            "source", lambda: TDAccessSpout(consumer, clock, BATCH)
        )
        builder.add_bolt(
            "pretreatment",
            bolt("pretreatment", PretreatmentBolt),
            parallelism=PRETREATMENT_TASKS,
        ).grouping("source", ShuffleGrouping(), "raw_action")
        builder.add_bolt(
            "userHistory",
            bolt(
                "userHistory",
                lambda: UserHistoryBolt(
                    clients, linked_time=LINKED_TIME, group_of=group_of
                ),
            ),
            parallelism=PARALLELISM,
        ).grouping("pretreatment", FieldsGrouping(["user"]), "user_action")
        # itemCount registers before pairCount: Eq 5 must see fresh counts
        builder.add_bolt(
            "itemCount",
            bolt("itemCount", lambda: ItemCountBolt(clients)),
            parallelism=PARALLELISM,
        ).grouping("userHistory", FieldsGrouping(["item"]), "item_delta")
        builder.add_bolt(
            "pairCount",
            bolt("pairCount", lambda: PairCountBolt(clients)),
            parallelism=PARALLELISM,
        ).grouping(
            "userHistory", FieldsGrouping(["pair_a", "pair_b"]), "pair_delta"
        )
        builder.add_bolt(
            "simList",
            bolt("simList", lambda: SimListBolt(clients)),
            parallelism=PARALLELISM,
        ).grouping("pairCount", FieldsGrouping(["item"]), "sim_update").grouping(
            "pairCount", FieldsGrouping(["item"]), "prune"
        )
        builder.add_bolt(
            "groupCount",
            # hot lists forget over the linked time, not the bolt's 30 min:
            # at one action per 300 s they would hold two micro-batches
            bolt(
                "groupCount",
                lambda: GroupCountBolt(clients, decay_interval=LINKED_TIME),
            ),
            parallelism=PARALLELISM,
        ).grouping("userHistory", FieldsGrouping(["group"]), "group_delta")
        if retrieval:
            add_retrieval_bolts(
                builder, "pretreatment", clients, retrieval_config()
            )
        return builder.build()

    return factory
