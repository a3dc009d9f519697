"""Every recipe's bolts read through declared gathers: exact frames.

``test_wave_frames`` pins the benchmark's CF topology; this runs the
other recipes — the situational CTR of Figure 7, content-based, AR and
CF with the retrieval bolts — on the simulator with every bolt client
logging its calls, grouped by the component wave they fall in. Bolt
clients see only ``gather`` and ``mutate``: nothing is read undeclared,
so no call goes direct. A stateful wave makes at most one of each,
except the VQ index's, whose observes gather in dependency order: one
frame for what the nearest centroid names, one more the first time a
task needs the codebook, and one for a merge into a centroid the
observe had not read.
"""

import pytest

from benchmarks.e2e.load import EventTrace
from benchmarks.e2e.topology import e2e_topology
from benchmarks.e2e.workload import PRELOAD_BATCHES
from repro.retrieval.vq import StreamingVQIndex
from repro.runtime import SimSubstrate
from repro.storm.cluster import LocalCluster
from repro.tdaccess.cluster import TDAccessCluster
from repro.tdstore import TDStoreCluster
from repro.topology.framework import (
    build_ar_topology,
    build_cb_topology,
    build_ctr_topology,
)
from repro.topology.spouts import TDAccessSpout
from repro.types import UserAction, UserProfile
from repro.utils.clock import SimClock

from tests.recovery.helpers import TOPIC, make_payloads, make_tdaccess
from tests.retrieval.helpers import retrieval_topology_factory, seeded_store
from tests.runtime.test_wave_frames import CLIENT_CALLS

PROFILES = {
    "m1": UserProfile("m1", gender="male", age=25, region="beijing"),
    "f1": UserProfile("f1", gender="female", age=31, region="shanghai"),
}


class RecordingClient:
    """A bolt's client, logging each call with its ``recorder``."""

    def __init__(self, inner, recorder):
        self._inner = inner
        for method in CLIENT_CALLS:
            setattr(self, method, recorder.logged(method, getattr(inner, method)))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Recorder:
    """Logs ``(wave, method)`` for every call a bolt client makes, and
    each VQ observe's result with the gathers it sent."""

    def __init__(self):
        self.calls: list = []
        self.waves: list[str] = []
        self.observes: list = []
        self._wave = None

    def client_factory(self, inner):
        return lambda: RecordingClient(inner(), self)

    def logged(self, method, call):
        def logged(*args, **kwargs):
            self.calls.append((self._wave, method))
            return call(*args, **kwargs)

        return logged

    def gathers(self) -> int:
        return sum(method == "gather" for __, method in self.calls)

    def attach(self, monkeypatch):
        run_wave = LocalCluster._run_wave
        observe = StreamingVQIndex.observe
        seen: set = set()

        def wave(cluster, run, tuples):
            self._wave = len(self.waves)
            self.waves.append(tuples[0][0].component_name)
            try:
                return run_wave(cluster, run, tuples)
            finally:
                self._wave = None

        def observed(index, *args, **kwargs):
            before = self.gathers()
            op = observe(index, *args, **kwargs)
            first = id(index) not in seen
            seen.add(id(index))
            self.observes.append((op, first, self.gathers() - before))
            return op

        monkeypatch.setattr(LocalCluster, "_run_wave", wave)
        monkeypatch.setattr(StreamingVQIndex, "observe", observed)


def ctr_run(client_factory):
    clock = SimClock()
    access = TDAccessCluster(clock, num_data_servers=2)
    access.create_topic("ads", 2)
    producer = access.producer()
    for n in range(40):
        user = ("m1", "f1", "anon")[n % 3]
        action = "click" if n % 4 == 0 else "impression"
        producer.send("ads", {
            "user": user, "item": f"ad{n % 5}", "action": action,
            "timestamp": float(n),
        }, key=user)
    return clock, build_ctr_topology(
        "ctr", lambda: TDAccessSpout(access.consumer("ads"), clock),
        client_factory, PROFILES.get, session_seconds=10.0, window_sessions=2,
    )


def actions(n=40):
    return [
        UserAction(f"u{i % 5}", f"n{(3 * i) % 8}", ("click", "read")[i % 2],
                   float(30 * i))
        for i in range(n)
    ]


def cb_run(client_factory):
    clock = SimClock()
    metas = [
        {"item": f"n{i}", "tags": (("sports", "music", "film")[i % 3],),
         "category": "news"}
        for i in range(8)
    ]
    return clock, build_cb_topology(
        "cb", actions(), metas, clock, client_factory
    )


def ar_run(client_factory):
    clock = SimClock()
    return clock, build_ar_topology(
        "ar", actions(), clock, client_factory, session_gap=100.0
    )


def retrieval_run(client_factory):
    clock = SimClock()
    tdaccess = make_tdaccess(make_payloads(48))
    return clock, retrieval_topology_factory()(
        clock, client_factory, tdaccess.consumer(TOPIC)
    )


def run(recipe, monkeypatch):
    recorder = Recorder()
    recorder.attach(monkeypatch)
    store = TDStoreCluster(num_data_servers=3, num_instances=8)
    clock, topology = recipe(recorder.client_factory(store.client))
    cluster = LocalCluster(clock=clock)
    cluster.submit(topology)
    cluster.run_until_idle()
    assert cluster.metrics(topology.name).trees_failed == 0
    return recorder


def assert_declared_frames(recorder, seeded=False):
    # nothing is read undeclared: bolt clients see gathers and mutates
    assert {method for __, method in recorder.calls} == {"gather", "mutate"}
    per_wave: dict = {}
    for wave, method in recorder.calls:
        per_wave.setdefault(wave, []).append(method)
    for wave, methods in per_wave.items():
        component = recorder.waves[wave] if wave is not None else "tick"
        assert methods.count("mutate") <= 1, component
        if component != "vqAssign":
            assert methods.count("gather") <= 1, component
    for op, first, gathers in recorder.observes:
        best = op.split_from or op.assigned
        merged_elsewhere = op.merged is not None and op.merged_into != best
        # the nearest centroid's reads; the codebook once per task (a
        # task that bootstrapped the index wrote it); a merge target
        want = 1 + (first and seeded) + merged_elsewhere
        assert gathers == want, op


@pytest.mark.parametrize(
    "recipe", [ctr_run, cb_run, ar_run], ids=["ctr", "cb", "ar"]
)
def test_a_recipe_reads_only_through_declared_gathers(recipe, monkeypatch):
    recorder = run(recipe, monkeypatch)
    assert_declared_frames(recorder)
    assert recorder.gathers() > 0


def test_vq_observes_gather_in_dependency_order(monkeypatch):
    recorder = run(retrieval_run, monkeypatch)
    assert_declared_frames(recorder)
    ops = [op for op, __, __ in recorder.observes]
    assert any(op.split_from for op in ops)
    assert any(op.merged for op in ops)
    # and some merge went into a centroid its observe had not read
    assert {gathers for __, __, gathers in recorder.observes} == {1, 2}


def test_the_benchmark_topology_with_retrieval(monkeypatch):
    """One micro-batch from the state the benchmark serves from: the
    assign task meets a built index, so its first observe gathers the
    codebook."""
    with SimSubstrate() as substrate:
        clock = SimClock()
        store = seeded_store(substrate)  # built by bolts too: not recorded
        recorder = Recorder()
        recorder.attach(monkeypatch)
        cluster = substrate.build_storm(clock)
        tdaccess = TDAccessCluster(clock, num_data_servers=2)
        tdaccess.create_topic("frames", 2)
        factory = e2e_topology("frames", retrieval=True)
        cluster.submit(factory(
            clock, recorder.client_factory(store.client),
            tdaccess.consumer("frames"),
        ))
        events = EventTrace(2015)
        for __ in range(PRELOAD_BATCHES):
            events.next_batch()
        producer = tdaccess.producer()
        for payload in events.next_batch():
            clock.advance_to(payload["timestamp"])
            producer.send("frames", payload, key=payload["user"])
        cluster.run_until_idle()
        assert cluster.metrics("frames").trees_failed == 0
    assert_declared_frames(recorder, seeded=True)
    assert recorder.observes
