"""The unit of dispatch is the unit of store traffic: exact frames.

One 24-event micro-batch through the end-to-end benchmark's topology,
from the state the benchmark serves from. Every store call the bolts'
clients make is logged where the bolts run (this process on
``SimSubstrate``, the worker on ``ProcessSubstrate``): a component wave
costs at most one ``gather`` and one ``mutate`` however many tasks it
spans, the bolts declare everything they read (no call goes direct),
and both substrates send the same frames, carrying the same keys, in
the same order.
"""

import json

import pytest

from benchmarks.e2e.load import EventTrace
from benchmarks.e2e.topology import CF_COMPONENTS, e2e_topology
from benchmarks.e2e.workload import PRELOAD_BATCHES
from repro.runtime import ProcessSubstrate, SimSubstrate, topology_recipe
from repro.storm.cluster import LocalCluster
from repro.tdaccess.cluster import TDAccessCluster
from repro.utils.clock import SimClock

from tests.retrieval.helpers import seeded_store, sent_requests

# every TDStoreClient call a CachedStore can make
CLIENT_CALLS = (
    "gather", "mutate", "get", "op_seen", "apply", "put_once", "put", "delete",
)


class LoggingClient:
    """Appends ``[method, keys]`` to ``log`` for every store call."""

    def __init__(self, inner, log):
        self._inner = inner
        for method in CLIENT_CALLS:
            setattr(self, method, self._logged(method, log))

    def _logged(self, method, log):
        call = getattr(self._inner, method)

        def logged(*args):
            if method == "gather":
                keys = [*args[0], *map(list, args[1])]
            elif method == "mutate":
                keys = [[op, op_args[0]] for op, op_args in args[0]]
            else:
                keys = [args[0]]
            with open(log, "a") as handle:
                handle.write(json.dumps([method, keys]) + "\n")
            return call(*args)

        return logged

    def __getattr__(self, name):
        return getattr(self._inner, name)


def logged_e2e(log):
    """The benchmark's recipe with every bolt client logging to ``log``."""
    inner = e2e_topology("frames")

    def factory(clock, client_factory, consumer):
        return inner(
            clock, lambda: LoggingClient(client_factory(), log), consumer
        )

    return factory


def one_micro_batch(substrate, log, monkeypatch):
    """Run it; returns ``(frames the bolts sent, component of each wave,
    requests this process sent)``."""
    clock = SimClock()
    store = seeded_store(substrate)
    cluster = substrate.build_storm(clock)
    tdaccess = TDAccessCluster(clock, num_data_servers=2)
    tdaccess.create_topic("frames", 2)
    factory = topology_recipe(
        "tests.runtime.test_wave_frames", "logged_e2e", log=str(log)
    )
    cluster.submit(factory(clock, store.client, tdaccess.consumer("frames")))
    events = EventTrace(2015)
    for __ in range(PRELOAD_BATCHES):  # what the seeded state was built from
        events.next_batch()
    producer = tdaccess.producer()
    for payload in events.next_batch():
        clock.advance_to(payload["timestamp"])
        producer.send("frames", payload, key=payload["user"])

    waves: list[str] = []
    run_wave = LocalCluster._run_wave

    def counting(self, run, wave):
        waves.append(wave[0][0].component_name)
        return run_wave(self, run, wave)

    monkeypatch.setattr(LocalCluster, "_run_wave", counting)
    with sent_requests(monkeypatch) as sent:
        cluster.run_until_idle()
    assert cluster.metrics("frames").trees_failed == 0
    frames = [json.loads(line) for line in log.read_text().splitlines()]
    return frames, waves, sent


@pytest.fixture(scope="module")
def sim_frames(tmp_path_factory):
    log = tmp_path_factory.mktemp("frames") / "sim.jsonl"
    with pytest.MonkeyPatch.context() as patch, SimSubstrate() as substrate:
        return one_micro_batch(substrate, log, patch)


def test_a_wave_costs_one_gather_and_one_commit(sim_frames):
    frames, waves, __ = sim_frames
    # one pass, one wave per component — where the micro-batch spreads
    # over ~18 task slices — and per stateful wave one read, one write;
    # nothing is read undeclared, so no call goes direct
    assert waves == list(CF_COMPONENTS)
    assert [method for method, __ in frames] == ["gather", "mutate"] * 5
    # and a wave's frame does span its tasks: some gather names the
    # histories of more users than one task of four could own
    assert max(
        sum(str(key).startswith("hist:") for key in keys)
        for method, keys in frames if method == "gather"
    ) > 6


def test_both_substrates_send_the_same_frames(sim_frames, tmp_path, monkeypatch):
    frames, waves, __ = sim_frames
    with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
        got, got_waves, sent = one_micro_batch(
            substrate, tmp_path / "process.jsonl", monkeypatch
        )
    assert got_waves == waves
    assert got == frames
    # and they are the worker's: besides the overlapped wave dispatches
    # the parent sent it one tick, and the store nothing
    assert sent == ["tick_all"]
