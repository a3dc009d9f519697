"""``multi_get`` rides the read frame: round trips and failure parity.

A batched read is one request per server *process*, whatever number of
logical servers and instances its keys spread over; between processes
the frame chains through the ``rest`` each one hands back. The lenient
failure policy on top of it must still agree with the per-key path key
for key while one server crashes, fails over and recovers under it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.engine.engine import EngineConfig, RecommenderEngine
from repro.runtime import ProcessSubstrate, SimSubstrate
from repro.topology.state import StateKeys

from tests.retrieval.helpers import seeded_index, seeded_store, sent_requests

SERVERS = 4


class TestRoundTrips:
    def test_one_request_per_batched_read_on_one_host_process(
        self, monkeypatch
    ):
        __, users, cold = seeded_index()
        window = users[:7] + [cold]
        with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
            client = seeded_store(substrate).client()
            engine = RecommenderEngine(client, EngineConfig())
            want = {u: engine.recommend_cf(u, 10, 0.0) for u in window}
            with sent_requests(monkeypatch) as sent:
                batch = engine.recommend_cf_batch(window, 10, 0.0)
            # users, sim lists, hot lists: 16 + ~30 + 1 keys over four
            # logical servers (8-12 requests when each was asked alone)
            assert sent == ["gather"] * 3
            assert client.batch_ops == len(sent)
        assert {u: batch[u].results for u in window} == want

    def test_the_frame_chains_through_two_host_processes(self, monkeypatch):
        __, users, cold = seeded_index()
        keys = [StateKeys.recent(u) for u in users[:40]]
        keys += [StateKeys.history(u) for u in users[:40]]
        keys += [StateKeys.recent(cold), "never:written"]
        with ProcessSubstrate(worker_procs=1, server_procs=2) as substrate:
            client = seeded_store(substrate).client()
            want = {key: client.get(key, "absent") for key in keys}
            with sent_requests(monkeypatch) as sent:
                got = client.multi_get(keys, "absent")
            assert sent == ["gather"] * 2  # 82 keys, 4 servers, 2 processes
            assert got == want and list(got) == keys
            assert client.last_failed_keys == frozenset()
            engine = RecommenderEngine(client, EngineConfig())
            with sent_requests(monkeypatch) as sent:
                engine.recommend_cf_batch(users[:8], 10, 0.0)
            assert 3 <= len(sent) <= 6  # at most two requests per hop


KEYS = [f"key:{n}" for n in range(12)]


class MultiGetUnderFailover(RuleBasedStateMachine):
    """``multi_get(keys, d) == {k: get(k, d)}`` while one of four
    servers crashes, is failed over and recovers: whichever path meets
    the dead server first drives the failover, and both read every
    acknowledged write."""

    @initialize()
    def build(self):
        self.substrate = SimSubstrate()
        self.cluster = self.substrate.build_tdstore(SERVERS, 8)
        self.reader = self.cluster.client()
        self.model: dict = {}
        self.down = None

    @rule(key=st.sampled_from(KEYS), value=st.integers(0, 99))
    def write(self, key, value):
        self.cluster.client().put(key, value)
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        self.cluster.client().delete(key)
        self.model.pop(key, None)

    @rule()
    def sync(self):
        self.cluster.sync_replicas()

    @precondition(lambda self: self.down is None)
    @rule(key=st.sampled_from(KEYS))
    def crash_host_of(self, key):
        self.down = self.cluster.config.route_table().route_for_key(key).host
        self.cluster.crash_data_server(self.down)

    @precondition(lambda self: self.down is not None)
    @rule(failed_over=st.booleans())
    def recover(self, failed_over):
        if failed_over:
            self.cluster.config.handle_server_failure(self.down)
        self.cluster.recover_data_server(self.down)
        self.down = None

    @rule(keys=st.permutations(KEYS + ["missing"]), batch_first=st.booleans())
    def read(self, keys, batch_first):
        if batch_first:
            got = self.reader.multi_get(keys, "absent")
        per_key = {key: self.reader.get(key, "absent") for key in keys}
        if not batch_first:
            got = self.reader.multi_get(keys, "absent")
        assert got == per_key
        assert got == {key: self.model.get(key, "absent") for key in keys}
        assert self.reader.last_failed_keys == frozenset()

    def teardown(self):
        self.substrate.teardown()


TestMultiGetUnderFailover = MultiGetUnderFailover.TestCase
TestMultiGetUnderFailover.settings = settings(
    max_examples=200, stateful_step_count=25, deadline=None
)
