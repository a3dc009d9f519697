"""Stateful model test of ``CachedStore`` as a task's unit of work.

Hypothesis drives one task — a bolt-shaped program over a
``CachedStore`` — against a small simulated TDStore whose three data
servers each stand for a server process of their own, so every flush
splits into several envelopes. The schedule mixes declared and
undeclared tuples, duplicate deliveries, task kills, and flushes cut at
any op prefix or between two envelopes; a failed slice costs the task
its memory and is replayed. Whenever the stream is settled, the store
and its journals must equal a sequential model that applied every op id
exactly once.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.errors import TDStoreError
from repro.runtime import SimSubstrate
from repro.tdstore.engines import JOURNAL_PREFIX
from repro.topology.state import CachedStore, Reads

from tests.topology.helpers import EnvelopeClient

KEYS = ("a", "b")


class Cut(TDStoreError):
    """The injected loss of the store mid-flush (not a failover case:
    the client must not absorb it)."""


class CuttingClient(EnvelopeClient):
    """Ships only the first ``ops_left`` buffered ops, then fails."""

    ops_left = None

    def mutate(self, ops):
        if self.ops_left is None:
            return self._inner.mutate(ops)
        if len(ops) > self.ops_left:
            if self.ops_left:
                self._inner.mutate(ops[: self.ops_left])
            self.ops_left = 0
            raise Cut("flush cut at an op prefix")
        self.ops_left -= len(ops)
        return self._inner.mutate(ops)


class CuttingServer:
    """One data server; refuses envelopes once the shared budget of
    ``state['envelopes_left']`` is spent."""

    def __init__(self, server, state):
        self._server = server
        self._state = state

    def __getattr__(self, name):
        return getattr(self._server, name)

    def mutate(self, ops):
        left = self._state["envelopes_left"]
        if left is not None:
            if left == 0:
                raise Cut("flush cut between two envelopes")
            self._state["envelopes_left"] = left - 1
        return self._server.mutate(ops)


class Tuple:
    def __init__(self, seq, key, delta, declared):
        self.op = f"src@{seq}"
        self.key = key
        self.delta = delta
        self.declared = declared


class UnitOfWorkMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.substrate = SimSubstrate()
        self.cluster = self.substrate.build_tdstore(3, 6)
        self.cut = {"envelopes_left": None}
        for server in self.cluster.data_servers:
            server.colocate({})  # a process of its own
            self.cluster.config._servers[server.server_id] = CuttingServer(
                server, self.cut
            )
        self.client = CuttingClient(self.cluster.client())
        self.peers = {key: 0 for key in KEYS}  # another task's keys
        self.delivered: dict[str, Tuple] = {}
        self.inbox: list[Tuple] = []
        self.failed: list[Tuple] = []
        self.start_task()

    def start_task(self):
        """A fresh instance: no cache, no dedup ledger."""
        self.store = CachedStore(self.client)
        self.ledger: set[str] = set()

    # -- the task ----------------------------------------------------------

    @staticmethod
    def reads(tup: Tuple) -> "Reads | None":
        if not tup.declared:
            return None
        members = f"members:{tup.key}"
        count = f"count:{tup.key}"
        return Reads(
            probes=((members, tup.op), (count, tup.op + "#inc")),
            owned=(members, count),
            fresh=(f"peer:{tup.key}",),
        )

    def execute(self, tup: Tuple):
        """A bolt's shape: ledger, probe, compute on copies, idempotent
        side writes, journaled count, cleanup, commit last."""
        store = self.store
        if tup.op in self.ledger:
            return
        members_key = f"members:{tup.key}"
        if store.op_seen(members_key, tup.op):
            self.ledger.add(tup.op)
            return
        members = list(store.get(members_key, None) or [])
        # a key another task owns is never served stale
        assert store.get_fresh(f"peer:{tup.key}", 0) == self.peers[tup.key]
        store.put(f"scratch:{tup.key}", tup.op)
        store.put(f"side:{tup.key}:{tup.op}", tup.delta)
        store.apply(f"count:{tup.key}", tup.op + "#inc", tup.delta)
        store.incr(f"touched:{tup.key}", 0.0)
        store.delete(f"scratch:{tup.key}")
        assert store.get(f"scratch:{tup.key}", None) is None
        store.put_once(members_key, tup.op, sorted(members + [tup.op]))
        self.ledger.add(tup.op)

    def run_slice(self):
        """prefetch -> execute each -> flush, as a worker does: a tuple
        that fails does not stop the slice, a flush that fails fails
        every tuple of it and restarts the task."""
        tuples = self.failed + self.inbox
        self.failed, self.inbox = [], []
        try:
            self.store.prefetch(map(self.reads, tuples))
            for tup in tuples:
                try:
                    self.execute(tup)
                except Cut:
                    self.failed.append(tup)
            self.store.flush()
        except Cut:
            self.failed = tuples
            self.start_task()
        finally:
            self.client.ops_left = None
            self.cut["envelopes_left"] = None

    # -- the schedule ------------------------------------------------------

    @rule(
        peer=st.one_of(
            st.none(), st.tuples(st.sampled_from(KEYS), st.integers(1, 9))
        ),
        kill=st.booleans(),
        batch=st.lists(
            st.tuples(
                st.sampled_from(KEYS),
                st.sampled_from((1.0, 2.0, 0.5)),
                st.booleans(),  # declares its reads
                st.booleans(),  # is a re-delivery of an earlier tuple
            ),
            min_size=1,
            max_size=4,
        ),
        cut=st.one_of(
            st.none(),
            st.tuples(st.just("ops"), st.integers(0, 12)),
            st.tuples(st.just("envelopes"), st.integers(0, 6)),
        ),
    )
    def deliver_slice(self, peer, kill, batch, cut):
        """Between slices another task may write its keys and this one
        may be killed; then new tuples and duplicates arrive and their
        slice runs, its flush possibly cut at an op prefix or between
        two envelopes."""
        if peer is not None:
            self.peers[peer[0]] = peer[1]
            self.cluster.client().put(f"peer:{peer[0]}", peer[1])
        if kill:
            self.start_task()
        for key, delta, declared, duplicate in batch:
            earlier = [t for t in self.delivered.values() if t.key == key]
            if duplicate and earlier:
                self.inbox.append(earlier[-1])
                continue
            tup = Tuple(len(self.delivered), key, delta, declared)
            self.delivered[tup.op] = tup
            self.inbox.append(tup)
        if cut is not None and cut[0] == "ops":
            self.client.ops_left = cut[1]
        elif cut is not None:
            self.cut["envelopes_left"] = cut[1]
        self.run_slice()

    @rule()
    def settle_and_compare(self):
        while self.failed or self.inbox:
            self.run_slice()
        merged: dict = {}
        for data in self.cluster.snapshot_contents().values():
            merged.update(data)
        actual = {
            key: sorted(value) if key.startswith(JOURNAL_PREFIX) else value
            for key, value in merged.items()
            if not key.startswith(("peer:", "__ver__:"))
        }
        assert actual == self.model()

    def model(self) -> dict:
        """Every delivered op id applied exactly once, in any order."""
        want: dict = {}
        by_key: dict[str, list[Tuple]] = {}
        for tup in self.delivered.values():
            by_key.setdefault(tup.key, []).append(tup)
        for key, tuples in by_key.items():
            ops = sorted(tup.op for tup in tuples)
            want[f"members:{key}"] = ops
            want[f"{JOURNAL_PREFIX}members:{key}"] = ops
            want[f"count:{key}"] = sum(tup.delta for tup in tuples)
            want[f"{JOURNAL_PREFIX}count:{key}"] = sorted(
                op + "#inc" for op in ops
            )
            want[f"touched:{key}"] = 0.0
            for tup in tuples:
                want[f"side:{key}:{tup.op}"] = tup.delta
        return want

    def teardown(self):
        if hasattr(self, "substrate"):
            self.settle_and_compare()
            self.substrate.teardown()


TestUnitOfWork = UnitOfWorkMachine.TestCase
TestUnitOfWork.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None
)
