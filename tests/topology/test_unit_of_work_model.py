"""Stateful model test of ``CachedStore`` as the unit of work of a wave.

Hypothesis drives the three tasks of one component — each a bolt-shaped
program over a ``CachedStore`` of its own, owning its own keys — through
the executors' ``execute_wave``: one gather and one commit for the
tasks that have tuples. The TDStore is a small simulated one whose three
data servers each stand for a server process of their own, so every
commit splits into several envelopes. The schedule mixes duplicate
deliveries, task kills, and commits cut at
any op prefix — inside one task's writes or between two tasks' — or
between two envelopes; a failed commit costs every task of the wave its
memory (each store refuses further use) and the wave is replayed.
Every tuple declares what it reads: an undeclared read is refused
(``tests/topology/test_state.py``), so there is no second path to model.
Whenever the stream is settled, the store and its journals must equal a
sequential model that applied every op id exactly once, store by store.
The executor's sink — what feeds the invalidation bus — hears nothing
from a cut commit, and after a landed one it names every key the wave
changed and every key a tuple of it probed (a replay that finds its op
journaled changes nothing, yet its first commit's sink never heard).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.errors import TDStoreError
from repro.runtime import SimSubstrate
from repro.storm.cluster import execute_wave
from repro.tdstore.engines import JOURNAL_PREFIX
from repro.topology.state import CachedStore, Reads

from tests.topology.helpers import EnvelopeClient

KEYS = ("a", "b", "c", "d")  # key k belongs to task KEYS.index(k) % TASKS
TASKS = 3


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
    def __init__(self, seq, key, delta):
        self.op = f"src@{seq}"
        self.key = key
        self.delta = delta


class Task:
    """One task of the component: the executor's view (``instance``,
    ``to_gather``, ``to_commit``) and the bolt's program."""

    def __init__(self, machine):
        self.machine = machine
        self.instance = self
        self.start()

    def start(self):
        """A fresh instance: no cache, no dedup ledger."""
        self.store = CachedStore(self.machine.client)
        self.ledger: set[str] = set()
        self.handed_over = False

    @staticmethod
    def reads(tup: Tuple) -> Reads:
        members = f"members:{tup.key}"
        count = f"count:{tup.key}"
        return Reads(
            probes=((members, tup.op), (count, tup.op + "#inc")),
            owned=(members, count, f"touched:{tup.key}"),
            fresh=(f"peer:{tup.key}",),
        )

    def to_gather(self, tuples):
        return self.store.to_gather(map(self.reads, tuples))

    def to_commit(self):
        entry = self.store.to_commit()
        self.handed_over = True
        return entry

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
        assert store.get_fresh(f"peer:{tup.key}", 0) == self.machine.peers[tup.key]
        store.put(f"scratch:{tup.key}", tup.op)
        store.put(f"side:{tup.key}:{tup.op}", tup.delta)
        store.apply(f"count:{tup.key}", tup.op + "#inc", tup.delta)
        store.incr(f"touched:{tup.key}", 0.0)
        store.delete(f"scratch:{tup.key}")
        assert store.get(f"scratch:{tup.key}", None) is None
        store.put_once(members_key, tup.op, sorted(members + [tup.op]))
        self.ledger.add(tup.op)


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
        self.peers = {key: 0 for key in KEYS}  # another component's keys
        self.delivered: dict[str, Tuple] = {}
        self.inbox: list[Tuple] = []
        self.failed: list[Tuple] = []
        self.tasks = [Task(self) for __ in range(TASKS)]

    # -- the executor ------------------------------------------------------

    @staticmethod
    def execute_one(task: Task, tup: Tuple):
        try:
            task.execute(tup)
        except Cut as exc:
            return exc
        return None

    @staticmethod
    def restart(task: Task):
        # the failed commit — whichever task's writes it broke in — left
        # every store that had handed it writes unusable
        if task.handed_over:
            with pytest.raises(Cut):
                task.store.get("members:a")
        task.start()

    def run_wave(self):
        """One component wave as the executors run it: the tuples go to
        the tasks owning their keys, and ``execute_wave`` brackets the
        slices with one gather and one commit. A tuple that fails does
        not stop the wave; a refused gather or a failed commit puts every
        tuple of it back, ahead of the next wave's, the commit restarting
        every task in it."""
        tuples = self.failed + self.inbox
        self.failed, self.inbox = [], []
        slices = [
            (task, [t for t in tuples if KEYS.index(t.key) % TASKS == index])
            for index, task in enumerate(self.tasks)
        ]
        slices = [(task, own) for task, own in slices if own]
        before = self.contents()
        sunk: list[list] = []
        try:
            outcomes, wave_error = execute_wave(
                slices, self.restart, self.execute_one, sink=sunk.append
            )
        finally:
            self.client.ops_left = None
            self.cut["envelopes_left"] = None
        for (task, own), errors in zip(slices, outcomes):
            task.handed_over = False
            for tup, error in zip(own, errors):
                error = error or wave_error
                if error is not None:
                    if not isinstance(error, Cut):
                        raise error  # a failed check, not an injected loss
                    self.failed.append(tup)
        if self.failed:
            # only a cut commit fails a tuple here: the sink heard nothing
            assert sunk == []
            return
        [keys] = sunk
        after = self.contents()
        changed = {
            key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)
        }
        assert changed <= set(keys)
        assert {f"members:{tup.key}" for tup in tuples} <= set(keys)

    def contents(self) -> dict:
        """The component's keys as the store holds them (no journals,
        versions or another component's keys)."""
        merged: dict = {}
        for data in self.cluster.snapshot_contents().values():
            merged.update(data)
        return {
            key: value for key, value in merged.items()
            if not key.startswith((JOURNAL_PREFIX, "peer:", "__ver__:"))
        }

    # -- the schedule ------------------------------------------------------

    @rule(
        peer=st.one_of(
            st.none(), st.tuples(st.sampled_from(KEYS), st.integers(1, 9))
        ),
        kill=st.one_of(st.none(), st.integers(0, TASKS - 1)),
        batch=st.lists(
            st.tuples(
                st.sampled_from(KEYS),
                st.sampled_from((1.0, 2.0, 0.5)),
                st.booleans(),  # is a re-delivery of an earlier tuple
            ),
            min_size=1,
            max_size=6,
        ),
        cut=st.one_of(
            st.none(),
            st.tuples(st.just("ops"), st.integers(0, 24)),
            st.tuples(st.just("envelopes"), st.integers(0, 6)),
        ),
    )
    def deliver_wave(self, peer, kill, batch, cut):
        """Between waves another component may write its keys and a task
        of this one may be killed; then new tuples and duplicates arrive
        and their wave runs, its commit possibly cut at an op prefix or
        between two envelopes."""
        if peer is not None:
            self.peers[peer[0]] = peer[1]
            self.cluster.client().put(f"peer:{peer[0]}", peer[1])
        if kill is not None:
            self.tasks[kill].start()
        for key, delta, duplicate in batch:
            earlier = [t for t in self.delivered.values() if t.key == key]
            if duplicate and earlier:
                self.inbox.append(earlier[-1])
                continue
            tup = Tuple(len(self.delivered), key, delta)
            self.delivered[tup.op] = tup
            self.inbox.append(tup)
        if cut is not None and cut[0] == "ops":
            self.client.ops_left = cut[1]
        elif cut is not None:
            self.cut["envelopes_left"] = cut[1]
        self.run_wave()

    @rule()
    def settle_and_compare(self):
        while self.failed or self.inbox:
            self.run_wave()
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
