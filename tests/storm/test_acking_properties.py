"""Property-style tests of the acking machinery.

Random but seeded interleavings of emit / child-emit / ack / fail /
double-ack are driven through a real :class:`Acker` wired to a minimal
replaying spout. Whatever the interleaving, the conservation law must
hold: every row completes, and no tuple tree is left pending.
"""

import random
from collections import deque

from repro.storm.acking import Acker


class ReplayingSpout:
    """Storm's pending-buffer spout: a row stays pending until its tree
    completes, and a failed tree's row goes back to the front."""

    def __init__(self, rows):
        self._queue = deque(enumerate(rows))
        self._pending: dict[int, tuple] = {}
        self.completed = 0
        self.duplicate_acks = 0

    def next_tuple(self):
        if self._queue:
            message_id, row = self._queue.popleft()
            self._pending[message_id] = row
            self.collector.emit(row, message_id=message_id)

    def on_ack(self, message_id):
        if self._pending.pop(message_id, None) is None:
            self.duplicate_acks += 1
        else:
            self.completed += 1

    def on_fail(self, message_id):
        row = self._pending.pop(message_id, None)
        if row is not None:
            self._queue.appendleft((message_id, row))

    def fully_processed(self):
        return not self._queue and not self._pending


class _Emitted:
    """One live tuple instance: its tree roots and settled flag."""

    def __init__(self, root_ids):
        self.root_ids = root_ids
        self.settled = False


class _SpoutCollector:
    """Stub collector registering each spout emission with the acker."""

    def __init__(self, acker, live):
        self._acker = acker
        self._live = live

    def emit(self, row, stream_id="default", message_id=None, op_id=None):
        root_id = self._acker.register_root(message_id, "spout")
        self._live.append(_Emitted(frozenset({root_id})))


def run_interleaving(seed, n_rows=20):
    rng = random.Random(seed)
    spout = ReplayingSpout([(f"r{i}",) for i in range(n_rows)])
    acker = Acker()
    live: list[_Emitted] = []
    spout.collector = _SpoutCollector(acker, live)

    def notify(spout_name, message_id, ok):
        if ok:
            spout.on_ack(message_id)
        else:
            spout.on_fail(message_id)

    for _ in range(160 * n_rows):
        if spout.fully_processed():
            break
        open_tuples = [t for t in live if not t.settled]
        # bias toward settling so the run terminates; a small tail of
        # child-emissions, failures, and double-acks keeps it adversarial
        action = rng.random()
        if action < 0.35 or not open_tuples:
            spout.next_tuple()
        elif action < 0.50:
            parent = rng.choice(open_tuples)
            acker.on_emit(parent.root_ids)
            live.append(_Emitted(parent.root_ids))
        elif action < 0.60:
            victim = rng.choice(open_tuples)
            victim.settled = True
            acker.on_fail(victim.root_ids, notify)
        elif action < 0.65 and any(t.settled for t in live):
            # a buggy bolt re-acking a settled tuple: must be absorbed
            acker.on_ack(rng.choice([t for t in live if t.settled]).root_ids,
                         notify)
        else:
            chosen = rng.choice(open_tuples)
            chosen.settled = True
            acker.on_ack(chosen.root_ids, notify)
    else:
        raise AssertionError(f"seed {seed}: interleaving did not terminate")
    return spout, acker


class TestAckingConservation:
    def test_every_row_completes(self):
        for seed in range(12):
            spout, acker = run_interleaving(seed)
            assert spout.completed == 20, f"seed {seed}: {spout.completed} of 20"
            assert spout.fully_processed(), f"seed {seed}: rows in flight"
            assert acker.pending_trees() == 0, f"seed {seed}: leaked trees"

    def test_double_acks_on_settled_trees_absorbed(self):
        # acking a tree the acker already settled (root gone) must be a
        # silent no-op in every interleaving — never an exception
        for seed in range(12):
            spout, acker = run_interleaving(seed)
            assert spout.duplicate_acks == 0  # acker absorbed them first

    def test_over_acked_tree_counted_not_raised(self):
        # a zero-pending root can only appear through state corruption
        # (e.g. a restored manifest from a buggy build); the acker must
        # count the anomaly and keep draining the healthy roots in the
        # same call instead of wedging mid-notify
        acker = Acker()
        bad = acker.register_root("bad", "spout")
        good = acker.register_root("good", "spout")
        acker._roots[bad].pending = 0
        completed = []
        acker.on_ack(
            frozenset({bad, good}),
            lambda spout_name, message_id, ok: completed.append(message_id),
        )
        assert acker.anomalies == 1
        assert completed == ["good"]
        assert acker.pending_trees() == 1  # the corrupt root stays parked
