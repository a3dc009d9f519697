"""Drive one bolt the way an executor drives a task, and break its commit.

Shared by the unit-level replay suites (``test_replay_commit``,
``tests/serving/test_coalesce_replay``, ``tests/retrieval/test_vq``):
bolts buffer their writes and the executor commits them per component
wave, so a test that calls ``bolt.execute`` on its own sees nothing in
the store. Here the wave is the one task: the executors'
``execute_wave`` runs over it alone, so an injected fault lands inside
the merged commit.
"""

from repro.errors import DataServerDownError
from repro.storm.cluster import execute_wave
from repro.storm.component import OutputCollector, TopologyContext
from repro.storm.streams import OutputDeclaration
from repro.storm.tuples import StormTuple
from repro.tdstore.cluster import TDStoreCluster


class Task:
    """One bolt behind the executor's wave protocol.

    ``deliver(*tuples)`` runs one wave of one — gather, execute each
    tuple with its input identity installed (so emissions derive
    replay-stable op ids), commit, hand the committed keys to ``sink``
    — and raises the first tuple's error. Like the executors it answers
    a failed commit by replacing the instance: ``bolt`` is then a fresh
    one from ``make_bolt``. ``emitted`` collects emissions across
    instances.
    """

    def __init__(self, make_bolt, name="bolt", sink=None):
        self._make_bolt = make_bolt
        self._name = name
        self._sink = sink
        self.emitted: list[StormTuple] = []
        self.restarts = 0
        self._start()

    @property
    def instance(self):
        return self.bolt

    @property
    def collector(self):
        return self.bolt.collector

    def _start(self):
        self.bolt = bolt = self._make_bolt()
        declaration = OutputDeclaration()
        bolt.declare_outputs(declaration)
        collector = OutputCollector(
            self._name, 0, declaration,
            emit_fn=lambda tup, message_id: self.emitted.append(tup),
            ack_fn=lambda tup: None,
            fail_fn=lambda tup: None,
            clock_now=lambda: 0.0,
        )
        bolt.prepare(TopologyContext(self._name, 0, 1, "test"), collector)

    def deliver(self, *tuples):
        [errors], wave_error = execute_wave(
            [(self, tuples)], self._restart, sink=self._sink
        )
        for error in errors:
            if error is not None or wave_error is not None:
                raise error or wave_error

    def _restart(self, task):
        self.restarts += 1
        self._start()


class EnvelopeClient:
    """Client proxy whose every write — buffered list or single op —
    passes through :meth:`mutate`, the one place a subclass breaks."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def mutate(self, ops):
        return self._inner.mutate(ops)

    def put(self, key, value):
        return self.mutate([("put", (key, value))])[0]

    def delete(self, key):
        return self.mutate([("delete", (key,))])[0]

    def put_once(self, key, op_id, value):
        return self.mutate([("put_once", (key, op_id, value))])[0]

    def apply(self, key, op_id, delta=1.0):
        return self.mutate([("apply_op", (key, op_id, delta))])[0]


class FlakyClient(EnvelopeClient):
    """Fails one flush, once, at its first write of one kind.

    The writes ahead of it in the buffer land, it and the rest do not —
    the op prefix a flush leaves when the envelope to a second server
    process is the one that fails.
    """

    def __init__(self, inner, fail_method):
        super().__init__(inner)
        self._fail_method = fail_method
        self.failed = False

    def mutate(self, ops):
        if not self.failed:
            for at, (method, __) in enumerate(ops):
                if method == self._fail_method:
                    self.failed = True
                    if at:
                        self._inner.mutate(ops[:at])
                    raise DataServerDownError("injected mid-flush failure")
        return self._inner.mutate(ops)


def action_tuple(user, item, offset, action="click", timestamp=0.0):
    return StormTuple(
        (user, item, action, timestamp),
        ("user", "item", "action", "timestamp"),
        "default",
        "source",
        op_id=f"actions@{offset}",
    )


def sim_tuple(item, other, similarity, offset):
    return StormTuple(
        (item, other, similarity),
        ("item", "other", "similarity"),
        "sim_update",
        "pairCount",
        op_id=f"actions@{offset}>pairCount.0:0",
    )


def prune_tuple(item, other, offset):
    return StormTuple(
        (item, other),
        ("item", "other"),
        "prune",
        "pairCount",
        op_id=f"actions@{offset}>pairCount.0:0",
    )


def group_tuple(group, item, delta, offset):
    return StormTuple(
        (group, item, delta),
        ("group", "item", "delta"),
        "group_delta",
        "userHistory",
        op_id=f"actions@{offset}>userHistory.0:1",
    )


def fresh_cluster():
    return TDStoreCluster(num_data_servers=3, num_instances=8)
