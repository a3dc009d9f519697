"""Derived op ids must not depend on the process's string-hash seed.

A bolt's n-th emission for an input tuple gets the op id
``{op}>{component}.{task}:{n}``, and the store journals dedup a replay
by that id. A worker respawned after a SIGKILL is a new process with a
new hash seed: had it iterated a ``set`` of strings to emit, the same
tuple would hand its ids to different targets the second time, and the
replay would slip past the journals (both hot lists double-counted).
"""

import json
import os
import subprocess
import sys

import repro

SCRIPT = """
import json
from repro.topology.bolts_cf import UserHistoryBolt
from repro.topology.bolts_db import GroupCountBolt
from tests.topology.helpers import (
    EnvelopeClient, Task, action_tuple, fresh_cluster, group_tuple,
)


class Recording(EnvelopeClient):
    writes = []

    def mutate(self, ops):
        self.writes.extend(args[0] for __, args in ops)
        return super().mutate(ops)


cluster = fresh_cluster()
history = Task(
    lambda: UserHistoryBolt(cluster.client, group_of=lambda user: "g3"),
    name="userHistory",
)
history.deliver(action_tuple("u1", "i1", 0, timestamp=1.0))
emitted = [
    (tup["group"], tup.op_id)
    for tup in history.emitted if tup.stream_id == "group_delta"
]

groups = Task(
    lambda: GroupCountBolt(
        lambda: Recording(cluster.client()), decay_interval=10.0
    )
)
for offset, group in enumerate(["zulu", "g3", "global", "alpha", "kilo"]):
    groups.deliver(group_tuple(group, "i1", 1.0, offset))
groups.bolt.tick(0.0)
del Recording.writes[:]
groups.bolt.tick(25.0)
groups.bolt.flush()
print(json.dumps({"emitted": emitted, "decayed": Recording.writes}))
"""


def run_under(seed: str) -> dict:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join([src, root])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_emission_and_write_order_ignore_the_hash_seed():
    runs = [run_under(seed) for seed in ("1", "3", "11")]
    assert runs[0]["emitted"] == [
        ["g3", "actions@0>userHistory.0:1"],
        ["global", "actions@0>userHistory.0:2"],
    ]
    assert runs[0]["decayed"] == [
        f"hot:{group}" for group in ("alpha", "g3", "global", "kilo", "zulu")
    ]
    assert runs[1] == runs[0] and runs[2] == runs[0]
