"""A failed wave of the production spout's tuples must be re-delivered.

``TDAccessSpout`` emits without a message id, so the acker tracks no
tree, ``on_fail`` never runs and the consumer is already past the
batch: one store error in a commit loses those events for good, and the
events after them read the wrong history. The test below pins that
defect (26 of 30 history entries and an ``itemCount`` sum of 64 against
60 on this stream) until the spout replays what fails.
"""

import pytest

from repro.errors import DataServerDownError
from repro.runtime import SimSubstrate
from repro.topology.bolts_cf import UserHistoryBolt
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock

from tests.recovery.helpers import (
    TOPIC,
    USERS,
    cf_topology_factory,
    make_payloads,
    make_tdaccess,
    state_digest,
)


def run_stream(monkeypatch, fail_one_commit: bool) -> dict:
    """The CF topology over 40 actions on the simulator, optionally with
    one ``DataServerDownError`` raised from a ``userHistory`` commit and
    ``run_until_idle()`` called again, as a driver would."""
    tdaccess = make_tdaccess(make_payloads(40))
    with SimSubstrate() as substrate:
        clock = SimClock()
        store = substrate.build_tdstore(2, 8)
        cluster = substrate.build_storm(clock)
        cluster.submit(
            cf_topology_factory()(clock, store.client, tdaccess.consumer(TOPIC))
        )
        armed = [fail_one_commit]
        commit = UserHistoryBolt.to_commit

        def failing_once(self):
            if armed[0]:
                armed[0] = False
                raise DataServerDownError("injected commit failure")
            return commit(self)

        monkeypatch.setattr(UserHistoryBolt, "to_commit", failing_once)
        try:
            cluster.run_until_idle()
        except DataServerDownError:
            pass
        cluster.run_until_idle()
        assert not armed[0]
        client = store.client()
        return state_digest(client) | {
            "histories": {
                user: client.get(StateKeys.history(user), None) for user in USERS
            }
        }


@pytest.mark.xfail(
    strict=True,
    reason="TDAccessSpout is at-most-once: a failed wave is never replayed",
)
def test_a_failed_commit_is_replayed_to_the_untouched_state(monkeypatch):
    untouched = run_stream(monkeypatch, fail_one_commit=False)
    assert run_stream(monkeypatch, fail_one_commit=True) == untouched
