"""Association-rule units (the ARBolt of Figure 6).

:class:`ARSessionBolt` (grouped by user) tracks per-user sessions and
emits item and pair support increments; :class:`ARCountBolt` (grouped by
item / pair key) owns the support counters in TDStore.
"""

from __future__ import annotations

from typing import Callable

from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.state import CachedStore, StateKeys, StoreBacked

ClientFactory = Callable[[], TDStoreClient]


class ARSessionBolt(ExactlyOnceBolt):
    """Grouped by user: sessionizes actions, emits support increments."""

    def __init__(self, session_gap: float = 1800.0):
        super().__init__()
        self._session_gap = session_gap
        self._sessions: dict[str, tuple[set[str], float]] = {}

    def declare_outputs(self, declarer):
        declarer.declare(("item",), "ar_item")
        declarer.declare(("pair_a", "pair_b"), "ar_pair")

    def process(self, tup: StormTuple):
        user, item, now = tup["user"], tup["item"], tup["timestamp"]
        session_items, last_seen = self._sessions.get(user, (set(), now))
        if now - last_seen > self._session_gap:
            session_items = set()
        if item not in session_items:
            self.collector.emit((item,), stream_id="ar_item")
            for other in session_items:
                first, second = (item, other) if item < other else (other, item)
                self.collector.emit((first, second), stream_id="ar_pair")
            session_items = session_items | {item}
        self._sessions[user] = (session_items, now)

    def snapshot_app_state(self) -> dict | None:
        # open sessions exist only in task memory; a restored task must
        # keep extending them rather than re-opening every session
        return {
            "sessions": {
                user: (set(items), last_seen)
                for user, (items, last_seen) in self._sessions.items()
            }
        }

    def restore_app_state(self, state: dict):
        self._sessions = {
            user: (set(items), last_seen)
            for user, (items, last_seen) in state["sessions"].items()
        }


class ARCountBolt(StoreBacked, ExactlyOnceBolt):
    """Owns AR support counters.

    Subscribes to ``ar_item`` grouped by item and ``ar_pair`` grouped by
    the pair; also maintains the partner index used at query time.
    Support increments go through the op journal; the partner index is a
    set insertion, idempotent by construction.
    """

    def __init__(self, client_factory: ClientFactory):
        super().__init__()
        self._client_factory = client_factory

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def process(self, tup: StormTuple):
        if tup.stream_id == "ar_item":
            self._store.apply(StateKeys.ar_item(tup["item"]), tup.op_id, 1.0)
        elif tup.stream_id == "ar_pair":
            a, b = tup["pair_a"], tup["pair_b"]
            self._store.apply(StateKeys.ar_pair(a, b), tup.op_id, 1.0)
            for item, partner in ((a, b), (b, a)):
                key = StateKeys.ar_partners(item)
                partners = self._store.get_fresh(key, None) or set()
                if partner not in partners:
                    partners.add(partner)
                    self._store.put(key, partners)
