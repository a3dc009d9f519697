"""Association-rule units (the ARBolt of Figure 6).

:class:`ARSessionBolt` (grouped by user) tracks per-user sessions and
emits item and pair support increments plus partner-index entries;
:class:`ARCountBolt` (grouped by item / pair key) owns the support
counters and the partner index in TDStore.
"""

from __future__ import annotations

from typing import Callable

from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.state import CachedStore, Reads, StateKeys, StoreBacked

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
        declarer.declare(("item", "partner"), "ar_partner")

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
                # one entry per direction, so each item's partner set is
                # written by the one task its item is grouped to
                self.collector.emit((item, other), stream_id="ar_partner")
                self.collector.emit((other, item), stream_id="ar_partner")
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
    """Owns AR support counters and the partner index.

    Subscribes to ``ar_item`` and ``ar_partner`` grouped by item and
    ``ar_pair`` grouped by the pair, so every key it writes has this
    task as its only writer. Support increments go through the op
    journal; the partner index is a set insertion, idempotent by
    construction.
    """

    def __init__(self, client_factory: ClientFactory):
        super().__init__()
        self._client_factory = client_factory

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def reads(self, tup: StormTuple) -> Reads:
        if tup.stream_id == "ar_partner":
            return Reads(owned=(StateKeys.ar_partners(tup["item"]),))
        key = self._support_key(tup)
        return Reads(probes=((key, tup.op_id),), owned=(key,))

    @staticmethod
    def _support_key(tup: StormTuple) -> str:
        if tup.stream_id == "ar_item":
            return StateKeys.ar_item(tup["item"])
        return StateKeys.ar_pair(tup["pair_a"], tup["pair_b"])

    def process(self, tup: StormTuple):
        if tup.stream_id != "ar_partner":
            self._store.apply(self._support_key(tup), tup.op_id, 1.0)
            return
        key = StateKeys.ar_partners(tup["item"])
        partners = self._store.get(key, None) or set()
        if tup["partner"] not in partners:
            # extend a copy: the cached set is the one a failed commit
            # must leave untouched
            self._store.put(key, partners | {tup["partner"]})
