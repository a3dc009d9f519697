"""Situational CTR units — the ctrStore / ctrBolt pair of Figure 7.

:class:`CtrStoreBolt` (grouped by item) maintains windowless impression
and click counters per (item, situation level); :class:`CtrBolt`
recomputes the smoothed CTR for the touched (item, situation) pairs and
hands them to ResultStorage, reproducing the example topology of
Figure 7: spout -> pretreatment -> ctrStore -> ctrBolt -> resultStorage.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms.ctr import BACKOFF_LEVELS, situation_key
from repro.algorithms.demographic import age_band
from repro.storm.reliability import ExactlyOnceBolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.state import CachedStore, Reads, StateKeys, StoreBacked
from repro.types import UserProfile

ClientFactory = Callable[[], TDStoreClient]
ProfileLookup = Callable[[str], "UserProfile | None"]


# per counted action: its windowless and its session-bucketed counter key
_COUNTER_KEYS = {
    "impression": (StateKeys.impressions, StateKeys.impressions_session),
    "click": (StateKeys.clicks, StateKeys.clicks_session),
}


def profile_attributes(profile: UserProfile | None) -> dict[str, str | None]:
    if profile is None:
        return {"region": None, "gender": None, "age": None}
    return {
        "region": profile.region,
        "gender": profile.gender,
        "age": age_band(profile.age),
    }


class CtrStoreBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by item: impression/click counters per situation level.

    With ``session_seconds``/``window_sessions`` set, counters are
    bucketed by time session so CtrBolt can answer the introduction's
    "during the last ten seconds" query; without them, counters
    accumulate over the topic's lifetime.

    One input action increments up to one counter per situation level;
    each increment carries the action's op id suffixed with its level so
    every single one is independently idempotent under replay.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        profiles: ProfileLookup,
        session_seconds: float | None = None,
        window_sessions: int | None = None,
    ):
        if (session_seconds is None) != (window_sessions is None):
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "session_seconds and window_sessions must be set together"
            )
        super().__init__()
        self._client_factory = client_factory
        self._profiles = profiles
        self._session_seconds = session_seconds
        self._window_sessions = window_sessions

    def declare_outputs(self, declarer):
        declarer.declare(("item", "situation", "session"), "ctr_update")

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def _counters(self, tup: StormTuple) -> "tuple[int, list]":
        """The session of ``tup`` and the ``(situation, counter key, op
        id)`` of every situation level it counts at."""
        session = -1
        if self._session_seconds is not None:
            session = int(tup["timestamp"] // self._session_seconds)
        action = tup["action"]
        if action not in ("impression", "click"):
            return session, []
        item = tup["item"]
        whole, bucketed = _COUNTER_KEYS[action]
        attributes = profile_attributes(self._profiles(tup["user"]))
        counters = []
        for level in BACKOFF_LEVELS:
            situation = situation_key(attributes, level)
            if situation is None:
                continue
            key = (bucketed(item, situation, session) if session >= 0
                   else whole(item, situation))
            counters.append((situation, key, f"{tup.op_id}#{level}"))
        return session, counters

    def reads(self, tup: StormTuple) -> Reads:
        probes = tuple((key, op_id) for __, key, op_id in self._counters(tup)[1])
        return Reads(probes=probes, owned=tuple(key for key, __ in probes))

    def process(self, tup: StormTuple):
        session, counters = self._counters(tup)
        for situation, key, op_id in counters:
            self._store.apply(key, op_id, 1.0)
            self.collector.emit((tup["item"], situation, session),
                                stream_id="ctr_update")


class CtrBolt(StoreBacked, ExactlyOnceBolt):
    """Grouped by item: recomputes smoothed CTR for updated situations.

    ``window_sessions`` must match the upstream CtrStoreBolt: when set,
    the CTR sums the last W session buckets ending at the update's
    session — a sliding-window CTR.

    The recompute-and-overwrite is naturally idempotent; the dedup
    ledger still suppresses replays so a stale recompute cannot clobber
    a newer CTR value.
    """

    def __init__(
        self,
        client_factory: ClientFactory,
        prior_ctr: float = 0.02,
        prior_strength: float = 20.0,
        window_sessions: int | None = None,
    ):
        super().__init__()
        self._client_factory = client_factory
        self._prior_ctr = prior_ctr
        self._prior_strength = prior_strength
        self._window_sessions = window_sessions

    def declare_outputs(self, declarer):
        declarer.declare(("item", "situation", "ctr"), "ctr_value")

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def _count_keys(self, tup: StormTuple) -> "list[tuple[str, str]]":
        """The ``(impressions, clicks)`` keys the CTR of ``tup`` sums."""
        item, situation, session = tup["item"], tup["situation"], tup["session"]
        if session < 0 or self._window_sessions is None:
            return [(StateKeys.impressions(item, situation),
                     StateKeys.clicks(item, situation))]
        return [
            (StateKeys.impressions_session(item, situation, bucket),
             StateKeys.clicks_session(item, situation, bucket))
            for bucket in range(session - self._window_sessions + 1, session + 1)
        ]

    def reads(self, tup: StormTuple) -> Reads:
        # the counters are owned by CtrStoreBolt tasks: read fresh
        return Reads(fresh=sum(self._count_keys(tup), ()))

    def process(self, tup: StormTuple):
        item, situation = tup["item"], tup["situation"]
        impressions = clicks = 0.0
        for impressions_key, clicks_key in self._count_keys(tup):
            impressions += self._store.get_fresh(impressions_key, 0.0)
            clicks += self._store.get_fresh(clicks_key, 0.0)
        ctr = (clicks + self._prior_ctr * self._prior_strength) / (
            impressions + self._prior_strength
        )
        self._store.put(StateKeys.ctr(item, situation), ctr)
        self.collector.emit((item, situation, ctr), stream_id="ctr_value")
