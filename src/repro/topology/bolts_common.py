"""Application-common units: Pretreatment, Filter, ResultStorage.

These are the blue-grey rectangles of Figure 6 — the steps every
application's topology shares.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms.ratings import ActionWeights, DEFAULT_ACTION_WEIGHTS
from repro.storm.component import Bolt
from repro.storm.tuples import StormTuple
from repro.tdstore.client import TDStoreClient
from repro.topology.spouts import USER_ACTION_FIELDS
from repro.topology.state import CachedStore, StateKeys, StoreBacked


class PretreatmentBolt(Bolt):
    """Parses raw messages, drops unqualified tuples (preprocessing layer).

    Input: ``raw_action`` tuples carrying a ``payload`` dict.
    Output: validated ``user_action`` tuples.
    """

    REQUIRED = ("user", "item", "action", "timestamp")

    def __init__(self, weights: ActionWeights = DEFAULT_ACTION_WEIGHTS):
        self._weights = weights
        self.dropped = 0

    def declare_outputs(self, declarer):
        declarer.declare(USER_ACTION_FIELDS, "user_action")

    def execute(self, tup: StormTuple):
        payload = tup["payload"]
        if not isinstance(payload, dict):
            self.dropped += 1
            return
        if any(field not in payload for field in self.REQUIRED):
            self.dropped += 1
            return
        action = payload["action"]
        if not self._weights.knows(action):
            self.dropped += 1
            return
        timestamp = payload["timestamp"]
        if not isinstance(timestamp, (int, float)) or timestamp < 0:
            self.dropped += 1
            return
        self.collector.emit(
            (str(payload["user"]), str(payload["item"]), action, float(timestamp)),
            stream_id="user_action",
        )


class FilterBolt(Bolt):
    """Application-specific filtering (storage layer of Figure 6).

    Passes through tuples for which ``predicate`` holds; the predicate
    receives the tuple's field dict. Applications configure e.g. price
    ranges or category restrictions here.
    """

    def __init__(
        self,
        predicate: Callable[[dict], bool],
        output_stream: str,
        output_fields: tuple[str, ...],
    ):
        self._predicate = predicate
        self._output_stream = output_stream
        self._output_fields = output_fields
        self.passed = 0
        self.filtered = 0

    def declare_outputs(self, declarer):
        declarer.declare(self._output_fields, self._output_stream)

    def execute(self, tup: StormTuple):
        row = tup.as_dict()
        if self._predicate(row):
            self.passed += 1
            self.collector.emit(
                tuple(row[field] for field in self._output_fields),
                stream_id=self._output_stream,
            )
        else:
            self.filtered += 1


class ResultStorageBolt(StoreBacked, Bolt):
    """Writes computation results into TDStore for the recommender engine.

    ``key_fields`` select the tuple fields forming the result key;
    ``value_fields`` the stored value (a dict). Results live under
    ``result:{kind}:{key}``.
    """

    def __init__(
        self,
        client_factory: Callable[[], TDStoreClient],
        kind: str,
        key_fields: tuple[str, ...],
        value_fields: tuple[str, ...],
    ):
        self._client_factory = client_factory
        self._kind = kind
        self._key_fields = key_fields
        self._value_fields = value_fields
        self.stored = 0

    def prepare(self, context, collector):
        super().prepare(context, collector)
        self._store = CachedStore(self._client_factory())

    def execute(self, tup: StormTuple):
        row = tup.as_dict()
        key = "|".join(str(row[field]) for field in self._key_fields)
        value = {field: row[field] for field in self._value_fields}
        self._store.put(StateKeys.result(self._kind, key), value)
        self.stored += 1
