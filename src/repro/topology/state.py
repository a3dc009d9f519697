"""Status-data access with the paper's optimizations.

:class:`StateKeys` is the single place TDStore key formats are defined.
:class:`CachedStore` is the fine-grained cache of Section 5.2: because
stream grouping sends all tuples with one key to one worker, a task may
cache the keys *it owns* and write through; keys owned by other tasks
must be read fresh. :class:`Combiner` is the partial-aggregation map of
Section 5.3, flushed at tick intervals, collapsing the hot-item write
storm into one read-modify-write per key per interval.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.tdstore.client import TDStoreClient


class StateKeys:
    """Key-format conventions for recommendation state in TDStore."""

    @staticmethod
    def history(user: str) -> str:
        return f"hist:{user}"

    @staticmethod
    def recent(user: str) -> str:
        return f"recent:{user}"

    @staticmethod
    def consumed(user: str) -> str:
        return f"consumed:{user}"

    @staticmethod
    def item_count(item: str) -> str:
        return f"itemCount:{item}"

    @staticmethod
    def pair_count(a: str, b: str) -> str:
        first, second = (a, b) if a < b else (b, a)
        return f"pairCount:{first}|{second}"

    @staticmethod
    def sim_list(item: str) -> str:
        return f"simlist:{item}"

    @staticmethod
    def threshold(item: str) -> str:
        return f"threshold:{item}"

    @staticmethod
    def pruned(item: str) -> str:
        return f"pruned:{item}"

    @staticmethod
    def hot(group: str) -> str:
        return f"hot:{group}"

    @staticmethod
    def profile(user: str) -> str:
        return f"profile:{user}"

    @staticmethod
    def item_meta(item: str) -> str:
        return f"item:{item}"

    @staticmethod
    def tag_index(tag: str) -> str:
        return f"tagidx:{tag}"

    @staticmethod
    def ar_item(item: str) -> str:
        return f"arItem:{item}"

    @staticmethod
    def ar_pair(a: str, b: str) -> str:
        first, second = (a, b) if a < b else (b, a)
        return f"arPair:{first}|{second}"

    @staticmethod
    def ar_partners(item: str) -> str:
        return f"arPartners:{item}"

    @staticmethod
    def impressions(item: str, situation: str) -> str:
        return f"imp:{item}|{situation}"

    @staticmethod
    def clicks(item: str, situation: str) -> str:
        return f"clk:{item}|{situation}"

    @staticmethod
    def impressions_session(item: str, situation: str, session: int) -> str:
        return f"impw:{item}|{situation}|{session}"

    @staticmethod
    def clicks_session(item: str, situation: str, session: int) -> str:
        return f"clkw:{item}|{situation}|{session}"

    @staticmethod
    def ctr(item: str, situation: str) -> str:
        return f"ctr:{item}|{situation}"

    @staticmethod
    def result(kind: str, key: str) -> str:
        return f"result:{kind}:{key}"


class CachedStore:
    """Read-through / write-through cache over a TDStore client.

    Valid only for keys this task owns (same-key-same-worker, enforced by
    stream grouping); for keys owned by other tasks use
    :meth:`get_fresh`, which bypasses the cache.
    """

    def __init__(self, client: TDStoreClient):
        self._client = client
        self._cache: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        value = self._client.get(key, default)
        self._cache[key] = value
        return value

    def get_fresh(self, key: str, default: Any = None) -> Any:
        """Read straight from TDStore (for keys another task owns)."""
        return self._client.get(key, default)

    def put(self, key: str, value: Any):
        """Write-through: update the cache and TDStore together (§5.2)."""
        self._cache[key] = value
        self._client.put(key, value)

    def incr(self, key: str, delta: float) -> float:
        value = self.get(key, 0.0) + delta
        self.put(key, value)
        return value

    def apply(self, key: str, op_id: str, delta: float) -> tuple[float, bool]:
        """Idempotent increment through the store's op journal.

        Like :meth:`incr` but replay-safe: a duplicate ``op_id`` leaves
        the value untouched. The cache is primed with the authoritative
        result either way.
        """
        value, applied = self._client.apply(key, op_id, delta)
        self._cache[key] = value
        return value, applied

    def put_once(self, key: str, op_id: str, value: Any) -> bool:
        """Write-through idempotent put — the atomic commit point for
        read-modify-write updates (compute from copies, commit last)."""
        applied = self._client.put_once(key, op_id, value)
        if applied:
            self._cache[key] = value
        else:
            # replay: the store kept the (authoritative) earlier value
            self._cache.pop(key, None)
        return applied

    def op_seen(self, key: str, op_id: str) -> bool:
        """True when ``op_id`` already committed against ``key`` (pure read)."""
        return self._client.op_seen(key, op_id)

    def delete(self, key: str):
        """Write-through delete: drop the key from the cache and TDStore.

        Deleting an absent key is a no-op, so re-executed cleanup (e.g.
        a replayed centroid merge) stays idempotent.
        """
        self._cache.pop(key, None)
        self._client.delete(key)

    def invalidate(self, key: str | None = None):
        if key is None:
            self._cache.clear()
        else:
            self._cache.pop(key, None)

    @property
    def client(self) -> TDStoreClient:
        return self._client


class Combiner:
    """Partial aggregation buffer (Section 5.3).

    Incoming deltas for the same key merge in memory; ``flush`` applies
    the merged values to the store with one read-modify-write per key.
    ``combine`` picks the merge operation: ``"add"`` (counts) or ``"max"``
    (ratings).
    """

    _OPS: dict[str, Callable[[float, float], float]] = {
        "add": lambda a, b: a + b,
        "max": max,
    }

    def __init__(self, store: CachedStore, combine: str = "add"):
        if combine not in self._OPS:
            raise ConfigurationError(
                f"unknown combine op {combine!r}; expected one of "
                f"{sorted(self._OPS)}"
            )
        self._store = store
        self._op = self._OPS[combine]
        self._combine_name = combine
        self._buffer: dict[str, float] = {}
        self.merged = 0
        self.flushes = 0
        self.flushed_keys = 0

    def add(self, key: str, value: float):
        if key in self._buffer:
            self._buffer[key] = self._op(self._buffer[key], value)
            self.merged += 1
        else:
            self._buffer[key] = value

    def pending(self) -> int:
        return len(self._buffer)

    def peek(self, key: str) -> float | None:
        """Buffered (not yet flushed) value for ``key``, if any."""
        return self._buffer.get(key)

    def snapshot_buffer(self) -> dict[str, float]:
        """Unflushed deltas, for the checkpoint protocol: a crash between
        ticks must not lose partial aggregates."""
        return dict(self._buffer)

    def restore_buffer(self, buffer: dict[str, float]):
        self._buffer = dict(buffer)

    def flush(self):
        """Apply all buffered values to the store."""
        for key, value in self._buffer.items():
            if self._combine_name == "add":
                self._store.incr(key, value)
            else:
                current = self._store.get(key, 0.0)
                self._store.put(key, self._op(current, value))
            self.flushed_keys += 1
        self._buffer.clear()
        self.flushes += 1
