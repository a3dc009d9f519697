"""TDStore storage engines.

Figure 3 lists four engines behind a common interface: the Memory
DataBase (MDB), Level DataBase (LDB), Redis DataBase (RDB) and File
DataBase (FDB). We implement all four against one abstract API:

* :class:`MDBEngine` — a plain in-memory hash table (the default; the
  paper calls TDStore "memory-based").
* :class:`LDBEngine` — a LevelDB-style log-structured engine: writes go
  to a memtable which is flushed to immutable sorted runs; reads check
  the memtable then newest-to-oldest runs; compaction merges runs. It
  additionally supports sorted prefix scans.
* :class:`RDBEngine` — an in-memory engine with Redis-style per-key TTL
  expiry against a simulated clock.
* :class:`FDBEngine` — a file-backed engine persisting every bucket of
  keys to disk, surviving process restarts.
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Any, Callable, Iterator

from repro.errors import EngineError, TDStoreError, VersionConflictError
from repro.utils.clock import SimClock
from repro.utils.hashing import stable_hash

_MISSING = object()

# Reserved key prefixes for the transactional layer (Section 3.3 meets
# exactly-once): a per-key write version and a per-key journal of applied
# operation ids. Implemented as ordinary keys so every engine inherits
# them and replication/snapshots carry them without special cases.
VERSION_PREFIX = "__ver__:"
JOURNAL_PREFIX = "__ops__:"

# Ids remembered per key. Must exceed the number of distinct operations
# that can target one key within any replay window (a rewound source
# re-delivers at most a few batches); older ids can no longer reappear.
JOURNAL_LIMIT = 128


class StorageEngine(ABC):
    """Uniform key-value engine API used by TDStore data servers.

    Keys must be strings; values may be any picklable object.
    """

    @abstractmethod
    def get(self, key: str, default: Any = None) -> Any:
        """Return ``key``'s value, or ``default`` when absent."""

    @abstractmethod
    def put(self, key: str, value: Any):
        """Store ``value`` under ``key``, overwriting silently."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; returns True if it existed."""

    @abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate all live keys (order engine-specific)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""

    def contains(self, key: str) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def multi_get(self, keys: "list[str]", default: Any = None) -> dict[str, Any]:
        """Batched point lookup: one engine call for many keys.

        The base implementation loops over :meth:`get`; engines with a
        cheaper bulk path (e.g. one bucket load serving several keys)
        may override it. Every requested key appears in the result.
        """
        return {key: self.get(key, default) for key in keys}

    def items(self) -> Iterator[tuple[str, Any]]:
        for key in list(self.keys()):
            value = self.get(key, _MISSING)
            if value is not _MISSING:
                yield key, value

    def snapshot(self) -> dict[str, Any]:
        """A copy of all live data (used for replication catch-up)."""
        return dict(self.items())

    def restore(self, data: dict[str, Any]):
        """Replace contents with ``data``."""
        for key in list(self.keys()):
            self.delete(key)
        for key, value in data.items():
            self.put(key, value)

    # -- transactional layer (versions + op journal) -----------------------
    #
    # Implemented on the base class in terms of get/put so all four
    # engines share one behaviour. A plain ``put`` stays version-neutral:
    # only the conditional/idempotent operations below maintain versions,
    # so components that never use them pay nothing.

    # ids trimmed out of per-key journals so far; a nonzero delta means a
    # rewind re-delivering one of them would double-apply (class default;
    # incrementing creates the instance counter)
    journal_evictions = 0
    # runs longer than the journal: a retried wave re-sending one would
    # find its head trimmed and double-apply it
    journal_overruns = 0

    def _trim_journal(self, journal: list, journal_limit: int) -> list:
        if len(journal) > journal_limit:
            self.journal_evictions += len(journal) - journal_limit
            journal = journal[-journal_limit:]
        return journal

    def version(self, key: str) -> int:
        """Current write version of ``key`` (0 until first versioned write)."""
        return self.get(VERSION_PREFIX + key, 0)

    def check_and_set(self, key: str, value: Any, expected_version: int) -> int:
        """Write ``value`` only if ``key`` is still at ``expected_version``.

        Returns the new version; raises
        :class:`~repro.errors.VersionConflictError` (carrying the current
        version) when the key moved on — the caller re-reads and retries.
        """
        current = self.version(key)
        if current != expected_version:
            raise VersionConflictError(
                f"key {key!r} is at version {current}, "
                f"caller expected {expected_version}",
                current=current,
            )
        self.put(key, value)
        self.put(VERSION_PREFIX + key, current + 1)
        return current + 1

    # The two journaled writes take a *run*: ``op_id`` is one id, or a
    # tuple of ids that land on the key together (one write per key per
    # commit, see ``CachedStore.to_commit``). Value, journal and version
    # end exactly as if the ids had been applied one by one, in order.

    def _open_run(self, key: str, op_ids: tuple) -> "list | None":
        """``key``'s journal, ready for the run ``op_ids`` to land on, or
        None when the run already landed (every id journaled).

        A partly journaled run raises :class:`TDStoreError`: no re-send
        of the run leaves one, and applying it would re-apply the seen
        part while deduping it would drop the rest.
        """
        journal = list(self.get(JOURNAL_PREFIX + key, ()))
        seen = sum(op_id in journal for op_id in op_ids)
        if not seen:
            return journal
        if seen < len(op_ids):
            raise TDStoreError(
                f"run of {len(op_ids)} ops on {key!r} is partly journaled "
                f"({seen} seen); refusing to apply it"
            )
        return None

    def _close_run(
        self, key: str, journal: list, op_ids: tuple, journal_limit: int
    ):
        """Journal the run's ids and bump the version once per id."""
        if len(op_ids) > journal_limit:
            self.journal_overruns += 1
        journal.extend(op_ids)
        journal = self._trim_journal(journal, journal_limit)
        self.put(JOURNAL_PREFIX + key, journal)
        self.put(VERSION_PREFIX + key, self.version(key) + len(op_ids))

    def check_run(self, key: str, op_ids: tuple):
        """Raise unless the run ``op_ids`` is wholly journaled against
        ``key`` or not at all — what a host checks for every run of an
        envelope before applying any of it."""
        self._open_run(key, op_ids)

    def apply_op(
        self, key: str, op_id: "str | tuple", delta: "float | tuple",
        journal_limit: int = JOURNAL_LIMIT,
    ) -> tuple[float, bool]:
        """Idempotent increment: ``op_id`` is applied to ``key`` at most once.

        Returns ``(value, applied)``; a replayed ``op_id`` leaves the
        value untouched and reports ``applied=False``. The journal is
        bounded to ``journal_limit`` ids per key. A run pairs a tuple of
        ids with a tuple of their deltas, added in order.
        """
        op_ids = op_id if isinstance(op_id, tuple) else (op_id,)
        journal = self._open_run(key, op_ids)
        if journal is None:
            return self.get(key, 0.0), False
        value = self.get(key, 0.0)
        for step in delta if isinstance(delta, tuple) else (delta,):
            value += step
        self.put(key, value)
        self._close_run(key, journal, op_ids, journal_limit)
        return value, True

    def put_once(
        self, key: str, op_id: "str | tuple", value: Any,
        journal_limit: int = JOURNAL_LIMIT,
    ) -> bool:
        """Idempotent full-value write: ``op_id`` lands on ``key`` at most once.

        The value write, journal append and version bump happen in one
        engine call with no observable intermediate state, so this is the
        atomic commit point for read-modify-write updates: callers
        compute the new value first (from copies, emitting any derived
        work), then commit it here last. A replayed ``op_id`` leaves the
        stored value untouched and returns False. A run is a tuple of
        ids with the value the last of them wrote.
        """
        op_ids = op_id if isinstance(op_id, tuple) else (op_id,)
        journal = self._open_run(key, op_ids)
        if journal is None:
            return False
        self.put(key, value)
        self._close_run(key, journal, op_ids, journal_limit)
        return True

    def op_seen(self, key: str, op_id: str) -> bool:
        """True when ``op_id`` is already journaled against ``key``.

        A pure read — the replay probe callers run *before* an update, so
        the journal itself is only written by the commit
        (:meth:`put_once` / :meth:`apply_op`) after the update succeeds.
        """
        return op_id in self.get(JOURNAL_PREFIX + key, ())

    def record_once(
        self, key: str, op_id: str, journal_limit: int = JOURNAL_LIMIT,
    ) -> bool:
        """Journal ``op_id`` against ``key`` without touching the value.

        Returns True the first time, False on a replay. Note the hazard
        for read-modify-write callers: journaling *before* mutating means
        a failure in between makes the replay skip the lost update. RMW
        updates should probe with :meth:`op_seen` and commit the computed
        value with :meth:`put_once` instead.
        """
        journal = list(self.get(JOURNAL_PREFIX + key, ()))
        if op_id in journal:
            return False
        journal.append(op_id)
        journal = self._trim_journal(journal, journal_limit)
        self.put(JOURNAL_PREFIX + key, journal)
        return True


class MDBEngine(StorageEngine):
    """Memory DataBase: a straightforward hash-table engine."""

    def __init__(self):
        self._data: dict[str, Any] = {}

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def put(self, key: str, value: Any):
        self._data[key] = value

    def delete(self, key: str) -> bool:
        return self._data.pop(key, _MISSING) is not _MISSING

    def keys(self) -> Iterator[str]:
        return iter(list(self._data.keys()))

    def __len__(self) -> int:
        return len(self._data)


class _SortedRun:
    """An immutable sorted run of (key, value) pairs; tombstones are values."""

    def __init__(self, items: list[tuple[str, Any]]):
        self.keys = [k for k, __ in items]
        self.values = [v for __, v in items]

    def get(self, key: str, default: Any = None) -> Any:
        index = bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.values[index]
        return default

    def __len__(self) -> int:
        return len(self.keys)


_TOMBSTONE = ("__tdstore_tombstone__",)


class LDBEngine(StorageEngine):
    """Level DataBase: memtable + sorted immutable runs with compaction."""

    def __init__(self, memtable_limit: int = 256, max_runs: int = 4):
        if memtable_limit <= 0:
            raise EngineError(f"memtable_limit must be positive: {memtable_limit}")
        if max_runs < 1:
            raise EngineError(f"max_runs must be >= 1: {max_runs}")
        self._memtable: dict[str, Any] = {}
        self._memtable_limit = memtable_limit
        self._max_runs = max_runs
        self._runs: list[_SortedRun] = []  # newest first
        self.flushes = 0
        self.compactions = 0

    def get(self, key: str, default: Any = None) -> Any:
        value = self._memtable.get(key, _MISSING)
        if value is _MISSING:
            for run in self._runs:
                value = run.get(key, _MISSING)
                if value is not _MISSING:
                    break
        if value is _MISSING or value == _TOMBSTONE:
            return default
        return value

    def put(self, key: str, value: Any):
        self._memtable[key] = value
        if len(self._memtable) >= self._memtable_limit:
            self._flush_memtable()

    def delete(self, key: str) -> bool:
        existed = self.contains(key)
        self._memtable[key] = _TOMBSTONE
        if len(self._memtable) >= self._memtable_limit:
            self._flush_memtable()
        return existed

    def _flush_memtable(self):
        if not self._memtable:
            return
        items = sorted(self._memtable.items())
        self._runs.insert(0, _SortedRun(items))
        self._memtable = {}
        self.flushes += 1
        if len(self._runs) > self._max_runs:
            self._compact()

    def _compact(self):
        """Merge all runs into one, dropping shadowed entries and tombstones."""
        merged: dict[str, Any] = {}
        for run in reversed(self._runs):  # oldest first, newest overwrite
            for key, value in zip(run.keys, run.values):
                merged[key] = value
        live = sorted(
            (k, v) for k, v in merged.items() if v != _TOMBSTONE
        )
        self._runs = [_SortedRun(live)] if live else []
        self.compactions += 1

    def keys(self) -> Iterator[str]:
        seen: dict[str, Any] = {}
        for run in reversed(self._runs):
            for key, value in zip(run.keys, run.values):
                seen[key] = value
        seen.update(self._memtable)
        return iter(sorted(k for k, v in seen.items() if v != _TOMBSTONE))

    def scan_prefix(self, prefix: str) -> Iterator[tuple[str, Any]]:
        """Yield live (key, value) pairs whose key starts with ``prefix``."""
        for key in self.keys():
            if key.startswith(prefix):
                yield key, self.get(key)
            elif key > prefix:
                return

    def __len__(self) -> int:
        return sum(1 for __ in self.keys())

    def run_count(self) -> int:
        return len(self._runs)


class RDBEngine(StorageEngine):
    """Redis DataBase: in-memory engine with per-key TTL expiry."""

    def __init__(self, clock: SimClock | None = None):
        self._clock = clock if clock is not None else SimClock()
        self._data: dict[str, Any] = {}
        self._expiry: dict[str, float] = {}

    def _expired(self, key: str) -> bool:
        deadline = self._expiry.get(key)
        return deadline is not None and self._clock.now() >= deadline

    def get(self, key: str, default: Any = None) -> Any:
        if self._expired(key):
            self._data.pop(key, None)
            self._expiry.pop(key, None)
            return default
        return self._data.get(key, default)

    def put(self, key: str, value: Any, ttl: float | None = None):
        self._data[key] = value
        if ttl is not None:
            if ttl <= 0:
                raise EngineError(f"ttl must be positive: {ttl}")
            self._expiry[key] = self._clock.now() + ttl
        else:
            self._expiry.pop(key, None)

    def delete(self, key: str) -> bool:
        self._expiry.pop(key, None)
        return self._data.pop(key, _MISSING) is not _MISSING

    def keys(self) -> Iterator[str]:
        return iter([k for k in list(self._data.keys()) if not self._expired(k)])

    def ttl(self, key: str) -> float | None:
        """Remaining seconds before expiry, or None if no TTL / missing."""
        deadline = self._expiry.get(key)
        if deadline is None or self._expired(key):
            return None
        return deadline - self._clock.now()

    def __len__(self) -> int:
        return sum(1 for __ in self.keys())


class FDBEngine(StorageEngine):
    """File DataBase: keys hashed into bucket files under a directory.

    Each bucket is a pickled dict; writes rewrite only the touched bucket.
    A new engine pointed at the same directory sees the previous data,
    which is how TDStore survives a data-server process restart.
    """

    def __init__(self, directory: str, num_buckets: int = 16):
        if num_buckets <= 0:
            raise EngineError(f"num_buckets must be positive: {num_buckets}")
        self._directory = directory
        self._num_buckets = num_buckets
        os.makedirs(directory, exist_ok=True)

    def _bucket_path(self, key: str) -> str:
        bucket = stable_hash(key) % self._num_buckets
        return os.path.join(self._directory, f"bucket-{bucket:04d}.pkl")

    def _load_bucket(self, path: str) -> dict[str, Any]:
        if not os.path.exists(path):
            return {}
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def _store_bucket(self, path: str, data: dict[str, Any]):
        with open(path, "wb") as handle:
            pickle.dump(data, handle)

    def get(self, key: str, default: Any = None) -> Any:
        return self._load_bucket(self._bucket_path(key)).get(key, default)

    def multi_get(self, keys: "list[str]", default: Any = None) -> dict[str, Any]:
        # loading each bucket once serves every key hashed into it
        by_bucket: dict[str, list[str]] = {}
        for key in keys:
            by_bucket.setdefault(self._bucket_path(key), []).append(key)
        out: dict[str, Any] = {}
        for path, bucket_keys in by_bucket.items():
            data = self._load_bucket(path)
            for key in bucket_keys:
                out[key] = data.get(key, default)
        return out

    def put(self, key: str, value: Any):
        path = self._bucket_path(key)
        data = self._load_bucket(path)
        data[key] = value
        self._store_bucket(path, data)

    def delete(self, key: str) -> bool:
        path = self._bucket_path(key)
        data = self._load_bucket(path)
        existed = data.pop(key, _MISSING) is not _MISSING
        if existed:
            self._store_bucket(path, data)
        return existed

    def keys(self) -> Iterator[str]:
        names = sorted(os.listdir(self._directory))
        for name in names:
            if not name.startswith("bucket-"):
                continue
            data = self._load_bucket(os.path.join(self._directory, name))
            yield from sorted(data.keys())

    def __len__(self) -> int:
        return sum(1 for __ in self.keys())


EngineFactory = Callable[[], StorageEngine]


def make_engine(kind: str, clock: SimClock | None = None, **kwargs) -> StorageEngine:
    """Build an engine by its paper name: 'mdb', 'ldb', 'rdb' or 'fdb'."""
    kind = kind.lower()
    if kind == "mdb":
        return MDBEngine()
    if kind == "ldb":
        return LDBEngine(**kwargs)
    if kind == "rdb":
        return RDBEngine(clock=clock)
    if kind == "fdb":
        return FDBEngine(**kwargs)
    raise EngineError(f"unknown engine kind {kind!r}; expected mdb/ldb/rdb/fdb")
