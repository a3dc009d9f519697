"""Status-data access with the paper's optimizations.

:class:`StateKeys` is the single place TDStore key formats are defined.
:class:`CachedStore` is the fine-grained cache of Section 5.2: because
stream grouping sends all tuples with one key to one worker, a task may
cache the keys *it owns* and write them back in bulk — one gather and
one commit per wave of a component's tasks, carrying one write per key
when the slice's writes are single-key journaled ops
(:func:`fold_runs`); keys owned by other tasks must be read fresh.
:class:`Combiner` is the partial-aggregation map of Section 5.3 across
waves: flushed at tick intervals, one read-modify-write per key per
interval.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from repro.errors import ConfigurationError, TDStoreError
from repro.storm.component import commit_wave, gather_wave
from repro.tdstore.client import TDStoreClient
from repro.tdstore.data_server import JOURNALED


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


class Reads(NamedTuple):
    """What executing one tuple will read — a bolt's ``reads(tup)``.

    ``probes`` are the ``(key, op_id)`` replay probes it will ask
    (``op_seen``, and the journal half of ``apply``/``put_once``),
    ``owned`` the keys of its own task it will ``get``, ``fresh`` the
    keys other tasks own that it will ``get_fresh``.
    """

    probes: tuple = ()
    owned: tuple = ()
    fresh: tuple = ()


# a cached key the store does not hold / a key that is not cached
_MISSING = object()
_UNCACHED = object()


class CachedStore:
    """A task's unit of work over a TDStore client: gather, compute, commit.

    Stream grouping makes one task the only writer of the keys it owns,
    so the task may hold their state locally (the fine-grained cache of
    §5.2) and write it back in bulk:

    - :meth:`to_gather` names everything a slice of tuples declared
      (:class:`Reads`), fetched in one strict read frame;
    - reads are answered from that, writes update the owned-key cache
      and append to an ordered buffer;
    - :meth:`to_commit` hands the buffer over to ship in order as one
      envelope per server process (:meth:`TDStoreClient.mutate`); a
      slice of single-key journaled writes ships one write per key,
      each op id still journaled (:func:`fold_runs`).

    The executors merge both across the tasks of a component wave — one
    frame and one envelope for all of them, since their keys are
    disjoint; :meth:`prefetch` and :meth:`flush` are the wave of one.

    The store never calls its client: a read, probe or journaled write
    whose inputs were not gathered raises :class:`ConfigurationError`
    naming them. Owned keys stay cached across slices (the cache is the
    newer copy); keys owned by other tasks are read with
    :meth:`get_fresh`, which answers only what this slice gathered.

    After a failed commit — its own or a wave neighbour's — the buffered
    writes are gone while the cache still shows them, so every later
    call raises: the owner must be discarded with its task (fresh cache,
    fresh dedup ledger) and the tuples replayed against the store's
    journals.
    """

    def __init__(self, client: TDStoreClient):
        self._client = client
        self._cache: dict[str, Any] = {}
        # gathered for the slice in flight; dropped at its commit
        self._fresh: dict[str, Any] = {}
        self._probes: dict[tuple[str, str], bool] = {}
        # ordered (method, args) writes not yet shipped, and the values
        # the journaled increments among them must come back with
        self._writes: list[tuple[str, tuple]] = []
        self._expected: dict[int, float] = {}
        self._failed: BaseException | None = None

    # -- gather ------------------------------------------------------------

    def to_gather(self, reads: "Iterable[Reads | None]") -> tuple:
        """What a slice declared and this store lacks, as the wave entry
        ``(transport, keys, probes, fill)`` of
        :func:`~repro.storm.component.gather_wave`.

        Owned keys already cached are not fetched again — this task is
        their only writer, so the cache is the newer copy.
        """
        self._check()
        cache, known = self._cache, self._probes
        keys: list[str] = []
        fresh: list[str] = []
        probes: list[tuple[str, str]] = []
        for read in reads:
            if read is None:
                continue
            for key in read.owned:
                if key not in cache:
                    keys.append(key)
            fresh.extend(read.fresh)
            for probe in read.probes:
                if probe not in known:
                    probes.append(probe)

        def fill(values, seen):
            get = values.get
            for key in keys:
                cache[key] = get(key, _MISSING)
            for key in fresh:
                self._fresh[key] = get(key, _MISSING)
            for probe in probes:
                known[probe] = seen[probe]

        return self._client, keys + fresh, probes, fill

    def prefetch(self, reads: "Iterable[Reads | None]"):
        """Fetch what a slice declared, in one read frame (the wave of
        one)."""
        gather_wave([self.to_gather(reads)])

    # -- reads -------------------------------------------------------------

    def _gathered(self, table: dict, item, kind: str) -> Any:
        self._check()
        value = table.get(item, _UNCACHED)
        if value is _UNCACHED:
            raise ConfigurationError(
                f"{kind} {item!r} was not gathered: declare it in the "
                "bolt's reads(tup), or prefetch it"
            )
        return value

    def get(self, key: str, default: Any = None) -> Any:
        value = self._gathered(self._cache, key, "owned key")
        return default if value is _MISSING else value

    def get_fresh(self, key: str, default: Any = None) -> Any:
        """Read a key another task owns, as gathered for this slice."""
        value = self._gathered(self._fresh, key, "fresh key")
        return default if value is _MISSING else value

    def op_seen(self, key: str, op_id: str) -> bool:
        """True when ``op_id`` already committed against ``key``."""
        return self._gathered(self._probes, (key, op_id), "probe")

    # -- buffered writes ---------------------------------------------------

    def _write(self, method: str, key: str, *args: Any):
        self._writes.append((method, (key, *args)))

    def _remember(self, key: str, value: Any):
        self._cache[key] = value
        if key in self._fresh:
            self._fresh[key] = value

    def put(self, key: str, value: Any):
        """Update the cache now and TDStore at the next commit (§5.2)."""
        self._check()
        self._remember(key, value)
        self._write("put", key, value)

    def incr(self, key: str, delta: float) -> float:
        value = self.get(key, 0.0) + delta
        self.put(key, value)
        return value

    def apply(self, key: str, op_id: str, delta: float) -> tuple[float, bool]:
        """Idempotent increment through the store's op journal.

        Like :meth:`incr` but replay-safe: a duplicate ``op_id`` leaves
        the value untouched. The result is computed here from the
        gathered key and probe — this task is the key's only writer —
        and the value the store answers with is checked at commit.
        """
        seen = self.op_seen(key, op_id)
        current = self.get(key, 0.0)
        if seen:
            return current, False
        value = current + delta
        self._probes[key, op_id] = True
        self._remember(key, value)
        self._expected[len(self._writes)] = value
        self._write("apply_op", key, op_id, delta)
        return value, True

    def put_once(self, key: str, op_id: str, value: Any) -> bool:
        """Idempotent put — the atomic commit point for read-modify-write
        updates (compute from copies, commit last). On a replay the
        store keeps its earlier value, which the cache already holds if
        it holds the key at all."""
        if self.op_seen(key, op_id):
            return False
        self._probes[key, op_id] = True
        self._remember(key, value)
        self._write("put_once", key, op_id, value)
        return True

    def delete(self, key: str):
        """Drop the key from the cache now and TDStore at the next commit.

        Deleting an absent key is a no-op, so re-executed cleanup (e.g.
        a replayed centroid merge) stays idempotent.
        """
        self._check()
        self._remember(key, _MISSING)
        self._write("delete", key)

    # -- commit ------------------------------------------------------------

    def to_commit(self) -> tuple:
        """End the slice: forget what was gathered for it and hand over
        the buffer, folded by :func:`fold_runs`, as the wave entry
        ``(transport, writes, settle)`` of
        :func:`~repro.storm.component.commit_wave`."""
        self._fresh.clear()
        self._probes.clear()
        self._check()
        writes, expected = fold_runs(self._writes, self._expected)
        self._writes, self._expected = [], {}

        def settle(results, error=None):
            if error is not None:
                self._failed = error
                return
            for index, value in expected.items():
                if results[index][0] != value:
                    raise TDStoreError(
                        f"{writes[index][1][0]!r} came back as "
                        f"{results[index][0]!r} where its single writer "
                        f"computed {value!r}"
                    )

        return self._client, writes, settle

    def flush(self):
        """Commit the slice (the wave of one)."""
        commit_wave([self.to_commit()])

    def _check(self):
        if self._failed is not None:
            raise self._failed


def fold_runs(writes: list, expected: dict) -> "tuple[list, dict]":
    """A slice's buffered writes as one write per key (§5.3, in the
    commit envelope), and the checks of ``expected`` moved with them.

    Folds only when every write is a journaled ``put_once`` / ``apply_op``
    and each op id — a tuple's, before any ``#`` suffix — names one key.
    A key's writes become one run at its last write: a ``put_once`` run
    is its ids and the last value, an ``apply_op`` run its ids and their
    deltas in order; the host lands a run exactly as the single writes
    one by one (:meth:`~repro.tdstore.engines.StorageEngine.put_once`).
    A key written once ships as it was buffered. Any other slice — a
    plain ``put`` or ``delete``, one op over several keys (the VQ index,
    whose readers rely on its write order), a key written both ways —
    ships unchanged. A checked ``apply`` value is its run's last.
    """
    owner: dict[str, str] = {}  # op id -> the one key it writes
    runs: dict[str, tuple] = {}  # key -> (method, ids, payloads)
    last: dict[str, int] = {}  # key -> index of its last write
    for index, (method, args) in enumerate(writes):
        if method not in JOURNALED:
            return writes, expected
        key, op_id, payload = args
        if owner.setdefault(op_id.partition("#")[0], key) != key:
            return writes, expected
        run = runs.setdefault(key, (method, [], []))
        if run[0] != method:
            return writes, expected
        run[1].append(op_id)
        run[2].append(payload)
        last[key] = index
    folded: list = []
    checks: dict = {}
    for index, (method, args) in enumerate(writes):
        key = args[0]
        if last[key] != index:
            continue
        if index in expected:
            checks[len(folded)] = expected[index]
        __, ids, payloads = runs[key]
        if len(ids) == 1:
            folded.append((method, args))
        elif method == "put_once":
            folded.append((method, (key, tuple(ids), payloads[-1])))
        else:
            folded.append((method, (key, tuple(ids), tuple(payloads))))
    return folded, checks


class StoreBacked:
    """Mixin for a bolt whose state sits behind ``self._store``.

    Implements the executor's wave protocol
    (:meth:`~repro.storm.component.Bolt.to_gather` /
    :meth:`~repro.storm.component.Bolt.to_commit`) over the bolt's
    :class:`CachedStore`; list it before the bolt base class. A bolt
    that reads its store declares what with :meth:`reads`.
    """

    _store: CachedStore

    def reads(self, tup) -> "Reads | None":
        """What executing ``tup`` will read. Pure: no store access, no
        state change. A read left out raises when it is made."""
        return None

    def to_gather(self, tuples):
        return self._store.to_gather(map(self.reads, tuples))

    def to_commit(self):
        return self._store.to_commit()


class Combiner:
    """Partial aggregation buffer (Section 5.3), across waves.

    Incoming deltas for the same key add up in memory; ``flush`` applies
    the sums to the store with one read-modify-write per key. Within one
    wave the commit already writes a journaled key once
    (:func:`fold_runs`); the combiner trades the per-delta journal for
    fewer writes over a whole tick interval.
    """

    def __init__(self, store: CachedStore):
        self._store = store
        self._buffer: dict[str, float] = {}
        self.merged = 0
        self.flushes = 0
        self.flushed_keys = 0

    def add(self, key: str, value: float):
        if key in self._buffer:
            self._buffer[key] += value
            self.merged += 1
        else:
            self._buffer[key] = value

    def pending(self) -> int:
        return len(self._buffer)

    def snapshot_buffer(self) -> dict[str, float]:
        """Unflushed deltas, for the checkpoint protocol: a crash between
        ticks must not lose partial aggregates."""
        return dict(self._buffer)

    def restore_buffer(self, buffer: dict[str, float]):
        self._buffer = dict(buffer)

    def flush(self):
        """Apply all buffered values to the store."""
        self._store.prefetch([Reads(owned=tuple(self._buffer))])
        for key, value in self._buffer.items():
            self._store.incr(key, value)
            self.flushed_keys += 1
        self._buffer.clear()
        self.flushes += 1
