"""Group-committed write-ahead log for the TDStore server host.

Durability on the process substrate is real: a mutation is acknowledged
only after its log record reaches disk. The expensive part of that
promise is ``fsync``, and the log amortizes it — every record appended
since the last commit shares one ``fsync``. The server host drives
this from the RPC batch boundary: apply every mutation in the ready
batch, ``commit()`` once, then ack all of them. With one blocking
client the batch size is one and throughput is fsync-bound; with N
concurrent workers up to N mutations ride each flush, which is where
the parallel benchmark's scaling comes from.

Records are wire frames (length-prefixed, CRC-32-checksummed pickles),
so replay reuses :class:`~repro.runtime.wire.StreamDecoder` and the two
failure shapes are kept distinct: a torn *tail* — a crash mid-append —
is an incomplete final frame, silently dropped because it was never
acknowledged; a complete frame whose payload fails its checksum is
*mid-log corruption* of acknowledged state and raises :class:`WalError`
instead of being replayed as truth. The host fail-stops (or
quarantines and re-seeds from replicas) on the latter.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Iterator

from repro.errors import RuntimeSubstrateError
from repro.faultkinds import DISK_FAULT_KINDS, SILENT_CORRUPTION_KINDS
from repro.runtime.wire import (
    FrameCorruptionError,
    FrameError,
    StreamDecoder,
    corrupt_frame,
    encode_frame,
)


class WalError(RuntimeSubstrateError):
    """The write-ahead log is unusable (bad path, closed, corrupt).

    ``corrupt_records`` carries how many checksum-failed records a
    replay scan found — the detection count the chaos accounting
    reconciles against injected corruption.
    """

    def __init__(self, message: str, corrupt_records: int = 0):
        super().__init__(message)
        self.corrupt_records = corrupt_records

    def __reduce__(self):
        return (type(self), (self.args[0], self.corrupt_records))


class DiskFaultShim:
    """Injectable stand-in for the WAL's raw file I/O.

    The default (unarmed) shim is a transparent passthrough to
    ``os.write`` / ``os.fsync``. The chaos layer arms one-shot disk
    faults on it; each armed fault fires on the next matching call and
    then disarms:

    - ``torn_write``: half the record's bytes reach the file, then the
      append fails — the on-disk tail is an incomplete frame, exactly
      what a crash mid-``write`` leaves behind.
    - ``disk_full``: the append fails before any byte is written
      (ENOSPC semantics).
    - ``fsync_error``: staged bytes stay in the page cache but the
      commit barrier reports failure (EIO semantics).
    - ``bit_flip``: the append *succeeds* — every byte reaches the file
      — but one bit inside the record body is flipped on the way down.
      The mutation is acked; only replay-time CRC verification can tell.
    - ``wal_corrupt``: like ``bit_flip`` but a whole byte run inside the
      body is overwritten (a misdirected or garbled sector write).

    The loud faults surface as :class:`WalError`; the server host
    treats those as unrecoverable and fail-stops, which is the only
    honest response — a log that cannot promise durability must not
    ack. The silent kinds corrupt past the frame header (the length
    field stays intact) so framing survives and the damage is exactly
    what the per-record checksum exists to catch.
    """

    def __init__(self) -> None:
        self._armed: list[str] = []
        self.fired: dict[str, int] = {}

    def arm(self, kind: str) -> None:
        if kind not in DISK_FAULT_KINDS:
            raise WalError(f"unknown disk fault kind {kind!r}")
        self._armed.append(kind)

    def armed(self) -> list[str]:
        return list(self._armed)

    def _take(self, *kinds: str) -> str | None:
        for i, kind in enumerate(self._armed):
            if kind in kinds:
                self.fired[kind] = self.fired.get(kind, 0) + 1
                return self._armed.pop(i)
        return None

    def write(self, fd: int, payload: bytes) -> None:
        kind = self._take("torn_write", "disk_full", "bit_flip", "wal_corrupt")
        if kind == "disk_full":
            raise WalError("disk full: append wrote nothing (ENOSPC)")
        if kind == "torn_write":
            os.write(fd, payload[: max(1, len(payload) // 2)])
            raise WalError("torn write: record half-written before failure")
        if kind in SILENT_CORRUPTION_KINDS:
            os.write(fd, _corrupt_record(payload, kind))
            return
        os.write(fd, payload)

    def fsync(self, fd: int) -> None:
        if self._take("fsync_error"):
            raise WalError("fsync failed: staged records are not durable (EIO)")
        os.fsync(fd)


def _corrupt_record(payload: bytes, kind: str) -> bytes:
    """Damage a record's *body* deterministically, leaving the header
    (and thus framing) intact so replay sees a complete-but-wrong frame."""
    return corrupt_frame(payload, run=1 if kind == "bit_flip" else 8)


class GroupCommitWal:
    """Append-only log with batched ``fsync``.

    ``append`` buffers in the OS page cache; ``commit`` makes everything
    appended so far durable with a single ``fsync`` (skipped when
    nothing is pending, so read-only batches cost no disk I/O).

    Safe for one appender and one committer running on different
    threads — the server host appends from its serve loop while the
    group-commit thread flushes. The lock only guards the dirty-count
    bookkeeping; the ``fsync`` itself runs outside it (and releases the
    GIL), so appends proceed while a flush is in flight. A record
    appended before ``commit`` is called was written before the
    ``fsync`` starts and is therefore covered by it.

    ``commit_floor`` models a minimum commit-barrier latency: when the
    device acknowledges the flush faster than the floor, ``commit``
    sleeps out the remainder. Virtualized hosts routinely absorb
    ``fsync`` into the host page cache (0.1–0.3 ms here, against the
    0.5–2 ms a production SSD's write barrier costs), which silently
    changes group-commit economics; the floor restores a realistic —
    and, for tests, deterministic — barrier cost. It defaults to off
    and nothing in the serving path sets it; the parallel benchmark
    and the lifecycle tests opt in explicitly.
    """

    def __init__(
        self,
        path: str,
        *,
        durable: bool = True,
        commit_floor: float = 0.0,
        io: DiskFaultShim | None = None,
    ):
        self._path = path
        self._durable = durable
        self._commit_floor = commit_floor
        self.io = io if io is not None else DiskFaultShim()
        self._fd: int | None = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()
        self._dirty = 0
        self.records = 0
        self.commits = 0
        self.committed_records = 0
        self.quarantines = 0

    @property
    def path(self) -> str:
        return self._path

    def append(self, record: Any) -> None:
        """Stage one record; not durable until the next :meth:`commit`."""
        payload = encode_frame(record)
        with self._lock:
            if self._fd is None:
                raise WalError(f"wal {self._path} is closed")
            self.io.write(self._fd, payload)
            self._dirty += 1
            self.records += 1

    def commit(self) -> int:
        """Flush staged records to disk; returns how many were covered."""
        with self._lock:
            if self._fd is None:
                raise WalError(f"wal {self._path} is closed")
            fd = self._fd
            covered = self._dirty
            if covered == 0:
                return 0
            # claim the staged records before flushing: anything appended
            # while the fsync runs belongs to the *next* commit
            self._dirty = 0
        start = time.monotonic() if self._commit_floor > 0.0 else 0.0
        if self._durable:
            self.io.fsync(fd)
        if self._commit_floor > 0.0:
            # the sleep releases the GIL exactly as a slower barrier
            # would release the CPU: concurrent appends keep flowing
            remaining = self._commit_floor - (time.monotonic() - start)
            if remaining > 0.0:
                time.sleep(remaining)
        with self._lock:
            self.commits += 1
            self.committed_records += covered
        return covered

    def quarantine(self) -> str:
        """Set a corrupt log aside and continue on a fresh one.

        The on-disk file moves to ``<path>.corrupt`` (kept for forensics,
        clobbering any previous quarantine) and a new empty log opens at
        the same path, so respawn-stable WAL paths keep working. The
        caller is responsible for re-seeding state from replicas — the
        quarantined records are exactly the ones that can no longer be
        trusted. Runs under the append lock, so it is safe against the
        group-commit thread.
        """
        quarantined = self._path + ".corrupt"
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
            os.replace(self._path, quarantined)
            self._fd = os.open(
                self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._dirty = 0
            self.quarantines += 1
        return quarantined

    def close(self) -> None:
        if self._fd is not None:
            try:
                self.commit()
            finally:
                os.close(self._fd)
                self._fd = None

    def stats(self) -> dict:
        return {
            "records": self.records,
            "commits": self.commits,
            "committed_records": self.committed_records,
            "avg_records_per_commit": (
                self.committed_records / self.commits if self.commits else 0.0
            ),
            "durable": self._durable,
            "commit_floor": self._commit_floor,
            "quarantines": self.quarantines,
        }

    def __enter__(self) -> "GroupCommitWal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay(
    path: str, apply: Callable[[Any], None] | None = None
) -> Iterator[Any] | int:
    """Read every intact record back from ``path``.

    A torn final frame (crash mid-append) is silently dropped — it was
    never acknowledged, so losing it is correct. A *complete* frame
    whose payload fails its CRC-32 is acknowledged state gone wrong:
    replay stops applying, keeps scanning to count the damage (framing
    survives body corruption), and raises :class:`WalError` with
    ``corrupt_records`` set. With ``apply`` given, applies each record
    and returns the count; without, returns an iterator of records.
    """
    records = _iter_records(path)
    if apply is None:
        return records
    applied = 0
    for record in records:
        apply(record)
        applied += 1
    return applied


def _iter_records(path: str) -> Iterator[Any]:
    decoder = StreamDecoder()
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    corrupt = 0
    first_error: Exception | None = None
    with fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            while True:
                try:
                    frames = decoder.feed(chunk)
                except FrameCorruptionError as exc:
                    # the decoder consumed the bad frame; keep draining
                    # the buffer to count how many records are damaged
                    corrupt += 1
                    if first_error is None:
                        first_error = exc
                    chunk = b""
                    continue
                except FrameError as exc:
                    # desynchronized (the length field itself is garbage):
                    # nothing past this point can be scanned
                    raise WalError(
                        f"wal {path} is corrupt mid-log and unscannable: "
                        f"{exc}",
                        corrupt_records=corrupt + 1,
                    ) from exc
                break
            if corrupt == 0:
                yield from frames
            # after the first corrupt record everything later is suspect:
            # scan on for the count, but never replay past the damage
    if corrupt:
        raise WalError(
            f"wal {path} holds {corrupt} corrupt record(s) mid-log; "
            "refusing to replay acknowledged-but-damaged state",
            corrupt_records=corrupt,
        ) from first_error
