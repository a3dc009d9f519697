"""Group-commit WAL: append/commit accounting, replay, torn tails."""

import os
import time

import pytest

from repro.runtime.wal import (
    DISK_FAULT_KINDS,
    DiskFaultShim,
    GroupCommitWal,
    WalError,
    replay,
)
from repro.runtime.wire import encode_frame


class TestGroupCommitWal:
    def test_records_share_one_commit(self, tmp_path):
        path = str(tmp_path / "host.wal")
        with GroupCommitWal(path) as wal:
            for index in range(5):
                wal.append((0, "put", (1, f"k{index}", index)))
            assert wal.commit() == 5
            assert wal.commit() == 0  # clean log: no fsync issued
        stats_records = list(replay(path))
        assert len(stats_records) == 5
        assert stats_records[2] == (0, "put", (1, "k2", 2))

    def test_stats_track_group_sizes(self, tmp_path):
        wal = GroupCommitWal(str(tmp_path / "host.wal"))
        wal.append("a")
        wal.commit()
        wal.append("b")
        wal.append("c")
        wal.append("d")
        wal.commit()
        stats = wal.stats()
        wal.close()
        assert stats["records"] == 4
        assert stats["commits"] == 2
        assert stats["avg_records_per_commit"] == 2.0

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = GroupCommitWal(str(tmp_path / "host.wal"))
        wal.close()
        with pytest.raises(WalError):
            wal.append("x")
        with pytest.raises(WalError):
            wal.commit()

    def test_replay_with_apply_returns_count(self, tmp_path):
        path = str(tmp_path / "host.wal")
        with GroupCommitWal(path) as wal:
            wal.append(1)
            wal.append(2)
        seen = []
        assert replay(path, seen.append) == 2
        assert seen == [1, 2]

    def test_torn_tail_is_dropped(self, tmp_path):
        # a crash mid-append leaves a partial frame; it was never acked,
        # so replay must drop it rather than error or mis-decode
        path = str(tmp_path / "host.wal")
        with GroupCommitWal(path) as wal:
            wal.append("whole")
            wal.append("torn")
        with open(path, "rb") as fh:
            intact = fh.read()
        with open(path, "wb") as fh:
            fh.write(intact[:-3])
        assert list(replay(path)) == ["whole"]

    def test_commit_floor_bounds_barrier_latency(self, tmp_path):
        # the modeled barrier makes every non-empty commit take at least
        # the floor — and exactly one floor regardless of group size,
        # which is what makes group-commit amortization measurable on
        # hosts whose fsync is absorbed by a page cache
        wal = GroupCommitWal(
            str(tmp_path / "host.wal"), commit_floor=0.02
        )
        for index in range(10):
            wal.append(index)
        start = time.monotonic()
        assert wal.commit() == 10
        elapsed = time.monotonic() - start
        wal.close()
        assert 0.02 <= elapsed < 0.2
        assert wal.stats()["commit_floor"] == 0.02

    def test_empty_commit_skips_the_floor(self, tmp_path):
        wal = GroupCommitWal(
            str(tmp_path / "host.wal"), commit_floor=0.5
        )
        start = time.monotonic()
        assert wal.commit() == 0
        assert time.monotonic() - start < 0.25
        wal.close()

    def test_missing_file_replays_empty(self, tmp_path):
        assert list(replay(str(tmp_path / "never-written.wal"))) == []
        assert replay(str(tmp_path / "never-written.wal"), lambda r: None) == 0

    def test_append_reopens_after_restart(self, tmp_path):
        # a restarted host reopens the same log and appends after the
        # replayed prefix
        path = str(tmp_path / "host.wal")
        with GroupCommitWal(path) as wal:
            wal.append("before-crash")
        with GroupCommitWal(path) as wal:
            wal.append("after-restart")
        assert list(replay(path)) == ["before-crash", "after-restart"]


class TestTornTailProperty:
    def test_every_truncation_point_recovers_the_committed_prefix(
        self, tmp_path
    ):
        # the torn-tail property, exhaustively: truncate the final
        # record at *every* byte offset — from "nothing of it written"
        # to "one byte short of complete" — and replay must recover
        # exactly the committed prefix, never erroring, never decoding
        # a phantom record
        path = str(tmp_path / "host.wal")
        committed = [(0, "put", (1, f"k{i}", i)) for i in range(4)]
        final = (0, "put", (1, "torn-victim", "x" * 37))
        with GroupCommitWal(path) as wal:
            for record in committed:
                wal.append(record)
            wal.commit()
            wal.append(final)
        with open(path, "rb") as fh:
            full = fh.read()
        prefix_len = len(full) - len(encode_frame(final))
        assert prefix_len > 0
        for cut in range(prefix_len, len(full)):
            with open(path, "wb") as fh:
                fh.write(full[:cut])
            got = list(replay(path))
            assert got == committed, f"cut at byte {cut} diverged"
        # sanity: the untruncated log replays the final record too
        with open(path, "wb") as fh:
            fh.write(full)
        assert list(replay(path)) == committed + [final]


class TestDiskFaultShim:
    def test_unarmed_shim_is_a_passthrough(self, tmp_path):
        path = str(tmp_path / "host.wal")
        with GroupCommitWal(path, io=DiskFaultShim()) as wal:
            wal.append("a")
            assert wal.commit() == 1
        assert list(replay(path)) == ["a"]

    def test_unknown_kind_is_refused(self):
        with pytest.raises(WalError):
            DiskFaultShim().arm("bit_rot")

    def test_disk_full_fails_before_writing(self, tmp_path):
        path = str(tmp_path / "host.wal")
        wal = GroupCommitWal(path)
        wal.append("survives")
        wal.commit()
        wal.io.arm("disk_full")
        with pytest.raises(WalError, match="disk full"):
            wal.append("lost")
        os.close(wal._fd)  # fail-stop: no graceful close
        assert list(replay(path)) == ["survives"]
        assert wal.io.fired == {"disk_full": 1}

    def test_torn_write_leaves_a_replayable_torn_tail(self, tmp_path):
        path = str(tmp_path / "host.wal")
        wal = GroupCommitWal(path)
        wal.append("committed")
        wal.commit()
        wal.io.arm("torn_write")
        with pytest.raises(WalError, match="torn write"):
            wal.append("half-written")
        os.close(wal._fd)
        # the half-written frame is on disk, and replay drops it
        assert os.path.getsize(path) > len(encode_frame("committed"))
        assert list(replay(path)) == ["committed"]

    def test_fsync_error_fails_the_commit_barrier(self, tmp_path):
        path = str(tmp_path / "host.wal")
        wal = GroupCommitWal(path)
        wal.append("staged")
        wal.io.arm("fsync_error")
        with pytest.raises(WalError, match="fsync"):
            wal.commit()
        os.close(wal._fd)
        # the record reached the page cache: replay sees it, and the
        # un-acked-but-durable ambiguity is allowed (op-journal dedup
        # absorbs a re-applied record)
        assert list(replay(path)) == ["staged"]

    def test_faults_are_one_shot(self, tmp_path):
        path = str(tmp_path / "host.wal")
        wal = GroupCommitWal(path)
        wal.io.arm("fsync_error")
        wal.append("x")
        with pytest.raises(WalError):
            wal.commit()
        # disarmed after firing: the retry (fresh host in practice)
        # commits cleanly
        wal.append("y")
        assert wal.commit() >= 1
        wal.close()
        assert wal.io.armed() == []

    def test_kinds_match_the_fault_vocabulary(self):
        # one definition (repro.faultkinds), not two sets held equal
        from repro.recovery.faults import FAULT_KINDS, WAL_FAULT_KINDS

        assert WAL_FAULT_KINDS is DISK_FAULT_KINDS
        assert all(kind in FAULT_KINDS for kind in DISK_FAULT_KINDS)

    def test_bit_flip_is_silent_until_replay(self, tmp_path):
        # the poisoned append *succeeds* — the caller acks — and only
        # the replay-time CRC can tell the record is damaged
        path = str(tmp_path / "host.wal")
        wal = GroupCommitWal(path)
        wal.append("clean")
        wal.io.arm("bit_flip")
        wal.append("silently-damaged")  # no exception: that's the point
        wal.append("after")
        assert wal.commit() == 3
        wal.close()
        assert wal.io.fired == {"bit_flip": 1}
        with pytest.raises(WalError) as info:
            list(replay(path))
        assert info.value.corrupt_records == 1

    def test_wal_corrupt_clobbers_a_byte_run(self, tmp_path):
        path = str(tmp_path / "host.wal")
        wal = GroupCommitWal(path)
        wal.io.arm("wal_corrupt")
        wal.append("garbled-sector-victim" * 4)
        wal.commit()
        wal.close()
        assert wal.io.fired == {"wal_corrupt": 1}
        with pytest.raises(WalError):
            list(replay(path))


class TestMidLogCorruption:
    """Regression: a flipped byte *inside* the log body (not the tail)
    must be rejected with WalError, never replayed as state."""

    def _write_log(self, path, records):
        with GroupCommitWal(path) as wal:
            for record in records:
                wal.append(record)
            wal.commit()

    def _flip_byte_of_record(self, path, records, index):
        # flip one bit in the middle of record ``index``'s body
        frames = [encode_frame(r) for r in records]
        offset = sum(len(f) for f in frames[:index])
        offset += len(frames[index]) // 2
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0x01]))

    def test_fresh_start_replay_rejects_mid_log_flip(self, tmp_path):
        path = str(tmp_path / "host.wal")
        records = [(0, "put", (1, f"k{i}", i)) for i in range(6)]
        self._write_log(path, records)
        self._flip_byte_of_record(path, records, 2)
        with pytest.raises(WalError, match="corrupt"):
            list(replay(path))

    def test_crash_recovery_replay_rejects_mid_log_flip(self, tmp_path):
        # the apply-callback path (what a respawned server host runs)
        path = str(tmp_path / "host.wal")
        records = [(0, "put", (1, f"k{i}", i)) for i in range(6)]
        self._write_log(path, records)
        self._flip_byte_of_record(path, records, 3)
        applied = []
        with pytest.raises(WalError) as info:
            replay(path, applied.append)
        # records before the damage may apply; the damaged one and
        # everything after it must not
        assert len(applied) <= 3
        assert records[3] not in applied
        assert info.value.corrupt_records == 1

    def test_every_record_position_is_protected(self, tmp_path):
        records = [f"record-{i}" * 3 for i in range(5)]
        for index in range(len(records)):
            path = str(tmp_path / f"pos{index}.wal")
            self._write_log(path, records)
            self._flip_byte_of_record(path, records, index)
            with pytest.raises(WalError):
                list(replay(path))

    def test_multiple_corrupt_records_are_all_counted(self, tmp_path):
        # framing survives body damage, so the scan can count every
        # corrupt record — the chaos accounting reconciles this number
        # against injected corruption
        path = str(tmp_path / "host.wal")
        records = [f"r{i}" * 10 for i in range(8)]
        self._write_log(path, records)
        for index in (1, 4, 6):
            self._flip_byte_of_record(path, records, index)
        with pytest.raises(WalError) as info:
            list(replay(path))
        assert info.value.corrupt_records == 3

    def test_wal_error_pickles_with_its_count(self):
        import pickle

        exc = pickle.loads(pickle.dumps(WalError("bad log", 4)))
        assert isinstance(exc, WalError)
        assert exc.corrupt_records == 4


class TestQuarantine:
    def test_quarantine_sets_log_aside_and_continues_fresh(self, tmp_path):
        path = str(tmp_path / "host.wal")
        wal = GroupCommitWal(path)
        wal.io.arm("bit_flip")
        wal.append("poisoned")
        wal.commit()
        quarantined = wal.quarantine()
        assert quarantined == path + ".corrupt"
        assert os.path.exists(quarantined)
        # the fresh log at the same path appends and replays cleanly
        wal.append("fresh")
        wal.commit()
        wal.close()
        assert list(replay(path)) == ["fresh"]
        assert wal.stats()["quarantines"] == 1
        # the damaged log is preserved for forensics
        with pytest.raises(WalError):
            list(replay(quarantined))
