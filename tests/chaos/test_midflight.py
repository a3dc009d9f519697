"""The headline, sharpened: the full process-native schedule re-keyed to
fire *mid-wave* — no quiescent points — plus injected silent corruption.

The barrier-keyed suite (test_process_native) fires faults when every
queue is drained; real failures do not wait for that. Here the same
8-fault schedule is re-keyed onto tuple-count triggers so every SIGKILL,
partition, and frame fault lands while tuple trees are open and the WAL
group-committer holds dirty records — and the stream additionally
carries silent corruption: two poisoned WAL records on the data-plane
host (detected by CRC scan at its next respawn, quarantined, re-seeded
from the replica) and two corrupted RPC response frames (detected by
frame checksum, absorbed by client reconnect + idempotent retry).

Invariants, proven while online probes run concurrently with execution:

- byte-identical convergence against the fault-free simulator reference,
- zero lost keys, 100% front-end serve rate,
- every injected corruption detected (``detected == injected``), none
  ever served,
- no route-epoch regression, no ledger watermark violation, mid-flight,
- a final anti-entropy scrub pass over every host/slave pair is clean.

The same mid-flight plan on the simulator skips every process-native
fault and still converges — non-quiescent plans stay substrate-portable.
"""

import pytest

from repro.recovery import Fault, Trigger
from repro.runtime import ProcessSubstrate, SimSubstrate
from repro.runtime.chaos import (
    ChaosOrchestrator,
    OnlineInvariantMonitor,
    rekey_plan_midflight,
)

from tests.chaos.helpers import (
    fingerprint,
    make_harness,
    make_serve_probe,
)
from tests.chaos.test_process_native import HOSTS, PLAN, WORKERS

# the fault-free run executes ~31-66 tuples per barrier round (389
# total over 11 rounds); 30 spreads the 8 barrier rounds across the
# live stream so every re-keyed trigger fires mid-wave, none at flush
TUPLES_PER_ROUND = 30

# silent corruption riding the same stream. Host 1 is the data-plane
# host (host 0 carries the control plane, whose WAL corruption is
# unrecoverable by design); both WAL corruptions land *before* host 1's
# mid-flight SIGKILL (trigger ~60-90 tuples) so the respawn's CRC scan
# is what detects them, and both frame corruptions land *after* the
# last SIGKILL (~210-240 tuples) so no kill wipes the injection or
# detection tallies before the report reconciles them. The WAL-keyed
# trigger counts envelopes, one per component wave, worker and host
# process. Here each of the two workers holds one task of every
# two-task component, so a worker's share of a wave is one slice and the
# stream logs what it logged per slice: 6 records by the first poll
# (tuple 4, the first pretreatment wave settling, trees open), 20 by
# tuple 12 — the trigger sits at the same stream position under either
# unit and needs no re-keying.
CORRUPTION_ENTRIES = [
    (Trigger("wal_records", 6), Fault(2, "bit_flip", (1,))),
    (Trigger("tuples", 35), Fault(2, "wal_corrupt", (1,))),
    (Trigger("tuples", 300), Fault(9, "frame_corrupt", (0, 1))),
    (Trigger("tuples", 302), Fault(9, "frame_corrupt", (1, 1))),
]


def midflight_entries():
    return rekey_plan_midflight(PLAN, TUPLES_PER_ROUND, seed=11) + list(
        CORRUPTION_ENTRIES
    )


def process_substrate():
    return ProcessSubstrate(worker_procs=WORKERS, server_procs=HOSTS)


class TestMidFlightChaos:
    def test_full_schedule_midwave_with_corruption_converges(
        self, payloads, reference
    ):
        want_recs, want_state, ref_now = reference
        entries = midflight_entries()
        with process_substrate() as substrate:
            harness = make_harness(substrate, payloads, start=False)
            monitor = OnlineInvariantMonitor(harness)
            orchestrator = ChaosOrchestrator(
                harness,
                entries,  # every fault arrives mid-flight, none at barriers
                serve_probe=make_serve_probe(harness),
                monitor=monitor,
            )
            assert orchestrator.run() == "completed"

            # every fault fired natively, every one of them mid-wave
            injector = harness.injector
            assert injector.skipped == []
            assert injector.fired_midflight != []
            assert len(injector.fired_midflight) == len(entries)
            assert injector.flushed == []

            runtime = substrate.chaos_runtime()
            assert runtime.kills["host_sigkill"] == 2
            assert runtime.kills["worker_sigkill"] == 1
            assert runtime.disk_faults == {
                "fsync_error": 1, "bit_flip": 1, "wal_corrupt": 1,
            }
            # both poisoned records were caught by one CRC scan at host
            # 1's respawn; the quarantined log never fed replay
            assert substrate.wal_corruptions_detected == 2
            # host kills + fsync fail-stop; silent corruption adds no
            # sample — nothing stops until the scan catches it
            assert len(runtime.mttr_samples) == 3

            got = fingerprint(harness, ref_now)
            report = orchestrator.report(
                fingerprint=got, reference=(want_recs, want_state)
            )
            # anti-entropy closes the loop. The first pass may repair
            # one residue of the fsync fail-stop: the poisoned probe
            # write was never acked, but its record hit the file before
            # the failed fsync, so replay legitimately restored it on
            # the host while the slave never saw it. No *corruption* —
            # and the loop converges: the next pass is clean.
            scrub = harness.tdstore.scrub_replicas()
            assert scrub["corruptions_detected"] == 0
            assert scrub["divergent_buckets"] <= 1
            assert scrub["skipped_down"] == 0
            assert harness.tdstore.scrub_replicas()["clean"] is True

        # convergence: byte-identical to the fault-free reference
        assert got == (want_recs, want_state)
        assert report.fingerprint_match
        assert report.lost_keys == 0
        # served through the whole storm, every probe answered
        assert report.serve_attempts > 0
        assert report.serve_rate == 1.0
        # every corruption detected before anything served from it
        assert report.corruptions_injected == 4
        assert report.corruptions_detected == report.corruptions_injected
        # invariants held *while* the faults were landing
        assert report.online_probes > 0
        assert report.invariant_violations == []
        assert report.midflight_fired == len(entries)
        assert report.flushed_faults == 0
        as_dict = report.to_dict()
        assert as_dict["corruptions_detected"] == 4
        assert as_dict["midflight_fired"] == len(entries)
        assert as_dict["invariant_violations"] == []

    def test_same_plan_on_simulator_skips_native_faults(
        self, payloads, reference
    ):
        want_recs, want_state, ref_now = reference
        entries = midflight_entries()
        harness = make_harness(SimSubstrate(), payloads, start=False)
        monitor = OnlineInvariantMonitor(harness)
        orchestrator = ChaosOrchestrator(harness, entries, monitor=monitor)
        assert orchestrator.run() == "completed"
        # triggers all crossed (remote counters degrade to tuples), the
        # process-native kinds were recorded skipped, nothing fired
        assert len(harness.injector.fired_midflight) == len(entries)
        skipped = {f.kind for f in harness.injector.skipped}
        assert skipped == {
            "one_way_partition", "host_sigkill", "conn_reset",
            "frame_delay", "worker_sigkill", "frame_drop", "fsync_error",
            "bit_flip", "wal_corrupt", "frame_corrupt",
        }
        got = fingerprint(harness, ref_now)
        assert got == (want_recs, want_state)
        report = orchestrator.report(
            fingerprint=got, reference=(want_recs, want_state)
        )
        assert report.lost_keys == 0
        assert report.corruptions_injected == 0
        assert report.corruptions_detected == 0
        assert report.invariant_violations == []
