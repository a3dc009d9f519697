"""End-to-end crash/recovery tests.

The headline guarantee: crash the topology mid-stream, recover from the
latest checkpoint, finish the stream — and the recommendations (and the
raw Eq 6-8 state) are byte-identical to an uninterrupted run.
"""

import pytest

from repro.engine import RecommenderEngine, RecommenderFrontEnd
from repro.errors import RecoveryError
from repro.recovery import Fault, RecoveryHarness, seeded_plan

from tests.recovery.helpers import (
    TOPIC,
    cf_topology_factory,
    make_payloads,
    make_tdaccess,
    recommendations_bytes,
    state_digest,
)

N_MESSAGES = 48


def run_reference(payloads, **topo_kwargs):
    """The uninterrupted run: same stream, no faults, no recovery."""
    harness = RecoveryHarness(
        make_tdaccess(payloads),
        TOPIC,
        cf_topology_factory(batch_size=4, **topo_kwargs),
        tick_interval=240.0,
        checkpoint_every_rounds=2,
    )
    harness.start()
    assert harness.run() == "completed"
    return recommendations_bytes(harness.client(), harness.clock.now()), (
        state_digest(harness.client())
    )


class TestHeadlineByteIdentity:
    def test_crash_recover_finish_matches_uninterrupted_run(self):
        payloads = make_payloads(N_MESSAGES)
        want_recs, want_state = run_reference(payloads)

        harness = RecoveryHarness(
            make_tdaccess(payloads),
            TOPIC,
            cf_topology_factory(batch_size=4),
            tick_interval=240.0,
            checkpoint_every_rounds=2,
        )
        harness.start(fault_plan=[Fault(4, "crash_process")])
        summary = harness.run_to_completion()
        assert summary["crashes"] == 1
        assert summary["recoveries"] == 1
        report = summary["reports"][0]
        assert report is not None and report.replay_backlog > 0

        got_recs = recommendations_bytes(harness.client(), harness.clock.now())
        assert got_recs == want_recs
        assert state_digest(harness.client()) == want_state

    def test_combiner_and_pruning_state_survive_crashes(self):
        # combiner buffers and Hoeffding counters live only in bolt
        # memory: exactness across a crash proves the snapshot protocol
        payloads = make_payloads(N_MESSAGES)
        kwargs = dict(use_combiner=True, pruning_delta=0.05)
        want_recs, want_state = run_reference(payloads, **kwargs)

        harness = RecoveryHarness(
            make_tdaccess(payloads),
            TOPIC,
            cf_topology_factory(batch_size=4, **kwargs),
            tick_interval=240.0,
            checkpoint_every_rounds=1,
        )
        harness.start(
            fault_plan=[Fault(3, "crash_process"), Fault(5, "crash_process")]
        )
        summary = harness.run_to_completion()
        assert summary["crashes"] == 2
        got_recs = recommendations_bytes(harness.client(), harness.clock.now())
        assert got_recs == want_recs
        assert state_digest(harness.client()) == want_state

    def test_infrastructure_faults_plus_crash(self):
        # task kills and a TDStore server crash/recovery ride along with
        # the process crash; replication failover keeps state exact
        payloads = make_payloads(N_MESSAGES)
        want_recs, want_state = run_reference(payloads)

        harness = RecoveryHarness(
            make_tdaccess(payloads),
            TOPIC,
            cf_topology_factory(batch_size=4),
            tick_interval=240.0,
            checkpoint_every_rounds=2,
        )
        harness.start(
            fault_plan=[
                Fault(1, "kill_task", ("userHistory", 0)),
                Fault(2, "crash_tdstore", (0,)),
                Fault(3, "recover_tdstore", (0,)),
                Fault(4, "crash_process"),
                Fault(5, "kill_task", ("simList", 1)),
            ]
        )
        summary = harness.run_to_completion()
        assert summary["crashes"] == 1
        assert {f.kind for f in harness.injector.injected} == {
            "kill_task", "crash_tdstore", "recover_tdstore", "crash_process",
        }
        got_recs = recommendations_bytes(harness.client(), harness.clock.now())
        assert got_recs == want_recs
        assert state_digest(harness.client()) == want_state

    def test_seeded_chaos_still_exact(self):
        payloads = make_payloads(N_MESSAGES)
        want_recs, want_state = run_reference(payloads)
        for seed in (1, 2):
            harness = RecoveryHarness(
                make_tdaccess(payloads),
                TOPIC,
                cf_topology_factory(batch_size=4),
                tick_interval=240.0,
                checkpoint_every_rounds=2,
            )
            plan = seeded_plan(
                seed,
                horizon=8,
                kill_components=[("userHistory", 2), ("simList", 2)],
                tdstore_servers=[0, 1, 2],
                task_kills=2,
                tdstore_crashes=1,
                process_crashes=1,
            )
            harness.start(fault_plan=plan)
            harness.run_to_completion()
            got = recommendations_bytes(
                harness.client(), harness.clock.now()
            )
            assert got == want_recs, f"seed {seed} diverged"
            assert state_digest(harness.client()) == want_state


class TestRecoveryEdges:
    def test_crash_before_first_checkpoint_cold_restarts(self):
        payloads = make_payloads(24)
        want_recs, _ = run_reference(payloads)
        harness = RecoveryHarness(
            make_tdaccess(payloads),
            TOPIC,
            cf_topology_factory(batch_size=4),
            tick_interval=240.0,
            checkpoint_every_rounds=100,  # never checkpoints before crash
        )
        harness.start(fault_plan=[Fault(2, "crash_process")])
        assert harness.run() == "crashed"
        report = harness.recover()
        assert report is None  # nothing to restore: cold start from 0
        assert harness.run() == "completed"
        got = recommendations_bytes(harness.client(), harness.clock.now())
        assert got == want_recs

    def test_recover_without_start_requires_deployment(self):
        harness = RecoveryHarness(
            make_tdaccess(make_payloads(8)),
            TOPIC,
            cf_topology_factory(),
        )
        with pytest.raises(RecoveryError, match="no deployment"):
            harness.run()

    def test_run_to_completion_gives_up_after_max_crashes(self):
        harness = RecoveryHarness(
            make_tdaccess(make_payloads(24)),
            TOPIC,
            cf_topology_factory(batch_size=4),
            checkpoint_every_rounds=2,
        )
        # one crash per recovered run, every run, at its first barrier:
        # the stream can never finish, so the harness must give up
        plan = [Fault(1, "crash_process") for _ in range(10)]
        harness.start(fault_plan=plan)
        with pytest.raises(RecoveryError, match="gave up"):
            harness.run_to_completion(max_crashes=3)

    def test_truncated_replay_strict_raises_lenient_reports(self):
        # retention churns on while the computation is down: by the time
        # recovery seeks back, the checkpointed offsets are gone
        for strict in (True, False):
            tdaccess = make_tdaccess(
                make_payloads(24),
                num_partitions=1,
                segment_size=8,
                retention_segments=2,
            )
            harness = RecoveryHarness(
                tdaccess,
                TOPIC,
                cf_topology_factory(batch_size=4),
                checkpoint_every_rounds=1,
                allow_truncated_replay=not strict,
            )
            harness.start(fault_plan=[Fault(2, "crash_process")])
            assert harness.run() == "crashed"
            producer = tdaccess.producer()
            for payload in make_payloads(32, seed=99):
                producer.send(TOPIC, payload, key=payload["user"])
            if strict:
                with pytest.raises(RecoveryError, match="retention"):
                    harness.recover()
            else:
                report = harness.recover()
                assert report is not None and report.truncated
                assert report.truncated_messages > 0
                assert harness.run() == "completed"

    def test_wrong_topology_name_rejected(self):
        harness = RecoveryHarness(
            make_tdaccess(make_payloads(24)),
            TOPIC,
            cf_topology_factory(batch_size=4),
            checkpoint_every_rounds=1,
        )
        harness.start(fault_plan=[Fault(4, "crash_process")])
        assert harness.run() == "crashed"
        stack = harness._build_stack()
        with pytest.raises(RecoveryError, match="topology"):
            harness.recovery.restore_latest(
                cluster=stack.cluster,
                topology="something-else",
                tdstore=stack.tdstore,
                consumers={"source": stack.consumer},
                clock=stack.clock,
            )


class TestServeThroughRecovery:
    def test_degraded_serving_uses_last_known_good(self):
        payloads = make_payloads(N_MESSAGES)
        harness = RecoveryHarness(
            make_tdaccess(payloads),
            TOPIC,
            cf_topology_factory(batch_size=4),
            tick_interval=240.0,
            checkpoint_every_rounds=2,
        )
        harness.start(fault_plan=[Fault(4, "crash_process")])
        assert harness.run() == "crashed"
        harness.recover()

        engine = RecommenderEngine(harness.client())
        reads = []
        engine.recommend_cf = lambda *args, real=engine.recommend_cf: (
            reads.append(args) or real(*args)
        )
        front_end = RecommenderFrontEnd(
            engine,
            in_recovery=lambda: harness.recovery.in_progress,
            static_items=("s1", "s2", "s3"),
        )
        now = harness.clock.now()
        # mid-recovery: no live read of half-replayed state, and with no
        # last-known-good answer yet the ladder below answers
        assert harness.recovery.in_progress
        degraded = front_end.query("u0", 3, now)
        assert reads == []
        # (this topology keeps no hot lists, so that is the static rung)
        assert [r.item_id for r in degraded] == ["s1", "s2", "s3"]
        assert front_end.log.rungs == {"static": 1}

        assert harness.run() == "completed"
        assert not harness.recovery.in_progress
        live = front_end.query("u0", 3, harness.clock.now())
        assert len(reads) == 1 and live
        # a later recovery window serves the live answer from the cache rung
        harness.recovery.in_progress = True
        assert front_end.query("u0", 3, harness.clock.now()) == live
        assert len(reads) == 1
        assert front_end.log.rungs["live"] == 1
        assert front_end.log.rungs["cache"] == 1
        harness.recovery.in_progress = False

    def test_recovery_duration_recorded(self):
        harness = RecoveryHarness(
            make_tdaccess(make_payloads(N_MESSAGES)),
            TOPIC,
            cf_topology_factory(batch_size=4),
            tick_interval=240.0,
            checkpoint_every_rounds=2,
        )
        harness.start(fault_plan=[Fault(4, "crash_process")])
        harness.run_to_completion()
        assert harness.recovery.last_recovery_duration is not None
        assert harness.recovery.last_recovery_duration >= 0.0
