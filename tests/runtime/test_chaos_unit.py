"""Unit coverage for the chaos layer's pure parts, plus substrate
lifecycle regressions that ride this PR (WAL temp-dir leak, hang
deadline plumbing)."""

import os

import pytest

from repro.errors import FaultPlanError
from repro.recovery.faults import Fault
from repro.runtime import ProcessSubstrate
from repro.runtime.chaos import (
    lost_keys,
    percentile,
    seeded_process_plan,
)


class TestFaultValidation:
    def test_valid_process_native_targets(self):
        Fault(1, "host_sigkill", (0,))
        Fault(1, "worker_sigkill", (1, 3, 8))
        Fault(1, "conn_reset", (0, 2))
        Fault(1, "frame_drop", (1, 1))
        Fault(1, "frame_delay", (0, 2, 0.05))
        Fault(1, "one_way_partition", (0, "inbound", 1))
        Fault(1, "torn_write", (0,))
        Fault(1, "disk_full", (0,))
        Fault(1, "fsync_error", (0,))

    @pytest.mark.parametrize(
        "kind, target",
        [
            ("host_sigkill", ()),
            ("host_sigkill", (-1,)),
            ("host_sigkill", ("0",)),
            ("worker_sigkill", (0, 0, 8)),
            ("worker_sigkill", (0, 3)),
            ("conn_reset", (0, 0)),
            ("frame_drop", (0,)),
            ("frame_delay", (0, 1, 0.0)),
            ("one_way_partition", (0, "sideways", 1)),
            ("one_way_partition", (0, "inbound", 0)),
            ("fsync_error", (0, 1)),
        ],
    )
    def test_malformed_targets_are_refused(self, kind, target):
        with pytest.raises(FaultPlanError):
            Fault(1, kind, target)


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_single_sample(self):
        assert percentile([0.3], 50) == 0.3
        assert percentile([0.3], 99) == 0.3

    def test_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(values, 0) == 0.1
        assert percentile(values, 50) == 0.3
        assert percentile(values, 100) == 0.5
        assert percentile(values, 99) == 0.5

    def test_unsorted_input(self):
        assert percentile([0.5, 0.1, 0.3], 50) == 0.3


class TestLostKeys:
    def test_identical_states_lose_nothing(self):
        state = {"item_counts": {"i0": 2.0}, "sim_lists": {"i0": [1]}}
        assert lost_keys(state, state) == 0

    def test_missing_keys_are_counted_per_section(self):
        reference = {
            "item_counts": {"i0": 2.0, "i1": 1.0},
            "pair_counts": {("i0", "i1"): 1.0},
        }
        observed = {"item_counts": {"i0": 2.0}, "pair_counts": {}}
        assert lost_keys(reference, observed) == 2

    def test_missing_section_counts_all_its_keys(self):
        reference = {"sim_lists": {"i0": [1], "i1": [2]}}
        assert lost_keys(reference, {}) == 2


class TestSeededProcessPlan:
    def test_deterministic_for_a_seed(self):
        kwargs = dict(
            horizon=10, hosts=2, workers=3,
            disk_faults=("torn_write", "fsync_error"),
            latency_spikes=1, tdstore_servers=[0, 1, 2],
        )
        a = seeded_process_plan(42, **kwargs)
        b = seeded_process_plan(42, **kwargs)
        assert [(f.round, f.kind, f.target) for f in a] == [
            (f.round, f.kind, f.target) for f in b
        ]
        c = seeded_process_plan(43, **kwargs)
        assert [(f.round, f.kind, f.target) for f in a] != [
            (f.round, f.kind, f.target) for f in c
        ]

    def test_plan_is_sorted_and_targets_are_in_range(self):
        plan = seeded_process_plan(
            7, horizon=12, hosts=3, workers=2,
            host_kills=2, worker_kills=2, partitions=2,
        )
        rounds = [f.round for f in plan]
        assert rounds == sorted(rounds)
        for fault in plan:
            if fault.kind == "host_sigkill":
                assert 0 <= fault.target[0] < 3
                assert fault.round >= 2  # state must exist to replay
            if fault.kind == "worker_sigkill":
                assert 0 <= fault.target[0] < 2

    def test_short_horizon_is_refused(self):
        with pytest.raises(FaultPlanError):
            seeded_process_plan(1, horizon=3, hosts=1, workers=1)

    def test_unknown_disk_fault_is_refused(self):
        with pytest.raises(FaultPlanError):
            seeded_process_plan(
                1, horizon=8, hosts=1, workers=1, disk_faults=("bit_rot",)
            )


class TestSubstrateLifecycleRegressions:
    def test_teardown_removes_owned_wal_tempdir(self):
        # regression: the mkdtemp'd WAL dir used to outlive teardown
        substrate = ProcessSubstrate(worker_procs=1, server_procs=1)
        try:
            substrate.build_tdstore(2, 8)
            wal_dir = substrate._wal_dir
            assert wal_dir is not None and os.path.isdir(wal_dir)
            assert os.listdir(wal_dir)  # WALs were really written there
        finally:
            substrate.teardown()
        assert not os.path.exists(wal_dir)
        assert substrate._wal_dir is None

    def test_teardown_preserves_user_supplied_wal_dir(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        substrate = ProcessSubstrate(
            worker_procs=1, server_procs=1, wal_dir=wal_dir
        )
        try:
            substrate.build_tdstore(2, 8)
        finally:
            substrate.teardown()
        assert os.path.isdir(wal_dir)
        assert os.listdir(wal_dir)

    def test_teardown_is_idempotent_about_the_wal_dir(self):
        substrate = ProcessSubstrate(worker_procs=1, server_procs=1)
        substrate.build_tdstore(2, 8)
        substrate.teardown()
        substrate.teardown()  # second teardown must not blow up

    def test_hang_deadline_reaches_the_supervisor(self):
        substrate = ProcessSubstrate(
            worker_procs=1, server_procs=1, hang_deadline=5.0
        )
        try:
            assert substrate.supervisor.hang_deadline == 5.0
        finally:
            substrate.teardown()

    def test_sim_substrate_has_no_chaos_runtime(self):
        from repro.runtime import SimSubstrate

        assert SimSubstrate().chaos_runtime() is None

    def test_process_substrate_chaos_runtime_is_cached(self):
        substrate = ProcessSubstrate(worker_procs=1, server_procs=1)
        try:
            runtime = substrate.chaos_runtime()
            assert runtime is substrate.chaos_runtime()
        finally:
            substrate.teardown()


class TestHostChaosSeam:
    def test_armed_windows_drain_in_precedence_order(self):
        """reset beats drop beats corrupt beats delay, one window per
        non-admin request frame; ``armed`` reports the four kinds."""
        from repro.errors import RemoteOpError
        from repro.faultkinds import NETWORK_WINDOW_KINDS
        from repro.runtime import RpcClient

        def armed_after(request=None):
            if request is not None:
                probe = RpcClient(*address, timeout=0.5)
                try:
                    probe.call("alive", target=("data", 0))
                except RemoteOpError:
                    pass  # a reset or a swallowed reply is the fault
                finally:
                    probe.close()
            return admin.call("_stats")["chaos"]["armed"]

        with ProcessSubstrate(worker_procs=1, server_procs=1) as substrate:
            substrate.build_tdstore(2, 8)
            address = substrate.supervisor.get("tdstore-host-0").address
            admin = RpcClient(*address)
            try:
                for kind in reversed(NETWORK_WINDOW_KINDS):
                    admin.call("_chaos", kind, 1, 0.001)
                assert armed_after() == dict.fromkeys(NETWORK_WINDOW_KINDS, 1)
                reset, drop, corrupt, delay = NETWORK_WINDOW_KINDS
                assert armed_after("probe") == {
                    reset: 0, drop: 1, corrupt: 1, delay: 1
                }
                assert armed_after("probe") == {
                    reset: 0, drop: 0, corrupt: 1, delay: 1
                }
                # the corrupt reply fails its CRC and the idempotent
                # probe is re-sent once: the retry meets the delay
                assert armed_after("probe") == dict.fromkeys(
                    NETWORK_WINDOW_KINDS, 0
                )
                admin.call("_chaos", drop, 3)
                assert admin.call("_chaos", "clear")["armed"] == dict.fromkeys(
                    NETWORK_WINDOW_KINDS, 0
                )
            finally:
                admin.close()
