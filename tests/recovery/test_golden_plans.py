"""The seeded generators emit, for pinned seeds, the plans they emitted
before their never-set keywords became module constants — no rng draw
moved. The literals were recorded at the commit before that change.

Every schedule the chaos suites and ``BENCH_chaos.json`` replay comes
out of these two functions, so a moved draw would silently change what
all of them test.
"""

from repro.recovery import seeded_plan
from repro.runtime.chaos import seeded_process_plan


def as_tuples(plan):
    return [(fault.round, fault.kind, fault.target) for fault in plan]


def test_seeded_plan_matches_recorded_plan():
    # the kwargs tests/recovery/test_fault_injector.py uses
    plan = seeded_plan(
        11,
        horizon=12,
        kill_components=[("userHistory", 2), ("itemCount", 2)],
        tdstore_servers=[0, 1, 2],
        task_kills=2,
        tdstore_crashes=1,
    )
    assert as_tuples(plan) == [
        (1, "kill_task", ("userHistory", 1)),
        (3, "kill_task", ("userHistory", 1)),
        (7, "crash_tdstore", (1,)),
        (9, "recover_tdstore", (1,)),
        (11, "crash_process", ()),
    ]


def test_seeded_plan_with_every_family_matches_recorded_plan():
    # every branch that draws, so each constant sits where its keyword did
    plan = seeded_plan(
        11,
        horizon=14,
        kill_components=[("userHistory", 2), ("itemCount", 2)],
        tdstore_servers=[0, 1, 2],
        tdaccess_servers=[0, 1],
        task_kills=1,
        tdstore_crashes=1,
        master_failovers=1,
        process_crashes=1,
        latency_spikes=1,
        error_rates=1,
        error_every=4,
        brownouts=1,
        duplicate_deliveries=1,
        midtree_kills=1,
        rewind_depth=6,
    )
    assert as_tuples(plan) == [
        (1, "kill_task", ("userHistory", 1)),
        (1, "worker_kill_midtree", ("userHistory", 0, 3, 6)),
        (4, "error_rate", ("tdstore", 2, 4)),
        (5, "failover_tdaccess_master", ()),
        (6, "clear_degradation", ("tdstore", 2)),
        (7, "crash_tdstore", (0,)),
        (8, "recover_tdstore", (0,)),
        (9, "latency_spike", ("tdstore", 1, 0.25)),
        (9, "brownout", ("tdaccess", 1)),
        (10, "clear_degradation", ("tdaccess", 1)),
        (10, "duplicate_delivery", ("source", 6)),
        (10, "crash_process", ()),
        (11, "clear_degradation", ("tdstore", 1)),
    ]


def test_seeded_process_plan_matches_recorded_plan():
    # the kwargs tests/runtime/test_chaos_unit.py uses
    plan = seeded_process_plan(
        42,
        horizon=10,
        hosts=2,
        workers=3,
        disk_faults=("torn_write", "fsync_error"),
        latency_spikes=1,
        tdstore_servers=[0, 1, 2],
    )
    assert as_tuples(plan) == [
        (1, "conn_reset", (0, 1)),
        (1, "latency_spike", ("tdstore", 1, 0.05)),
        (3, "frame_drop", (1, 1)),
        (3, "clear_degradation", ("tdstore", 1)),
        (4, "worker_sigkill", (0, 3, 6)),
        (4, "frame_delay", (1, 2, 0.02)),
        (4, "fsync_error", (1,)),
        (6, "host_sigkill", (0,)),
        (8, "one_way_partition", (0, "inbound", 1)),
        (9, "torn_write", (1,)),
    ]
