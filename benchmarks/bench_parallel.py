"""End-to-end ops/s of the CF topology vs. worker process count.

The paper scales TencentRec by adding Storm workers; the claim this
benchmark pins down is that the process substrate actually converts
extra worker processes into throughput. On a box with more cores than
workers that is unremarkable, so the benchmark is calibrated for the
harder case — a single shared CPU — where the only parallel resource
is the time workers spend *waiting*: every TDStore mutation is
fsync-durable before it is acknowledged. A worker commits its share of
a component wave as one envelope — one log record, one barrier for all
of its tasks' mutations — so even a lone blocking worker amortizes the
barrier (mutations per ``fsync``, reported as ``M``, is the direct
measure), and N workers keep N envelopes in flight for the server
host's group commit to cover with one barrier (WAL records per commit,
``K``).

Two calibration choices keep the measurement meaningful:

- ``commit_floor`` pins the modeled commit-barrier latency to 1 ms.
  Virtualized hosts absorb ``fsync`` into the host page cache (100-300
  us here, vs the 0.5-2 ms a production SSD barrier costs), which both
  understates the real cost of durability and makes single-worker
  walls track host I/O noise instead of the workload. The floor is a
  WAL-level knob, off by default everywhere else, and is recorded in
  the emitted JSON.
- The action stream is dense (few users over a modest catalog), so
  histories grow and each action fans out into several co-occurrence
  updates — the write-heavy regime the CF pipeline is in once it has
  been running for a while, and the one where durability dominates.

Fields grouping keeps correctness independent of the worker count: the
incremental state (item counts, pair counts, similarity lists, user
histories) must be byte-identical at every parallelism level (the
acceptance tests additionally pin process-substrate state to the
simulator's).

Each worker count gets a fresh cluster per rep; a warm-up topology runs
first inside each cluster so worker spawn and module-import costs stay
out of the measured window. Worker counts are interleaved across reps
and the best rep per count is compared, because wall-clock noise on a
shared host arrives in bursts that would otherwise land on one side of
the ratio.

Writes ``BENCH_parallel.json``: ops/s per worker count (1, 2, 4), gated
on absolute floors — what each count reached when every mutation paid
its own barrier — and on a lone worker committing more than one
mutation per ``fsync``. The 1->4 ratio is reported, not gated: it
measured how much a lone worker wasted, and shrinks as that is fixed —
below one since a lone worker sends a whole wave as one envelope, which
N workers on the one CPU split into N.
"""

import hashlib
import json
import time

from repro.runtime import ProcessSubstrate, topology_recipe
from repro.storm.grouping import FieldsGrouping, ShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.topology.bolts_cf import (
    ItemCountBolt,
    PairCountBolt,
    SimListBolt,
    UserHistoryBolt,
)
from repro.topology.bolts_common import PretreatmentBolt
from repro.topology.spouts import TDAccessSpout
from repro.topology.state import StateKeys
from repro.utils.clock import SimClock
from repro.utils.rng import SeedSequenceFactory

from benchmarks.conftest import report, report_json
from tests.recovery.helpers import TOPIC, make_tdaccess

N_MESSAGES = 80
N_WARMUP = 40
NUM_USERS = 12
NUM_ITEMS = 64
BATCH = 24
PARALLELISM = 16  # tasks per stateful component; caps per-wave concurrency
PRETREAT_PARALLELISM = 8
WORKER_COUNTS = [1, 2, 4]
REPS = 2
COMMIT_FLOOR = 0.001  # modeled barrier; see module docstring
MAX_GROUP_WAIT = 0.001
# ops/s per worker count with one frame, one record and one fsync per
# mutation (the committed BENCH_parallel.json before slices committed
# as envelopes); no worker count may fall back below its own
OPS_PER_SEC_FLOOR = {1: 414.0, 2: 650.0, 4: 912.0}


def bench_payloads(
    n: int,
    num_users: int = NUM_USERS,
    num_items: int = NUM_ITEMS,
    seed: int = 11,
    step_seconds: float = 30.0,
):
    """Deterministic dense action stream: few users, growing histories."""
    rng = SeedSequenceFactory(seed).generator("bench-actions")
    payloads = []
    now = 0.0
    for _ in range(n):
        now += step_seconds
        payloads.append(
            {
                "user": f"u{int(rng.integers(0, num_users))}",
                "item": f"i{int(rng.integers(0, num_items))}",
                "action": "click",
                "timestamp": now,
            }
        )
    return payloads


def cf_bench_topology(
    batch_size: int = BATCH,
    parallelism: int = PARALLELISM,
    pretreat_parallelism: int = PRETREAT_PARALLELISM,
    topo_name: str = "cf-bench",
):
    """Recipe-compatible CF topology sized for the worker-scaling bench."""

    def factory(clock, client_factory, consumer):
        builder = TopologyBuilder(topo_name)
        builder.add_spout(
            "source", lambda: TDAccessSpout(consumer, clock, batch_size)
        )
        builder.add_bolt(
            "pretreatment", PretreatmentBolt, parallelism=pretreat_parallelism
        ).grouping("source", ShuffleGrouping(), "raw_action")
        builder.add_bolt(
            "userHistory",
            lambda: UserHistoryBolt(client_factory),
            parallelism=parallelism,
        ).grouping("pretreatment", FieldsGrouping(["user"]), "user_action")
        builder.add_bolt(
            "itemCount",
            lambda: ItemCountBolt(client_factory),
            parallelism=parallelism,
        ).grouping("userHistory", FieldsGrouping(["item"]), "item_delta")
        builder.add_bolt(
            "pairCount",
            lambda: PairCountBolt(client_factory),
            parallelism=parallelism,
        ).grouping(
            "userHistory", FieldsGrouping(["pair_a", "pair_b"]), "pair_delta"
        )
        builder.add_bolt(
            "simList",
            lambda: SimListBolt(client_factory),
            parallelism=parallelism,
        ).grouping(
            "pairCount", FieldsGrouping(["item"]), "sim_update"
        ).grouping("pairCount", FieldsGrouping(["item"]), "prune")
        return builder.build()

    return factory


def state_fingerprint(client) -> str:
    """Canonical hash of every piece of CF state the pipeline maintains."""
    items = [f"i{i}" for i in range(NUM_ITEMS)]
    users = [f"u{i}" for i in range(NUM_USERS)]
    state = {
        "item_counts": {
            item: client.get(StateKeys.item_count(item), 0.0) for item in items
        },
        "sim_lists": {
            item: client.get(StateKeys.sim_list(item), None) for item in items
        },
        "histories": {
            user: client.get(StateKeys.history(user), None) for user in users
        },
        "pair_counts": {
            f"{a}|{b}": value
            for i, a in enumerate(items)
            for b in items[i + 1 :]
            if (value := client.get(StateKeys.pair_count(a, b), None))
            is not None
        },
    }
    canon = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()


def run_once(worker_procs: int):
    with ProcessSubstrate(
        worker_procs=worker_procs,
        server_procs=1,
        max_group_wait=MAX_GROUP_WAIT,
        commit_floor=COMMIT_FLOOR,
    ) as sub:
        clock = SimClock()
        store = sub.build_tdstore(4, 16)
        cluster = sub.build_storm(clock)

        def one_pass(topo_name: str, count: int, seed: int):
            consumer = make_tdaccess(
                bench_payloads(count, seed=seed)
            ).consumer(TOPIC)
            factory = topology_recipe(
                "benchmarks.bench_parallel",
                "cf_bench_topology",
                topo_name=topo_name,
            )
            topology = factory(clock, store.client, consumer)
            cluster.submit(topology)
            start = time.perf_counter()
            cluster.run_until_idle()
            wall = time.perf_counter() - start
            metrics = cluster.metrics(topology.name)
            executed = sum(m.executed for m in metrics.tasks.values())
            return executed, wall

        # spawn, module-import and first-commit costs land here
        one_pass("warmup", N_WARMUP, seed=7)
        executed, wall = one_pass("bench", N_MESSAGES, seed=11)
        host_stats = store.host_stats()
        wal_records = sum(h["wal"]["records"] for h in host_stats)
        wal_commits = sum(h["wal"]["commits"] for h in host_stats)
        mutations = sum(store.write_stats().values())
        return {
            "wall_seconds": wall,
            "executed": executed,
            "ops_per_sec": executed / wall,
            "records_per_commit": wal_records / max(wal_commits, 1),
            "mutations_per_fsync": mutations / max(wal_commits, 1),
            "fingerprint": state_fingerprint(store.client()),
        }


def test_parallel_scaling():
    runs: dict[int, list] = {w: [] for w in WORKER_COUNTS}
    reference = None
    for _rep in range(REPS):
        # interleave worker counts so host noise bursts hit all of them
        for workers in WORKER_COUNTS:
            run = run_once(workers)
            # correctness first: every run, at every worker count, must
            # produce identical incremental state
            if reference is None:
                reference = run["fingerprint"]
            assert run["fingerprint"] == reference, (
                f"state diverged at {workers} workers"
            )
            runs[workers].append(run)

    results = {}
    for workers in WORKER_COUNTS:
        best = max(runs[workers], key=lambda r: r["ops_per_sec"])
        results[workers] = {
            "workers": workers,
            "reps": REPS,
            "executed": best["executed"],
            "wall_seconds": round(best["wall_seconds"], 4),
            "ops_per_sec": round(best["ops_per_sec"], 1),
            "all_ops_per_sec": [
                round(r["ops_per_sec"], 1) for r in runs[workers]
            ],
            "records_per_commit": round(best["records_per_commit"], 2),
            "mutations_per_fsync": round(best["mutations_per_fsync"], 2),
        }

    speedup = results[4]["ops_per_sec"] / results[1]["ops_per_sec"]
    payload = {
        "topology": "cf-bench",
        "messages": N_MESSAGES,
        "warmup_messages": N_WARMUP,
        "num_users": NUM_USERS,
        "num_items": NUM_ITEMS,
        "batch_size": BATCH,
        "parallelism": PARALLELISM,
        "durable": True,
        "commit_floor_seconds": COMMIT_FLOOR,
        "max_group_wait_seconds": MAX_GROUP_WAIT,
        "per_worker_count": {str(w): results[w] for w in WORKER_COUNTS},
        "speedup_1_to_2": round(
            results[2]["ops_per_sec"] / results[1]["ops_per_sec"], 2
        ),
        "speedup_1_to_4": round(speedup, 2),
    }
    report_json("parallel", payload)
    report(
        "parallel",
        "\n".join(
            ["CF topology end-to-end ops/s vs worker processes"]
            + [
                f"  {w} workers: {results[w]['ops_per_sec']:>8.1f} ops/s "
                f"({results[w]['wall_seconds']:.2f}s, "
                f"{results[w]['executed']} executions, "
                f"K={results[w]['records_per_commit']:.2f}, "
                f"M={results[w]['mutations_per_fsync']:.2f})"
                for w in WORKER_COUNTS
            ]
            + [f"  speedup 1->4: {speedup:.2f}x (reported, not gated)"]
        ),
    )
    for workers, floor in OPS_PER_SEC_FLOOR.items():
        assert results[workers]["ops_per_sec"] >= floor, (
            f"{workers} workers: {results[workers]['ops_per_sec']} ops/s, "
            f"below the {floor} they reached one mutation per frame"
        )
    assert results[1]["mutations_per_fsync"] > 1.0, (
        "a lone worker pays one barrier per mutation again"
    )
