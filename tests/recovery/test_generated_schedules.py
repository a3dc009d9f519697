"""Generated fault schedules (ROADMAP 7(b)): the property every scripted
chaos test asserts one schedule at a time, over drawn ones.

A schedule is a list of ``(Trigger, Fault)`` over the kinds the
simulator can express, keyed to barrier rounds and to mid-wave tuple
counts alike. Whatever is drawn:

- the run completes through ``run_to_completion`` — process crashes are
  recovered on the way, one per ``crash_process`` drawn;
- the final state is byte-identical to the fault-free reference;
- every entry fires exactly once — at its trigger, or at ``flush()``
  when the stream was too short to reach it — crashes, rebuilds and
  re-attaches notwithstanding.

What the strategy holds fixed, as ``seeded_plan`` does: at most one
TDStore server is down or dropping requests at a time (the open/close
pairs share a counter and do not overlap), and rewinds are
multiples of the spout batch (similarity values are sampled at
pair-processing time, so an unaligned rewind moves batch boundaries of
messages that were never replayed — see test_replay_chaos). A
``crash_process`` is keyed to a tuple count the fault-free run reaches:
the counter is cumulative across rebuilds, so it is always reached, and
``flush()`` never has to crash a drained deployment.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recovery import Fault, RecoveryHarness, Trigger

from tests.recovery.helpers import (
    TOPIC,
    cf_topology_factory,
    make_payloads,
    make_tdaccess,
    recommendations_bytes,
    state_digest,
)

N_MESSAGES = 24
BATCH = 4
PAYLOADS = make_payloads(N_MESSAGES)
COMPONENTS = ["userHistory", "itemCount", "pairCount", "simList"]
SERVERS = [0, 1, 2]


def make_harness():
    return RecoveryHarness(
        make_tdaccess(PAYLOADS),
        TOPIC,
        cf_topology_factory(batch_size=BATCH),
        tick_interval=240.0,
        checkpoint_every_rounds=2,
    )


def fault_free_reference():
    harness = make_harness()
    harness.start()
    progress = {"rounds": 0, "tuples": 0}
    harness.cluster.add_barrier_hook(
        lambda barrier_round: progress.update(rounds=barrier_round)
    )
    harness.cluster.add_execute_hook(
        lambda topology: progress.update(tuples=progress["tuples"] + 1)
    )
    assert harness.run() == "completed"
    now = harness.clock.now()
    fingerprint = (
        recommendations_bytes(harness.client(), now),
        state_digest(harness.client()),
    )
    return fingerprint, now, progress["rounds"], progress["tuples"]


REFERENCE, REF_NOW, REF_ROUNDS, REF_TUPLES = fault_free_reference()

# thresholds reach past the end of the fault-free run, so some entries
# are only ever fired by flush()
thresholds = {
    "rounds": st.integers(1, REF_ROUNDS + 3),
    "tuples": st.integers(1, REF_TUPLES + 40),
}
counters = st.sampled_from(sorted(thresholds))
rewinds = st.sampled_from([BATCH, 2 * BATCH])
tasks = st.tuples(st.sampled_from(COMPONENTS), st.integers(0, 1))


@st.composite
def triggers(draw):
    counter = draw(counters)
    return Trigger(counter, draw(thresholds[counter]))


@st.composite
def single_faults(draw):
    kind = draw(
        st.sampled_from(
            ["kill_task", "duplicate_delivery", "worker_kill_midtree"]
        )
    )
    if kind == "kill_task":
        target = draw(tasks)
    elif kind == "duplicate_delivery":
        target = ("source", draw(rewinds))
    else:
        target = draw(tasks) + (draw(st.integers(1, 6)), draw(rewinds))
    return [(draw(triggers()), Fault(1, kind, target))]


@st.composite
def crashes(draw):
    at = draw(st.integers(1, REF_TUPLES))
    return [(Trigger("tuples", at), Fault(1, "crash_process"))]


@st.composite
def store_windows(draw):
    """Up to two non-overlapping open/close pairs on one counter: while
    a window is open one TDStore server is down or dropping requests,
    and its replicas carry the load — so never two at once."""
    counter = draw(counters)
    count = draw(st.integers(0, 2))
    edges = draw(
        st.lists(
            thresholds[counter],
            min_size=2 * count,
            max_size=2 * count,
            unique=True,
        ).map(sorted)
    )
    entries = []
    for n in range(count):
        server = draw(st.sampled_from(SERVERS))
        if draw(st.booleans()):
            opener = Fault(1, "crash_tdstore", (server,))
            closer = Fault(1, "recover_tdstore", (server,))
        else:
            every = draw(st.integers(3, 5))
            opener = Fault(1, "error_rate", ("tdstore", server, every))
            closer = Fault(1, "clear_degradation", ("tdstore", server))
        entries.append((Trigger(counter, edges[2 * n]), opener))
        entries.append((Trigger(counter, edges[2 * n + 1]), closer))
    return entries


@st.composite
def schedules(draw):
    groups = draw(st.lists(single_faults(), max_size=4))
    groups += draw(st.lists(crashes(), max_size=2))
    groups.append(draw(store_windows()))
    entries = [entry for group in groups for entry in group]
    return draw(st.permutations(entries))


def identity(fault):
    return (fault.kind, fault.target)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(schedules())
def test_generated_schedule_converges_and_fires_each_entry_once(entries):
    harness = make_harness()
    harness.start(fault_plan=entries)
    summary = harness.run_to_completion()
    injector = harness.injector
    injector.flush()

    drawn = Counter(identity(fault) for __, fault in entries)
    assert summary["crashes"] == drawn[("crash_process", ())]
    assert injector.exhausted
    assert Counter(map(identity, injector.injected)) == drawn
    assert injector.skipped == []
    # flush() is the fallback, not the mechanism: what the stream was
    # long enough to reach fired mid-wave
    reached = Counter(
        identity(fault)
        for trigger, fault in entries
        if trigger.counter == "tuples" and trigger.at <= REF_TUPLES
    )
    assert not reached - Counter(map(identity, injector.fired_midflight))
    got = (
        recommendations_bytes(harness.client(), REF_NOW),
        state_digest(harness.client()),
    )
    assert got == REFERENCE
