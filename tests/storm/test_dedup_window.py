"""Watermark pruning of the dedup window against the full-scan reference.

``_SourceWindow.record`` pops only the offsets a watermark advance
passes; ``ScanningWindow`` below is the formulation that rescans the
whole window on every advance, kept verbatim as the reference. Driven
through ``DedupLedger`` (commit, seen, snapshot/restore) by the same op
sequence, the two must hold identical state after every step: watermark,
max_seen, and every tracked offset with its suffixes, in insertion order.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storm import reliability
from repro.storm.reliability import DedupLedger


class ScanningWindow:
    __slots__ = ("watermark", "max_seen", "detail")

    def __init__(self):
        self.watermark = -1
        self.max_seen = -1
        self.detail: dict[int, set[str]] = {}

    def below_watermark(self, offset: int) -> bool:
        return offset <= self.watermark

    def seen(self, offset: int, suffix: str) -> bool:
        if offset <= self.watermark:
            return True
        ops = self.detail.get(offset)
        return ops is not None and suffix in ops

    def record(self, offset: int, suffix: str, retain_depth: int):
        if offset <= self.watermark:
            return
        ops = self.detail.get(offset)
        if ops is None:
            self.detail[offset] = {suffix}
        else:
            ops.add(suffix)
        if offset > self.max_seen:
            self.max_seen = offset
            floor = self.max_seen - retain_depth
            if floor > self.watermark:
                self.watermark = floor
                for old in [o for o in self.detail if o <= floor]:
                    del self.detail[old]


def on_reference(call, *args):
    with mock.patch.object(reliability, "_SourceWindow", ScanningWindow):
        return call(*args)


def state(ledger):
    return ledger.snapshot(), {
        name: (w.watermark, w.max_seen, list(w.detail.items()))
        for name, w in ledger._sources.items()
    }


# a step moves off the highest offset so far: back a little (jitter and
# duplicates), forward by one (in order), or far ahead (a jump past the
# whole window)
steps = st.one_of(
    st.tuples(
        st.just("commit"),
        st.sampled_from(["a", "b"]),
        st.integers(-12, 2) | st.integers(20, 400),
        st.sampled_from(["", ">0", ">1"]),
    ),
    st.tuples(st.just("restore")),
)


@settings(max_examples=60, deadline=None)
@given(
    retain_depth=st.sampled_from([1, 3, 8]),
    ops=st.lists(steps, max_size=80),
)
def test_matches_scanning_reference(retain_depth, ops):
    ledger, reference = DedupLedger(retain_depth), DedupLedger(retain_depth)
    top = {"a": 0, "b": 0}
    for op in ops:
        if op[0] == "restore":
            snap, reference_snap = ledger.snapshot(), reference.snapshot()
            ledger, reference = DedupLedger(), DedupLedger()
            ledger.restore(snap)
            on_reference(reference.restore, reference_snap)
        else:
            __, source, step, suffix = op
            offset = max(0, top[source] + step)
            top[source] = max(top[source], offset)
            op_id = f"{source}@{offset}{suffix}"
            assert ledger.seen(op_id) == reference.seen(op_id)
            ledger.commit(op_id)
            on_reference(reference.commit, op_id)
        assert state(ledger) == state(reference)
        assert ledger.within_bound()
