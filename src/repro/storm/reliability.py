"""Exactly-once dedup for bolts.

The executors retry a failed component wave on its restarted tasks, and
a consumer seek re-delivers what it rewinds, so a bolt may meet a tuple
more than once. :class:`ExactlyOnceBolt` upgrades a bolt to effectively
exactly-once processing: every spout tuple carries a stable
``(source, offset)`` identity (``StormTuple.op_id``), bolt emissions
derive child identities deterministically, and a bounded
:class:`DedupLedger` drops re-deliveries before they touch state. The
ledger is watermark-pruned — memory stays O(in-flight window), not
O(stream) — and is captured by ``snapshot_state`` so the recovery
subsystem's checkpoints include it.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.storm.component import Bolt
from repro.storm.tuples import StormTuple

# Offsets retained per source behind the highest offset seen. Must exceed
# the largest burst of first deliveries that can arrive out of order at
# one task (a poll batch per round) and the deepest rewind a fault or
# recovery replays; anything older showing up again can only be a
# duplicate.
DEFAULT_RETAIN_DEPTH = 256


class _SourceWindow:
    """Seen-offset tracking for one source, pruned by a low watermark.

    Offsets at or below ``watermark`` are treated as already seen — by
    the time the watermark passes an offset, its first delivery has long
    been processed, so a later arrival can only be a replay. Offsets in
    ``(watermark, max_seen]`` are tracked exactly, per derived-op suffix,
    in ``detail``.
    """

    __slots__ = ("watermark", "max_seen", "detail")

    def __init__(self):
        self.watermark = -1
        self.max_seen = -1
        self.detail: dict[int, set[str]] = {}

    def below_watermark(self, offset: int) -> bool:
        return offset <= self.watermark

    def seen(self, offset: int, suffix: str) -> bool:
        """Pure check: was ``(offset, suffix)`` observed (or pruned past)?"""
        if offset <= self.watermark:
            return True
        ops = self.detail.get(offset)
        return ops is not None and suffix in ops

    def record(self, offset: int, suffix: str, retain_depth: int):
        """Record ``(offset, suffix)`` as seen and advance the watermark."""
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
                # tracked offsets all lie above the old watermark: pop
                # (watermark, floor] unless that is longer than the window
                if floor - self.watermark < len(self.detail):
                    for old in range(self.watermark + 1, floor + 1):
                        self.detail.pop(old, None)
                else:
                    for old in [o for o in self.detail if o <= floor]:
                        del self.detail[old]
                self.watermark = floor


class DedupLedger:
    """Bounded per-task ledger of seen operation ids.

    Parses op ids of the shape ``"{source}@{offset}"`` (optionally
    followed by ``">..."`` derivation suffixes) and tracks them per
    source in a watermark-pruned window of ``retain_depth`` offsets.
    Op ids that do not parse are kept verbatim (unbounded, but only
    hand-crafted ids ever take that path).
    """

    def __init__(self, retain_depth: int = DEFAULT_RETAIN_DEPTH):
        if retain_depth <= 0:
            raise ConfigurationError(
                f"retain_depth must be positive: {retain_depth}"
            )
        self.retain_depth = retain_depth
        self._sources: dict[str, _SourceWindow] = {}
        self._odd: set[str] = set()
        self.first_seen = 0
        self.duplicates = 0
        # drops decided solely by the watermark: the offset is so far
        # behind max_seen that the exact detail was pruned. Almost always
        # a replay, but a late *first* delivery (inter-stream skew beyond
        # retain_depth) is indistinguishable — counted separately so that
        # misconfiguration-driven data loss is observable, not folded
        # into ordinary dedup hits.
        self.watermark_rejections = 0

    @staticmethod
    def _parse(op_id: str) -> "tuple[str, int, str] | None":
        root, sep, suffix = op_id.partition(">")
        source, at, offset = root.rpartition("@")
        if not at or not source:
            return None
        try:
            return source, int(offset), suffix
        except ValueError:
            return None

    def seen(self, op_id: str) -> bool:
        """Is ``op_id`` a replay? Counts the duplicate but records nothing.

        Callers pair this with :meth:`commit`: check first, run the
        (fallible) work, and only then commit the id — so a failure in
        between leaves the ledger unmarked and the replay is processed.
        """
        parsed = self._parse(op_id)
        if parsed is None:
            if op_id in self._odd:
                self.duplicates += 1
                return True
            return False
        source, offset, suffix = parsed
        window = self._sources.get(source)
        if window is None:
            return False
        if window.seen(offset, suffix):
            self.duplicates += 1
            if window.below_watermark(offset):
                self.watermark_rejections += 1
            return True
        return False

    def commit(self, op_id: str):
        """Record ``op_id`` as processed (call after the work succeeded)."""
        parsed = self._parse(op_id)
        if parsed is None:
            self._odd.add(op_id)
            self.first_seen += 1
            return
        source, offset, suffix = parsed
        window = self._sources.get(source)
        if window is None:
            window = self._sources[source] = _SourceWindow()
        window.record(offset, suffix, self.retain_depth)
        self.first_seen += 1

    def observe(self, op_id: str) -> bool:
        """Record ``op_id``; return True the first time, False on replays."""
        if self.seen(op_id):
            return False
        self.commit(op_id)
        return True

    # -- introspection -----------------------------------------------------

    def offsets_retained(self) -> int:
        """Distinct offsets currently tracked exactly (above watermarks)."""
        return sum(len(w.detail) for w in self._sources.values())

    def entries(self) -> int:
        """Total (offset, suffix) pairs held, plus unparseable ids."""
        return len(self._odd) + sum(
            len(ops) for w in self._sources.values() for ops in w.detail.values()
        )

    def within_bound(self) -> bool:
        """True while every source window respects the watermark bound."""
        return all(
            len(w.detail) <= self.retain_depth
            and all(o > w.watermark for o in w.detail)
            for w in self._sources.values()
        )

    def stats(self) -> dict:
        return {
            "sources": len(self._sources),
            "offsets": self.offsets_retained(),
            "entries": self.entries(),
            "retain_depth": self.retain_depth,
            "within_bound": self.within_bound(),
            "first_seen": self.first_seen,
            "duplicates": self.duplicates,
            "watermark_rejections": self.watermark_rejections,
        }

    # -- checkpoint support ------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "retain_depth": self.retain_depth,
            "first_seen": self.first_seen,
            "duplicates": self.duplicates,
            "watermark_rejections": self.watermark_rejections,
            "odd": sorted(self._odd),
            "sources": {
                name: {
                    "watermark": w.watermark,
                    "max_seen": w.max_seen,
                    "detail": {o: sorted(ops) for o, ops in w.detail.items()},
                }
                for name, w in sorted(self._sources.items())
            },
        }

    def restore(self, state: dict):
        self.retain_depth = state["retain_depth"]
        self.first_seen = state["first_seen"]
        self.duplicates = state["duplicates"]
        self.watermark_rejections = state["watermark_rejections"]
        self._odd = set(state["odd"])
        self._sources = {}
        for name, ws in state["sources"].items():
            window = _SourceWindow()
            window.watermark = ws["watermark"]
            window.max_seen = ws["max_seen"]
            window.detail = {
                int(o): set(ops) for o, ops in ws["detail"].items()
            }
            self._sources[name] = window


class ExactlyOnceBolt(Bolt):
    """A bolt that processes each tuple exactly once.

    Subclasses implement :meth:`process` instead of ``execute``; input
    tuples whose ``op_id`` the ledger has already seen are dropped before
    any state is touched (and before any emission, so the whole subtree
    of a replayed tuple is suppressed). A tuple without an ``op_id`` is
    a wiring error — its spout assigns no replay-stable identity — and
    is refused with :class:`ConfigurationError` rather than processed
    at-least-once.

    The ledger is committed only *after* :meth:`process` returns: if the
    work raises (a store deadline miss, an open breaker, an injected
    server error) the ledger stays unmarked, so a re-delivery is
    processed rather than swallowed as a duplicate. Marking first would
    silently degrade exactly-once to at-most-once whenever an exception
    coincides with a re-delivery. A failed wave's commit restarts the
    task, ledger and all, and the retried wave meets the store's
    journals.

    The ledger rides along in ``snapshot_state``/``restore_state`` so
    recovery checkpoints capture it; subclasses keep their own
    checkpointed state through :meth:`snapshot_app_state` /
    :meth:`restore_app_state` rather than overriding the base protocol.
    """

    def __init__(self):
        self._ledger = DedupLedger(retain_depth=DEFAULT_RETAIN_DEPTH)
        self.dedup_hits = 0

    @property
    def ledger(self) -> DedupLedger:
        return self._ledger

    def execute(self, tup: StormTuple):
        op_id = tup.op_id
        if not op_id:
            raise ConfigurationError(
                f"{type(self).__name__} received a tuple without an op id "
                f"from {tup.source_component!r} on stream {tup.stream_id!r}: "
                "every spout feeding an exactly-once bolt must emit with "
                "a replay-stable op_id"
            )
        if self._ledger.seen(op_id):
            self.dedup_hits += 1
            return
        self.process(tup)
        self._ledger.commit(op_id)

    def process(self, tup: StormTuple):
        """Handle one input tuple, guaranteed unseen. Override."""
        raise NotImplementedError

    def ledger_stats(self) -> dict:
        stats = self._ledger.stats()
        stats["dedup_hits"] = self.dedup_hits
        return stats

    # -- checkpoint protocol ----------------------------------------------

    def snapshot_app_state(self) -> "dict | None":
        """Subclass hook: process-local state beyond the dedup ledger."""
        return None

    def restore_app_state(self, state: dict):
        """Subclass hook: reinstall state from :meth:`snapshot_app_state`."""

    def snapshot_state(self) -> "dict | None":
        app = self.snapshot_app_state()
        ledger = self._ledger.snapshot()
        if app is None and not ledger["sources"] and not ledger["odd"]:
            return None
        return {"exactly_once": ledger, "app": app}

    def restore_state(self, state: dict):
        self._ledger.restore(state["exactly_once"])
        app = state["app"]
        if app is not None:
            self.restore_app_state(app)

