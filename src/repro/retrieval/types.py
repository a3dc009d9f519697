"""Value types shared across the retrieval subsystem.

All of these cross process boundaries (spawn workers, monitoring
snapshots, test fixtures), so they are plain frozen dataclasses over
builtin containers — no ndarrays, no store handles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CentroidSnapshot:
    """One centroid's full state at a point in time (probe output)."""

    cid: str
    vec: tuple[float, ...]
    count: float
    posting: tuple[str, ...]


@dataclass(frozen=True)
class VQOp:
    """What one :meth:`StreamingVQIndex.observe` call did.

    Returned to the caller (and asserted on in tests) rather than
    logged: the op record is derived state, so persisting it would just
    be a second copy of what the index keys already say.
    """

    item: str
    op_id: str
    assigned: str
    previous: str | None = None
    deduped: bool = False
    split_from: str | None = None
    merged: str | None = None
    merged_into: str | None = None
    moved_items: tuple[str, ...] = ()


@dataclass(frozen=True)
class RetrievalAnswer:
    """A retriever response plus how it was produced, for monitoring."""

    items: tuple[str, ...] = ()
    scores: tuple[float, ...] = ()
    probed_centroids: tuple[str, ...] = ()
    candidates_seen: int = 0


@dataclass
class RetrievalStats:
    """Mutable per-retriever counters (mirrors QueryLog's style)."""

    queries: int = 0
    cold_misses: int = 0
    candidates_scored: int = 0
    probes: int = 0
    empty_answers: int = 0
