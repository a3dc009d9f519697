"""Stream-driven cache invalidation.

A TTL alone makes a result cache trade staleness for hit rate blindly:
too short and the cache stops paying, too long and a user keeps seeing
recommendations computed before their last click. TencentRec's whole
point is that the Eq 6–8 state updates land in real time — so the
serving caches are invalidated by the *stream*: once a component wave's
commit returns, the executor publishes the tags of the keys it wrote,
and the caches drop exactly the answers that depended on them.

:func:`invalidation_for_key` is the one key→tag map. The bus is
synchronous and in-process; its unit of delivery is ``(kind, key)``,
where ``kind`` names a TDStore key family and ``key`` the state in it:

``"user"``
    ``hist:u`` / ``recent:u`` / ``consumed:u`` — user ``u``'s history,
    recent list or consumed set;
``"item"``
    ``simlist:i`` — item ``i``'s similar-items list;
``"group"``
    ``hot:g`` — group ``g``'s hot-item counters;
``"ctr"``
    ``ctr:i|situation`` — a CTR value of item ``i``.

Every other family (counters, journals, versions, ...) has no tag.
"""

from __future__ import annotations

from typing import Callable, Iterable

Subscriber = Callable[[str, str], None]

# TDStore key family (the part before the first ":") -> tag kind
_KIND_OF_FAMILY = {
    "hist": "user", "recent": "user", "consumed": "user",
    "simlist": "item", "hot": "group", "ctr": "ctr",
}


def invalidation_for_key(key: str) -> "tuple[str, str] | None":
    """The serving tag ``(kind, key)`` a write to ``key`` invalidates,
    or None for a family no cached answer depends on."""
    family, __, rest = key.partition(":")
    kind = _KIND_OF_FAMILY.get(family)
    if kind is None or not rest:
        return None
    if kind == "ctr":
        rest = rest.partition("|")[0]  # ctr:item|situation
    return kind, rest


class InvalidationBus:
    """Fan-out of touched-key notifications from the stream to caches."""

    def __init__(self):
        self._subscribers: list[Subscriber] = []
        self.published = 0
        self.delivered = 0
        self.by_kind: dict[str, int] = {}

    def subscribe(self, subscriber: Subscriber):
        self._subscribers.append(subscriber)

    def publish(self, kind: str, key: str):
        """Notify every subscriber that ``kind``-state ``key`` changed.

        Called *after* the commit point, so a subscriber acting on the
        notification re-reads post-commit state — never a value a
        replay could still change.
        """
        self.published += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        for subscriber in self._subscribers:
            subscriber(kind, key)
            self.delivered += 1

    def publish_keys(self, keys: Iterable[str]) -> int:
        """Publish the tag of every key that has one, each tag once, in
        first-seen order; returns how many tags went out."""
        tags = dict.fromkeys(filter(None, map(invalidation_for_key, keys)))
        for tag in tags:
            self.publish(*tag)
        return len(tags)
