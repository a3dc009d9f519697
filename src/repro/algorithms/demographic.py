"""The demographic-based (DB) algorithm and data-sparsity fix (Section 4.2).

Users are clustered into demographic groups (gender x age band in the
default scheme); each group's hot items are tracked in a sliding window.
For new or inactive users — or whenever CF/CB cannot produce confident
results — the group's hot items complement the recommendations. Users
with no demographic information fall back to the global group, exactly
as Section 6.4 describes.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.algorithms.base import Recommender
from repro.algorithms.itemcf.similarity import SessionWindowCounter
from repro.algorithms.ratings import ActionWeights, DEFAULT_ACTION_WEIGHTS
from repro.errors import ConfigurationError
from repro.types import Recommendation, UserAction, UserProfile

GLOBAL_GROUP = "global"

AGE_BANDS: tuple[tuple[int, str], ...] = (
    (18, "age<18"),
    (25, "age18-24"),
    (35, "age25-34"),
    (50, "age35-49"),
)


def age_band(age: int | None) -> str | None:
    """Coarse age banding used by the default demographic scheme."""
    if age is None:
        return None
    for upper, label in AGE_BANDS:
        if age < upper:
            return label
    return "age50+"


class DemographicScheme:
    """Maps a user profile onto a demographic group key.

    The default clusters by gender and age band; ``attributes`` selects
    which profile fields participate. Missing attributes degrade to the
    global group.
    """

    def __init__(self, attributes: tuple[str, ...] = ("gender", "age")):
        valid = {"gender", "age", "region", "education"}
        unknown = [a for a in attributes if a not in valid]
        if unknown:
            raise ConfigurationError(
                f"unknown demographic attributes {unknown}; valid: {sorted(valid)}"
            )
        self.attributes = tuple(attributes)

    def group_of(self, profile: UserProfile | None) -> str:
        if profile is None:
            return GLOBAL_GROUP
        parts: list[str] = []
        for attribute in self.attributes:
            if attribute == "age":
                value = age_band(profile.age)
            else:
                value = getattr(profile, attribute)
            if value is None:
                return GLOBAL_GROUP
            parts.append(str(value))
        return "|".join(parts) if parts else GLOBAL_GROUP


class DemographicRecommender(Recommender):
    """Per-group hot items over a sliding window (the real-time DB).

    Parameters
    ----------
    profiles:
        Resolves a user id to their :class:`UserProfile` (or None).
    session_seconds / window_sessions:
        The hot-item window; short windows make the hot list real-time.
    """

    def __init__(
        self,
        profiles: Callable[[str], UserProfile | None],
        scheme: DemographicScheme | None = None,
        weights: ActionWeights = DEFAULT_ACTION_WEIGHTS,
        session_seconds: float = 1800.0,
        window_sessions: int = 8,
    ):
        self._profiles = profiles
        self.scheme = scheme if scheme is not None else DemographicScheme()
        self.weights = weights
        self._counts = SessionWindowCounter(session_seconds, window_sessions)
        self._group_items: dict[str, set[str]] = {}
        self._consumed: dict[str, set[str]] = {}

    def group_of_user(self, user_id: str) -> str:
        return self.scheme.group_of(self._profiles(user_id))

    def observe(self, action: UserAction):
        gain = self.weights.weight(action.action)
        now = action.timestamp
        group = self.group_of_user(action.user_id)
        for target in sorted({group, GLOBAL_GROUP}):
            self._counts.add((target, action.item_id), gain, now)
            self._group_items.setdefault(target, set()).add(action.item_id)
        self._consumed.setdefault(action.user_id, set()).add(action.item_id)

    def hot_items(
        self, group: str, n: int, now: float
    ) -> list[tuple[str, float]]:
        """The group's top-n items by windowed engagement weight."""
        items = self._group_items.get(group, ())
        scored = [
            (self._counts.value((group, item), now), item) for item in items
        ]
        scored = [(score, item) for score, item in scored if score > 0.0]
        scored.sort(key=lambda row: (-row[0], row[1]))
        return [(item, score) for score, item in scored[:n]]

    def recommend(
        self,
        user_id: str,
        n: int,
        now: float,
        context: dict[str, Any] | None = None,
    ) -> list[Recommendation]:
        group = self.group_of_user(user_id)
        consumed = self._consumed.get(user_id, set())
        results: list[Recommendation] = []
        seen: set[str] = set()
        for source_group in (group, GLOBAL_GROUP):
            for item, score in self.hot_items(source_group, n * 2 + len(consumed), now):
                if item in consumed or item in seen:
                    continue
                results.append(Recommendation(item, score, source="db"))
                seen.add(item)
                if len(results) >= n:
                    return results
            if source_group == GLOBAL_GROUP:
                break
        return results

    def complement_fn(
        self, user_id: str, now: float
    ) -> Callable[[int], list[Recommendation]]:
        """A closure suitable for :meth:`ItemCFPredictor.predict`'s
        ``complement`` argument (the Section 4.3 DB complement)."""

        def complement(count: int) -> list[Recommendation]:
            return self.recommend(user_id, count, now)

        return complement
