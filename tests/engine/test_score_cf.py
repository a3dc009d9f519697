"""Equation 2 kernel: ``_score_cf`` against the plain-Python reference.

The reference below is the sorted-with-a-key-lambda formulation the
kernel replaced, kept verbatim. The kernel must return the same
``Recommendation`` list with bit-identical scores on every input: same
candidates, same ranking (score desc, support desc, item asc), same
float for every score.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, RecommenderEngine
from repro.types import Recommendation

ITEMS = [f"i{k}" for k in range(8)]


class ReferenceScorer:
    def __init__(self, min_similarity):
        self._config = SimpleNamespace(min_similarity=min_similarity)

    def _score_cf(self, recent, consumed, sim_lookup, n):
        numerator: dict[str, float] = {}
        denominator: dict[str, float] = {}
        for item, rating, __ in recent:
            sim_list = sim_lookup(item) or {}
            for candidate, similarity in sim_list.items():
                if candidate in consumed:
                    continue
                if similarity <= self._config.min_similarity:
                    continue
                numerator[candidate] = (
                    numerator.get(candidate, 0.0) + similarity * rating
                )
                denominator[candidate] = (
                    denominator.get(candidate, 0.0) + similarity
                )
        scored = sorted(
            (
                (numerator[c] / denominator[c], denominator[c], c)
                for c in numerator
                if denominator[c] > 0.0
            ),
            key=lambda row: (-row[0], -row[1], row[2]),
        )
        return [
            Recommendation(item, score, source="cf")
            for score, __, item in scored[:n]
        ]


def both(recent, consumed, sim_lists, min_similarity, n):
    lookup = sim_lists.get
    got = RecommenderEngine(
        None, EngineConfig(min_similarity=min_similarity)
    )._score_cf(recent, consumed, lookup, n)
    want = ReferenceScorer(min_similarity)._score_cf(
        recent, consumed, lookup, n
    )
    return got, want


def assert_identical(got, want):
    assert got == want
    assert [r.score.hex() for r in got] == [r.score.hex() for r in want]


# few distinct values, so equal scores with unequal supports (and equal
# both) come up often; 0.0 and negatives sit on the min_similarity edges
similarities = st.sampled_from([0.0, -0.5, -0.25, 0.1, 0.25, 0.5, 1.0]) | (
    st.floats(-1.0, 1.0, allow_nan=False)
)
ratings = st.sampled_from([0.0, -1.0, 1.0, 2.0, 5.0]) | st.floats(
    -10.0, 10.0, allow_nan=False
)
sim_list = st.none() | st.dictionaries(
    st.sampled_from(ITEMS), similarities, max_size=len(ITEMS)
)


@settings(max_examples=80, deadline=None)
@given(
    recent=st.lists(
        st.tuples(st.sampled_from(ITEMS), ratings, st.just(0.0)), max_size=6
    ),
    consumed=st.sets(st.sampled_from(ITEMS), max_size=3),
    sim_lists=st.dictionaries(st.sampled_from(ITEMS), sim_list),
    min_similarity=st.sampled_from([0.0, 0.1, -0.5]),
    n=st.sampled_from([0, 1, 5, 20]),
)
def test_matches_reference(recent, consumed, sim_lists, min_similarity, n):
    assert_identical(*both(recent, consumed, sim_lists, min_similarity, n))


def test_equal_scores_rank_by_support_then_item():
    # b and c score 2.0 on support 1.0, a scores 2.0 on support 0.5,
    # d scores 3.0: d first, then the larger support, then the item name
    recent = [("x", 2.0, 0.0), ("y", 2.0, 0.0), ("z", 3.0, 0.0)]
    sim_lists = {
        "x": {"c": 0.5, "b": 0.5, "a": 0.5},
        "y": {"b": 0.5, "c": 0.5},
        "z": {"d": 0.25},
    }
    got, want = both(recent, set(), sim_lists, 0.0, 20)
    assert_identical(got, want)
    assert [r.item_id for r in got] == ["d", "b", "c", "a"]
