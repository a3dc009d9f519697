"""Tests for the clock, hashing and RNG utilities."""

from hashlib import blake2b

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tdstore.route_table import RouteTable
from repro.utils import SeedSequenceFactory, SimClock, partition_for_key, stable_hash
from repro.utils import hashing
from repro.utils.clock import SECONDS_PER_DAY


def oracle(key) -> int:
    """``stable_hash`` as an unmemoized formula: every placement rests on it."""
    return int.from_bytes(blake2b(repr(key).encode(), digest_size=8).digest(), "big")


# placements every process agrees on; a hash or memo change that moves a
# key between tasks, partitions or data instances fails here
# (a list: (1,) and (1.0,) would be one dict key)
GOLDEN = [
    ("hist:u1843", 9609923891098014523),
    (("i231", "i78"), 9311524697778310352),
    ("vq:meta", 3606809724193458012),
    ("vqcent:c3", 653104168318002054),
    ("actions/2@417", 4998117873830025102),
    ("用户:ü1843", 2974986484005198861),
    (2015, 6980776234055185315),
    (0.5, 2582749368957422595),
    ((2015, "users"), 13665112850007878607),
    (("u1843",), 14408104927266792804),
    ((1,), 4244698874372295727),
    ((1.0,), 12791234177777958829),
]

scalars = st.one_of(st.text(max_size=8), st.integers(), st.floats(), st.booleans())
keys = st.one_of(
    st.text(max_size=8),
    st.tuples(st.text(max_size=8), st.text(max_size=8)),
    st.lists(st.text(max_size=8), max_size=3).map(tuple),
    scalars,
    st.lists(scalars, max_size=3).map(tuple),
    st.lists(st.lists(scalars, max_size=2).map(tuple), max_size=2).map(tuple),
)


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            SimClock().advance(-1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            SimClock(start=-5.0)

    def test_advance_to_never_goes_backwards(self):
        clock = SimClock(start=100.0)
        clock.advance_to(50.0)
        assert clock.now() == 100.0
        clock.advance_to(150.0)
        assert clock.now() == 150.0

    def test_day_and_hour(self):
        clock = SimClock(start=SECONDS_PER_DAY * 2 + 3600 * 6)
        assert clock.day() == 2
        assert clock.hour_of_day() == pytest.approx(6.0)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("u1", "i1")) == stable_hash(("u1", "i1"))

    def test_distinct_keys_differ(self):
        values = {stable_hash(f"key-{i}") for i in range(1000)}
        assert len(values) == 1000

    @given(st.integers(min_value=1, max_value=64), st.text())
    def test_partition_always_in_range(self, n, key):
        assert 0 <= partition_for_key(key, n) < n

    def test_zero_partitions_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_for_key("k", 0)

    def test_golden_values(self):
        golden_keys = [key for key, value in GOLDEN]
        for attempt in ("computed", "memoized"):
            hashes = [stable_hash(key) for key in golden_keys]
            assert hashes == [value for key, value in GOLDEN], attempt

    @pytest.mark.parametrize("n", [16, 7])
    def test_route_table_places_like_partition_for_key(self, n):
        table = RouteTable.balanced(n, [0, 1, 2])
        for i in range(1000):
            key = f"hist:u{i}" if i % 2 else (f"i{i}", f"i{i // 3}")
            assert table.route_for_key(key).instance == partition_for_key(key, n)
            assert table.instance_for_key(key) == partition_for_key(key, n)

    @given(st.lists(keys, min_size=1, max_size=8), st.data())
    def test_exact_under_any_call_order(self, drawn, data):
        order = data.draw(
            st.lists(st.integers(0, len(drawn) - 1), min_size=len(drawn))
        )
        for index in order + list(range(len(drawn))):
            assert stable_hash(drawn[index]) == oracle(drawn[index])

    def test_equal_keys_with_different_reprs_hash_apart(self):
        # (1,) == (1.0,) == (True,): a memo keyed on == would hand the
        # first one's hash to the other two
        assert stable_hash((1,)) == oracle((1,))
        for key in [(1.0,), (True,), 1, 1.0, True, "1", ("1",)]:
            assert stable_hash(key) == oracle(key), key

    def test_memo_is_bounded_and_stays_exact(self):
        limit = hashing.MEMO_LIMIT
        for i in range(limit + 10_000):
            stable_hash(f"bound:{i}")
        assert len(hashing._memo) <= limit
        for i in (0, limit - 1, limit, limit + 9_999):
            key = f"bound:{i}"
            assert stable_hash(key) == oracle(key)
            assert stable_hash((key, key)) == oracle((key, key))


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        f = SeedSequenceFactory(42)
        a = f.generator("users").integers(0, 1000, size=10)
        b = SeedSequenceFactory(42).generator("users").integers(0, 1000, size=10)
        assert list(a) == list(b)

    def test_different_names_independent(self):
        f = SeedSequenceFactory(42)
        a = f.generator("users").integers(0, 1000, size=10)
        b = f.generator("items").integers(0, 1000, size=10)
        assert list(a) != list(b)

    def test_request_order_does_not_matter(self):
        f1 = SeedSequenceFactory(7)
        __ = f1.generator("first")
        late = f1.generator("second").integers(0, 10**6, size=5)
        f2 = SeedSequenceFactory(7)
        early = f2.generator("second").integers(0, 10**6, size=5)
        assert list(late) == list(early)

    def test_spawn_namespacing(self):
        f = SeedSequenceFactory(7)
        child_a = f.spawn("news").generator("clicks").integers(0, 10**6, size=5)
        child_b = f.spawn("video").generator("clicks").integers(0, 10**6, size=5)
        assert list(child_a) != list(child_b)
