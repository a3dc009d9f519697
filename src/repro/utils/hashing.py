"""Stable hashing helpers.

Python's builtin ``hash`` is salted per process, which would make stream
grouping and partition assignment non-deterministic across runs. All key
routing in the library goes through :func:`stable_hash` instead.
"""

from __future__ import annotations

import hashlib

from repro.errors import ConfigurationError

# str / tuple-of-str key -> stable_hash(key), shared by the whole process;
# values are pure, so clearing it wholesale at MEMO_LIMIT stays exact
MEMO_LIMIT = 1 << 16
_memo: dict = {}


def _digest(key: object) -> int:
    data = repr(key).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def stable_hash(key: object) -> int:
    """Return a deterministic 64-bit hash of ``key``.

    Keys are rendered with ``repr`` before hashing, so any value with a
    stable ``repr`` (strings, ints, tuples of those) hashes consistently
    across processes and runs. Exact ``str`` keys and tuples of exact
    ``str`` are memoized: for them ``==`` implies an identical ``repr``,
    which is not true of ``(1,) == (1.0,) == (True,)``.
    """
    kind = type(key)
    if kind is tuple:
        for part in key:
            if type(part) is not str:
                return _digest(key)
    elif kind is not str:
        return _digest(key)
    value = _memo.get(key)
    if value is None:
        if len(_memo) >= MEMO_LIMIT:
            _memo.clear()
        value = _memo[key] = _digest(key)
    return value


def partition_for_key(key: object, num_partitions: int) -> int:
    """Map ``key`` onto one of ``num_partitions`` buckets deterministically."""
    if num_partitions <= 0:
        raise ConfigurationError(
            f"num_partitions must be positive, got {num_partitions}"
        )
    return stable_hash(key) % num_partitions
