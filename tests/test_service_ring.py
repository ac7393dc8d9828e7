"""Tests for the consistent-hash ring behind the sharded store."""

import hashlib
import random

import pytest

from repro.service import HashRing
from repro.service.shards import shard_names


def _digest(value):
    return hashlib.sha256(str(value).encode()).hexdigest()


def test_ring_is_deterministic_across_instances():
    first = HashRing(shard_names(4))
    second = HashRing(list(reversed(shard_names(4))))  # order-independent
    for index in range(500):
        digest = _digest(index)
        assert first.shard_for(digest) == second.shard_for(digest)


def test_ring_covers_every_shard():
    ring = HashRing(shard_names(3))
    owners = {ring.shard_for(_digest(index)) for index in range(1000)}
    assert owners == set(shard_names(3))


def test_ring_balance_within_tolerance():
    ring = HashRing(shard_names(4), vnodes=128)
    owners = [ring.shard_for(_digest(index)) for index in range(4000)]
    for shard in shard_names(4):
        # 128 vnodes keeps every shard within a loose band of 1/N
        assert 0.10 < owners.count(shard) / len(owners) < 0.45


def test_ring_minimal_movement_on_growth():
    small = HashRing(shard_names(4))
    grown = HashRing(shard_names(5))
    digests = [_digest(index) for index in range(2000)]
    moved = sum(1 for digest in digests
                if small.shard_for(digest) != grown.shard_for(digest))
    # ideal movement is 1/5 of keys; rehash-everything would move ~4/5
    assert moved / len(digests) < 0.35
    # every key that moved, moved TO the new shard
    for digest in digests:
        before, after = small.shard_for(digest), grown.shard_for(digest)
        if before != after:
            assert after == "shard-04"


def test_ring_rejects_bad_configs():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["a", "a"])


def test_ring_lookup_matches_manual_bisect():
    ring = HashRing(["x", "y"], vnodes=8)
    rng = random.Random(7)
    for _ in range(200):
        digest = _digest(rng.random())
        owner = ring.shard_for(digest)
        assert owner in ("x", "y")
