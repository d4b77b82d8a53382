"""Consistent-hash sharding invariants (repro.serve.hashring).

Three properties the router's cache sharding depends on:

* **stability** — same ring parameters, same assignment, always;
* **minimal disruption** — growing N -> N+1 shards moves only ~1/(N+1)
  of the keys (the whole point of consistent vs modulo hashing);
* **process-independence** — assignments are identical across
  interpreter invocations under different ``PYTHONHASHSEED``s, because
  the ring hashes with SHA-256, never Python ``hash()``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.serve.hashring import ConsistentHashRing

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

KEYS = [f"key-{i:05d}" for i in range(4000)]


def test_validation():
    with pytest.raises(ValueError, match="n_shards"):
        ConsistentHashRing(0)


def test_assignment_in_range_and_every_shard_used():
    ring = ConsistentHashRing(4)
    owners = {ring.shard_for(k) for k in KEYS}
    assert owners == {0, 1, 2, 3}


def test_stable_under_reconstruction():
    a = ConsistentHashRing(4)
    b = ConsistentHashRing(4)
    assert [a.shard_for(k) for k in KEYS] \
        == [b.shard_for(k) for k in KEYS]


def test_single_shard_owns_everything():
    ring = ConsistentHashRing(1)
    assert {ring.shard_for(k) for k in KEYS} == {0}


@pytest.mark.parametrize("n", [2, 4, 8])
def test_growth_moves_about_one_over_n_plus_one(n):
    """N -> N+1 relocates ~1/(N+1) of keys — far from the ~N/(N+1) a
    modulo scheme would move — and every moved key goes TO the new
    shard (nothing shuffles between old shards)."""
    before = ConsistentHashRing(n)
    after = ConsistentHashRing(n + 1)
    moved = [k for k in KEYS
             if before.shard_for(k) != after.shard_for(k)]
    fraction = len(moved) / len(KEYS)
    ideal = 1.0 / (n + 1)
    # Generous band: replica placement is random-ish, but the fraction
    # must sit near the ideal and nowhere near a full reshuffle.
    assert 0.3 * ideal <= fraction <= 2.5 * ideal, \
        f"N={n}->{n + 1} moved {fraction:.3f} of keys (ideal {ideal:.3f})"
    assert all(after.shard_for(k) == n for k in moved), \
        "keys moved between surviving shards"


def test_balance_is_reasonable():
    """With 64 virtual points per shard no shard hoards the key space."""
    ring = ConsistentHashRing(4)
    counts = [0, 0, 0, 0]
    for key in KEYS:
        counts[ring.shard_for(key)] += 1
    mean = len(KEYS) / 4
    for shard, count in enumerate(counts):
        assert 0.4 * mean <= count <= 1.9 * mean, \
            f"shard {shard} owns {count}/{len(KEYS)} keys: {counts}"


def test_identical_across_processes_and_hash_seeds():
    """The assignment a fresh interpreter computes under a different
    PYTHONHASHSEED is bit-identical — no ``hash()`` anywhere."""
    probe_keys = KEYS[::97]
    local = [ConsistentHashRing(5).shard_for(k) for k in probe_keys]
    script = (
        "from repro.serve.hashring import ConsistentHashRing\n"
        "ring = ConsistentHashRing(5)\n"
        f"keys = {probe_keys!r}\n"
        "print(','.join(str(ring.shard_for(k)) for k in keys))\n")
    for seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True,
            env={"PYTHONPATH": _SRC, "PYTHONHASHSEED": seed})
        remote = [int(s) for s in result.stdout.strip().split(",")]
        assert remote == local, f"divergence under PYTHONHASHSEED={seed}"
