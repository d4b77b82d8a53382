"""Consistent-hash request sharding for the serving router.

The router shards the SHA-256 response cache across its engine workers
instead of duplicating it: a request's cache key (see
:func:`repro.serve.cache.window_digest`) always lands on the same worker,
so every worker's LRU holds a disjoint slice of the key space and the
fleet's effective cache capacity is the *sum* of the shards.

Plain ``hash(key) % N`` would do that too — until N changes, at which
point almost every key moves and the whole fleet's cache goes cold. A
consistent-hash ring places :data:`REPLICAS` (64) virtual points per
shard on a 64-bit circle and assigns a key to the first point at or
after its own hash: growing N -> N+1 moves only ~1/(N+1) of the keys
(those closest to the new shard's points), and everything else stays
warm. The replica count is fixed, so a key's shard depends only on N.

All hashing is SHA-256 over explicit strings — **no** Python ``hash()``,
whose value changes per process under ``PYTHONHASHSEED`` randomization.
Assignment is therefore identical across processes, runs and machines,
which the differential suites rely on (tests/test_serve_hashring.py).
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["ConsistentHashRing"]

#: Virtual points per shard. 64 keeps the max/mean shard-load ratio
#: within a few percent for realistic key volumes while the ring stays
#: a few hundred entries — bisect lookup is ~100 ns. Fixed: a different
#: count would move keys between shards.
REPLICAS = 64


def _point(label: str) -> int:
    """A deterministic 64-bit position on the ring."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Map request keys onto shards ``0..n_shards-1``.

    Parameters
    ----------
    n_shards:
        Number of shards (engine workers), each placed at
        :data:`REPLICAS` points.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        points: dict[int, int] = {}
        for shard in range(self.n_shards):
            for replica in range(REPLICAS):
                position = _point(f"shard:{shard}:{replica}")
                # A 64-bit collision between labels is vanishingly rare;
                # resolve to the lowest shard id so ties are deterministic.
                if position in points:
                    points[position] = min(points[position], shard)
                else:
                    points[position] = shard
        self._positions = sorted(points)
        self._shards = [points[p] for p in self._positions]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (any string; typically a cache-key
        hex digest)."""
        position = _point(key)
        index = bisect.bisect_right(self._positions, position)
        if index == len(self._positions):  # wrap past the last point
            index = 0
        return self._shards[index]

    def __len__(self) -> int:
        return len(self._positions)

    def __repr__(self) -> str:
        return f"ConsistentHashRing(n_shards={self.n_shards})"
