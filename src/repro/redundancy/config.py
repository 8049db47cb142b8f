"""Redundancy placement policy.

The config answers where each rank's owned shards get a second home: a
full replica on the next rank, landing in that rank's host DRAM. A
replica ships K Psi / Nd bytes per refresh per rank and doubles the
stored optimizer state. The refresh runs at every optimizer boundary,
so a fault loses no step, and ``KEEP`` snapshots of history are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

#: per-rank snapshot history depth — 2 covers the one-step skew between a
#: rank that raised mid-boundary and peers that finished it
KEEP = 2


@dataclass(frozen=True)
class RedundancyConfig:
    """Where each rank's owned shards get a second home: the replica
    holder is the next rank, ``(rank + 1) % world``, and the replica
    lands in the holder's host DRAM."""

    def replica_holder(self, owner: int, world: int) -> int | None:
        """Rank whose tier holds ``owner``'s replica (None when the world
        is too small for the holder to differ from the owner)."""
        holder = (owner + 1) % world
        return None if holder == owner else holder
