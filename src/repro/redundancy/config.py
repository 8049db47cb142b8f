"""Redundancy placement policy.

The config answers four questions: *what shape* the redundancy takes
(full replica vs. XOR parity group), *where* it lands (which buddy rank;
always the holder's host DRAM), *how often* it refreshes, and *how much
history* is kept. Costs scale accordingly: a replica ships K Psi / Nd
bytes per refresh per rank and doubles the stored optimizer state; an XOR group of
``group_size`` data members stores only 1/group_size extra but tolerates
a single loss per group instead of per buddy pair.
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMES = ("replica", "ec")


@dataclass(frozen=True)
class RedundancyConfig:
    """Where each rank's owned shards get a second home.

    The replica holder is the next rank, ``(rank + 1) % world`` (replica
    scheme). ``group_size`` is the number of *data* members per
    XOR parity group (ec scheme); the parity block is held by the rank
    after the group's last member. Both land in the holder's host DRAM.
    ``refresh_every`` trades refresh traffic against recovery
    currency: with cadence k, a fault can lose
    up to k-1 steps instead of zero. ``keep`` is the per-rank snapshot
    history depth — 2 covers the one-step skew between a rank that
    raised mid-boundary and peers that finished it.
    """

    scheme: str = "replica"
    group_size: int = 2
    refresh_every: int = 1
    keep: int = 2

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {self.group_size}")
        if self.refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {self.refresh_every}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")

    # -- placement maps (shared by the store and the manager) ---------------

    def replica_holder(self, owner: int, world: int) -> int | None:
        """Rank whose tier holds ``owner``'s replica (None when the world
        is too small for the holder to differ from the owner)."""
        holder = (owner + 1) % world
        return None if holder == owner else holder

    def group_members(self, owner: int, world: int) -> tuple[int, ...]:
        """The XOR group ``owner`` belongs to: consecutive ranks chunked
        by ``group_size`` (the tail group may be smaller)."""
        g = owner // self.group_size
        lo = g * self.group_size
        return tuple(range(lo, min(lo + self.group_size, world)))

    def parity_holder(self, owner: int, world: int) -> int | None:
        """Rank holding the parity block of ``owner``'s group (None when
        every rank is in the group — parity would die with a member)."""
        members = self.group_members(owner, world)
        holder = (members[-1] + 1) % world
        return None if holder in members else holder
