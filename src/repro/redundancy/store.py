"""BuddyStore: the supervisor-side durability model for shard redundancy.

The store answers exactly one question: *after these ranks died, can the
current optimizer state be reassembled, and from whose bytes?* It models
per-node durable tiers — each rank's snapshot history lives in its own
host DRAM (the "primary"), and a full replica lives in a buddy rank's.
A dead rank takes its tier down with it: its primary *and* every replica
it was holding for others vanish, which is what makes a double fault
(owner and holder lost together) unrecoverable by buddies and forces the
checkpoint ring fallback.

The store is owned by the ``Supervisor`` and outlives every ``Cluster``
attempt (rank threads die with the fabric; host DRAM contents do not).
Rank threads publish snapshots through their ``RedundancyManager``; the
supervisor calls ``mark_dead`` + ``prepare_recovery`` between attempts;
the relaunched training function consumes the prepared snapshot through
``resume_from_buddies``.

Every shard copy carries the same position-weighted digest the
``IntegrityAuditor`` records for the live shards, verified again at
recovery time — a replica that rotted is rejected, and recovery falls
back to the ring rather than resurrect bad bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.integrity.digest import fast_digest_array
from repro.redundancy.config import KEEP, RedundancyConfig
from repro.zero.owned import SCALAR_KEYS, Header, OwnedState

__all__ = ["SCALAR_KEYS", "BuddyStore", "RecoverySnapshot", "ShardSnapshot"]

#: One rank's owned shards as copied at one optimizer boundary: the
#: owned-state record holding contiguous copies and their
#: ``fast_digest_array`` fingerprints.
ShardSnapshot = OwnedState


@dataclass
class RecoverySnapshot(Header):
    """Every old-world rank's verified piece at one step (the header is the
    publishing, pre-shrink world's) — what each relaunched rank fills its
    own partition from."""

    pieces: list[OwnedState]        # old-world rank order, digests verified
    #: how each old-world rank's slice was obtained: "primary" | "replica".
    sources: dict[int, str] = field(default_factory=dict)

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """key -> the old world's full flat-space array, for inspection
        (tests); the resume path never builds it."""
        out = {}
        for key, first in self.pieces[0].shards.items():
            out[key] = np.empty(self.flat_numel, first.dtype)
            for p in self.pieces:
                out[key][p.part_lo : p.part_hi] = p.shards[key]
        return out


class BuddyStore:
    """Durable snapshot store shared by the supervisor and all ranks."""

    def __init__(self, config: RedundancyConfig | None = None):
        self.config = config or RedundancyConfig()
        self._lock = threading.Lock()
        self._world: int | None = None
        # owner -> snapshot history (oldest first, pruned to KEEP).
        self._primary: dict[int, list[ShardSnapshot]] = {}
        # holder -> owner -> snapshot history. Keyed by *holder* so a dead
        # holder's tier contents vanish in one pop.
        self._replicas: dict[int, dict[int, list[ShardSnapshot]]] = {}
        #: recovery snapshot prepared by the supervisor for the next
        #: attempt; every relaunched rank reads it (read-only) through
        #: ``resume_from_buddies``.
        self.pending: RecoverySnapshot | None = None
        self.publishes = 0
        self.digest_rejections = 0

    # -- the publish path (rank threads, via RedundancyManager) -------------

    def publish(self, snap: ShardSnapshot) -> None:
        """Store one rank's boundary snapshot: primary on its own tier,
        plus a replica on its buddy's."""
        with self._lock:
            if self._world != snap.world_size:
                # A different world means the old snapshots' flat layout no
                # longer matches — drop them (elastic re-rendezvous).
                self._rebind(snap.world_size)
            hist = self._primary.setdefault(snap.owner, [])
            hist.append(snap)
            del hist[:-KEEP]
            self.publishes += 1
            holder = self.config.replica_holder(snap.owner, snap.world_size)
            if holder is not None:
                rep = self._replicas.setdefault(holder, {}).setdefault(snap.owner, [])
                # An independent copy: tampering with the primary must not
                # reach the replica (and vice versa).
                rep.append(replace(
                    snap,
                    shards={k: v.copy() for k, v in snap.shards.items()},
                    scalars=dict(snap.scalars), digests=dict(snap.digests),
                ))
                del rep[:-KEEP]

    def _rebind(self, world: int) -> None:
        self._world = world
        self._primary.clear()
        self._replicas.clear()

    # -- the failure path (supervisor) --------------------------------------

    def mark_dead(self, ranks) -> None:
        """Dead hardware: the rank's primary history is gone, and so is
        everything its tier was holding *for others*."""
        with self._lock:
            for r in ranks:
                self._primary.pop(r, None)
                self._replicas.pop(r, None)

    def invalidate(self) -> None:
        """Drop everything (taken when recovery goes through the checkpoint
        ring: the run rolls back behind the stored snapshots, which would
        otherwise masquerade as the current state on the next fault)."""
        with self._lock:
            self._world = None
            self._primary.clear()
            self._replicas.clear()
            self.pending = None

    def prepare_recovery(self) -> RecoverySnapshot | None:
        """Reassemble the newest step every old-world rank is recoverable
        at; None means buddies cannot serve this fault (double fault or
        digest rejection) and the caller must fall back to the ring."""
        with self._lock:
            world = self._world
            if world is None:
                self.pending = None
                return None
            common: set[int] | None = None
            for r in range(world):
                steps = self._candidate_steps(r)
                common = steps if common is None else (common & steps)
                if not common:
                    self.pending = None
                    return None
            for step in sorted(common, reverse=True):
                snap = self._assemble(world, step)
                if snap is not None:
                    self.pending = snap
                    return snap
            self.pending = None
            return None

    # -- assembly internals (lock held) --------------------------------------

    def _candidate_steps(self, owner: int) -> set[int]:
        steps = {s.step for s in self._primary.get(owner, ())}
        for by_owner in self._replicas.values():
            steps |= {s.step for s in by_owner.get(owner, ())}
        return steps

    def _verified(self, snap: ShardSnapshot) -> bool:
        for key, arr in snap.shards.items():
            if fast_digest_array(arr) != snap.digests.get(key):
                self.digest_rejections += 1
                return False
        return True

    def _materialize(
        self, owner: int, step: int
    ) -> tuple[ShardSnapshot, str] | None:
        """(verified snapshot, source) for one old-world rank at ``step`` —
        primary first, then replica, each digest-verified."""
        for s in reversed(self._primary.get(owner, [])):
            if s.step == step:
                if self._verified(s):
                    return s, "primary"
        for by_owner in self._replicas.values():
            for s in reversed(by_owner.get(owner, [])):
                if s.step == step:
                    if self._verified(s):
                        return s, "replica"
        return None

    def _assemble(self, world: int, step: int) -> RecoverySnapshot | None:
        parts: dict[int, tuple[ShardSnapshot, str]] = {}
        for r in range(world):
            got = self._materialize(r, step)
            if got is None:
                return None
            parts[r] = got
        first = parts[0][0]
        scalars = dict(first.scalars)
        keys = set(first.shards)
        for snap, _ in parts.values():
            if (
                snap.engine_name != first.engine_name
                or snap.flat_numel != first.flat_numel
                or snap.flat_numel_unpadded != first.flat_numel_unpadded
                or dict(snap.scalars) != scalars
                or set(snap.shards) != keys
            ):
                return None  # inconsistent peers: refuse to mix them
        # Hand the verified pieces on with their bounds; each relaunched
        # rank copies out only what overlaps its own partition.
        return RecoverySnapshot(
            **first.header(),
            pieces=[
                replace(first, owner=r, part_lo=snap.part_lo, part_hi=snap.part_hi,
                        shards=snap.shards, scalars=scalars, digests={})
                for r, (snap, _) in parts.items()
            ],
            sources={r: src for r, (_, src) in parts.items()},
        )
