"""BuddyStore: the supervisor-side durability model for shard redundancy.

The store answers exactly one question: *after these ranks died, can the
current optimizer state be reassembled, and from whose bytes?* It models
per-node durable tiers — each rank's snapshot history lives on its own
host/NVMe tier (the "primary"), and a second copy (full replica or XOR
parity block) lives on a buddy rank's tier. A dead rank takes its tier
down with it: its primary *and* every replica/parity block it was
holding for others vanish, which is what makes a double fault (owner and
holder lost together) unrecoverable by buddies and forces the checkpoint
ring fallback.

The store is owned by the ``Supervisor`` and outlives every ``Cluster``
attempt (rank threads die with the fabric; host/NVMe contents do not).
Rank threads publish snapshots through their ``RedundancyManager``; the
supervisor calls ``mark_dead`` + ``prepare_recovery`` between attempts;
the relaunched training function consumes the prepared snapshot through
``resume_from_buddies``.

Every shard copy carries the same position-weighted digest the
``IntegrityAuditor`` records for the live shards, verified again at
recovery time — a replica that rotted (or a parity reconstruction fed a
corrupt survivor shard) is rejected, and recovery falls back to the ring
rather than resurrect bad bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.integrity.digest import fast_digest_array
from repro.redundancy.config import RedundancyConfig
from repro.zero.owned import SCALAR_KEYS, Header, OwnedState

__all__ = ["SCALAR_KEYS", "BuddyStore", "ParityBlock", "RecoverySnapshot", "ShardSnapshot"]

#: One rank's owned shards as copied at one optimizer boundary: the
#: owned-state record holding contiguous copies and their
#: ``fast_digest_array`` fingerprints.
ShardSnapshot = OwnedState


@dataclass
class ParityBlock:
    """XOR of one group's same-step shard bytes, held on one rank's tier."""

    members: tuple[int, ...]
    holder: int
    step: int
    world_size: int
    payload: dict[str, np.ndarray]            # key -> uint8 XOR of members
    shapes: dict[str, tuple[int, str]]        # key -> (numel, dtype name)
    member_digests: dict[int, dict[str, int]]
    member_bounds: dict[int, tuple[int, int]]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.payload.values())


@dataclass
class RecoverySnapshot(Header):
    """Every old-world rank's verified piece at one step (the header is the
    publishing, pre-shrink world's) — what each relaunched rank fills its
    own partition from."""

    pieces: list[OwnedState]        # old-world rank order, digests verified
    #: how each old-world rank's slice was obtained:
    #: "primary" | "replica" | "parity".
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
        # owner -> snapshot history (oldest first, pruned to config.keep).
        self._primary: dict[int, list[ShardSnapshot]] = {}
        # holder -> owner -> snapshot history. Keyed by *holder* so a dead
        # holder's tier contents vanish in one pop.
        self._replicas: dict[int, dict[int, list[ShardSnapshot]]] = {}
        # holder -> group members -> parity history.
        self._parity: dict[int, dict[tuple[int, ...], list[ParityBlock]]] = {}
        #: recovery snapshot prepared by the supervisor for the next
        #: attempt; every relaunched rank reads it (read-only) through
        #: ``resume_from_buddies``.
        self.pending: RecoverySnapshot | None = None
        self.publishes = 0
        self.digest_rejections = 0

    # -- the publish path (rank threads, via RedundancyManager) -------------

    def publish(self, snap: ShardSnapshot) -> None:
        """Store one rank's boundary snapshot: primary on its own tier,
        plus the configured redundancy on its buddy's."""
        keep = self.config.keep
        with self._lock:
            if self._world != snap.world_size:
                # A different world means the old snapshots' flat layout no
                # longer matches — drop them (elastic re-rendezvous).
                self._rebind(snap.world_size)
            hist = self._primary.setdefault(snap.owner, [])
            hist.append(snap)
            del hist[:-keep]
            self.publishes += 1
            if self.config.scheme == "replica":
                holder = self.config.replica_holder(snap.owner, snap.world_size)
                if holder is not None:
                    rep = self._replicas.setdefault(holder, {}).setdefault(
                        snap.owner, []
                    )
                    # An independent copy: tampering with the primary must
                    # not reach the replica (and vice versa).
                    rep.append(replace(
                        snap,
                        shards={k: v.copy() for k, v in snap.shards.items()},
                        scalars=dict(snap.scalars), digests=dict(snap.digests),
                    ))
                    del rep[:-keep]
            else:
                self._maybe_build_parity(snap)

    def _rebind(self, world: int) -> None:
        self._world = world
        self._primary.clear()
        self._replicas.clear()
        self._parity.clear()

    def _maybe_build_parity(self, snap: ShardSnapshot) -> None:
        """XOR the group's same-step primaries once the last member of the
        group has published (lock held)."""
        world = snap.world_size
        members = self.config.group_members(snap.owner, world)
        holder = self.config.parity_holder(snap.owner, world)
        if holder is None:
            return
        snaps: dict[int, ShardSnapshot] = {}
        for m in members:
            for s in self._primary.get(m, ()):
                if s.step == snap.step:
                    snaps[m] = s
        if len(snaps) != len(members):
            return  # not everyone has reached this boundary yet
        keys = set(snaps[members[0]].shards)
        if any(set(s.shards) != keys for s in snaps.values()):
            return
        payload: dict[str, np.ndarray] = {}
        shapes: dict[str, tuple[int, str]] = {}
        for key in keys:
            arrays = [snaps[m].shards[key] for m in members]
            nbytes = arrays[0].nbytes
            if any(a.nbytes != nbytes for a in arrays):
                return  # unequal partitions: XOR undefined, no parity
            acc = arrays[0].view(np.uint8).copy()
            for a in arrays[1:]:
                acc ^= a.view(np.uint8)
            payload[key] = acc
            shapes[key] = (arrays[0].shape[0], str(arrays[0].dtype))
        block = ParityBlock(
            members=members, holder=holder, step=snap.step, world_size=world,
            payload=payload, shapes=shapes,
            member_digests={m: dict(snaps[m].digests) for m in members},
            member_bounds={m: (snaps[m].part_lo, snaps[m].part_hi) for m in members},
        )
        hist = self._parity.setdefault(holder, {}).setdefault(members, [])
        hist.append(block)
        del hist[:-self.config.keep]

    # -- the failure path (supervisor) --------------------------------------

    def mark_dead(self, ranks) -> None:
        """Dead hardware: the rank's primary history is gone, and so is
        everything its tier was holding *for others*."""
        with self._lock:
            for r in ranks:
                self._primary.pop(r, None)
                self._replicas.pop(r, None)
                self._parity.pop(r, None)

    def invalidate(self) -> None:
        """Drop everything (taken when recovery goes through the checkpoint
        ring: the run rolls back behind the stored snapshots, which would
        otherwise masquerade as the current state on the next fault)."""
        with self._lock:
            self._world = None
            self._primary.clear()
            self._replicas.clear()
            self._parity.clear()
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
        for by_group in self._parity.values():
            for blocks in by_group.values():
                for b in blocks:
                    if owner in b.members:
                        steps.add(b.step)
        return steps

    def _verified(self, snap: ShardSnapshot) -> dict[str, np.ndarray] | None:
        for key, arr in snap.shards.items():
            if fast_digest_array(arr) != snap.digests.get(key):
                self.digest_rejections += 1
                return None
        return snap.shards

    def _materialize(
        self, owner: int, step: int
    ) -> tuple[dict[str, np.ndarray], ShardSnapshot | None, tuple[int, int], str] | None:
        """(shards, scalar-bearing snapshot or None, bounds, source) for one
        old-world rank at ``step`` — primary first, then replica, then
        parity reconstruction, each digest-verified."""
        for s in reversed(self._primary.get(owner, [])):
            if s.step == step:
                shards = self._verified(s)
                if shards is not None:
                    return shards, s, (s.part_lo, s.part_hi), "primary"
        for by_owner in self._replicas.values():
            for s in reversed(by_owner.get(owner, [])):
                if s.step == step:
                    shards = self._verified(s)
                    if shards is not None:
                        return shards, s, (s.part_lo, s.part_hi), "replica"
        return self._reconstruct_from_parity(owner, step)

    def _reconstruct_from_parity(self, owner: int, step: int):
        for by_group in self._parity.values():
            for blocks in by_group.values():
                for block in reversed(blocks):
                    if owner not in block.members or block.step != step:
                        continue
                    out = self._xor_recover(block, owner, step)
                    if out is not None:
                        return out
        return None

    def _xor_recover(self, block: ParityBlock, owner: int, step: int):
        """parity XOR (every *other* member's primary) = the lost shard."""
        others: dict[int, ShardSnapshot] = {}
        for m in block.members:
            if m == owner:
                continue
            snap = next(
                (s for s in reversed(self._primary.get(m, [])) if s.step == step),
                None,
            )
            if snap is None:
                return None  # a sibling's primary is gone too: double fault
            others[m] = snap
        shards: dict[str, np.ndarray] = {}
        expected = block.member_digests.get(owner, {})
        for key, parity in block.payload.items():
            acc = parity.copy()
            for snap in others.values():
                a = snap.shards.get(key)
                if a is None or a.nbytes != acc.nbytes:
                    return None
                acc ^= a.view(np.uint8)
            numel, dtype = block.shapes[key]
            arr = acc.view(np.dtype(dtype))[:numel]
            if fast_digest_array(arr) != expected.get(key):
                self.digest_rejections += 1
                return None
            shards[key] = arr
        return shards, None, block.member_bounds[owner], "parity"

    def _assemble(self, world: int, step: int) -> RecoverySnapshot | None:
        parts: dict[int, tuple[dict[str, np.ndarray], tuple[int, int], str]] = {}
        meta_snap: ShardSnapshot | None = None
        scalars: dict[str, float] | None = None
        for r in range(world):
            got = self._materialize(r, step)
            if got is None:
                return None
            shards, snap, bounds, source = got
            parts[r] = (shards, bounds, source)
            if snap is not None:
                if meta_snap is None:
                    meta_snap = snap
                    scalars = dict(snap.scalars)
                elif (
                    snap.engine_name != meta_snap.engine_name
                    or snap.flat_numel != meta_snap.flat_numel
                    or snap.flat_numel_unpadded != meta_snap.flat_numel_unpadded
                    or dict(snap.scalars) != scalars
                ):
                    return None  # inconsistent peers: refuse to mix them
        if meta_snap is None or scalars is None:
            return None
        keys = set(parts[0][0])
        if any(set(shards) != keys for shards, _, _ in parts.values()):
            return None
        # Hand the verified pieces on with their bounds; each relaunched
        # rank copies out only what overlaps its own partition.
        return RecoverySnapshot(
            **meta_snap.header(),
            pieces=[
                replace(meta_snap, owner=r, part_lo=lo, part_hi=hi,
                        shards=shards, scalars=scalars, digests={})
                for r, (shards, (lo, hi), _) in parts.items()
            ],
            sources={r: src for r, (_, _, src) in parts.items()},
        )
