"""What a rank owns: the one record every persistence path writes and reads.

ZeRO's premise (Section 5) is that a rank holds — and therefore persists —
exactly 1/Nd of the model states. ``capture`` states that once: a header
naming the flat space, this rank's ``[lo, hi)`` of it, the owned arrays
(fp32 ``master`` / ``m`` / ``v``, the fp16 ``param_shard`` exactly when the
placement table partitions parameters, the delayed-param-update ``param16``
carry when the engine has one) and the lock-step scalars. A checkpoint rank
file and a buddy snapshot are serialisations of that record (CRC-32 and an
atomic rename; a copy and ``fast_digest_array``), and a resume is
``restore``: fill *this rank's partition* from whichever source pieces
overlap it.

The fill rule. The padded flat spaces of an N-rank and an M-rank world
differ only in tail padding, and Adam is elementwise over the flat space,
so element ``i`` of the new partition is element ``i`` of the source piece
covering it, for ``i`` below the unpadded length, and zero in the new tail
padding. Three cases need no code of their own: a replicated (DDP) shard is
a piece whose bounds are the whole space; a same-degree load is one piece
covering the partition exactly; buddies and checkpoints differ only in
where the pieces come from and which digest verified them. Nothing here
allocates over a world's full flat space for a partitioned key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

ADAM_KEYS = ("master", "m", "v")  # per-partition fp32 optimizer state
#: DPU staleness carry (stages 1-2): this rank's fp16 parameters, one update
#: behind ``master``. Buddy snapshots keep it so a fast recovery preserves
#: the lag; a checkpoint is a synchronisation point and deliberately drops it.
CARRY = "param16"
#: lock-step scalar state, identical on every rank: the key it persists
#: under -> (where it lives on the engine, its type).
SCALARS = {
    "opt_step": ("opt_state.step_count", int),
    "step_count": ("step_count", int),
    "micro_step": ("_micro_step", int),
    "scaler_scale": ("scaler.scale", float),
    "scaler_good_steps": ("scaler.good_steps", int),
    "scaler_skipped": ("scaler.n_skipped", int),
}
SCALAR_KEYS = tuple(SCALARS)


@dataclass
class Header:
    """The flat space a piece of owned state is a slice of, and when."""

    engine_name: str
    world_size: int            # DP degree of the world that captured
    flat_numel: int            # flat space padded for that degree
    flat_numel_unpadded: int
    step: int                  # engine.step_count at the capture

    def header(self) -> dict:
        """These five fields alone, to head another record over the same space."""
        return {f.name: getattr(self, f.name) for f in fields(Header)}


@dataclass
class OwnedState(Header):
    """One rank's owned state at one optimizer boundary."""

    owner: int                 # DP rank index in the capturing world
    part_lo: int               # the owner's [lo, hi) of the flat space
    part_hi: int
    shards: dict[str, np.ndarray]
    scalars: dict[str, float]
    #: per-shard fingerprints, filled by the serialisation that verifies
    #: with them (``fast_digest_array`` on the buddy tier).
    digests: dict[str, int] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.shards.values())


def capture_scalars(engine) -> dict[str, float]:
    return {k: kind(attrgetter(path)(engine)) for k, (path, kind) in SCALARS.items()}


def restore_scalars(engine, scalars) -> None:
    for key, (path, kind) in SCALARS.items():
        holder, _, attr = path.rpartition(".")
        setattr(attrgetter(holder)(engine) if holder else engine, attr, kind(scalars[key]))


def capture(engine) -> OwnedState:
    """The record of what ``engine``'s rank owns now; arrays are live views."""
    if engine.is_meta:
        raise ValueError("cannot capture a meta-mode engine (no values exist)")
    lo, hi = engine.checkpoint_partition()
    return OwnedState(
        engine_name=engine.name, world_size=engine.dp_group.size,
        flat_numel=engine.layout.numel,
        flat_numel_unpadded=engine.layout.numel_unpadded,
        step=engine.step_count,
        owner=engine.dp_group.group_index(engine.ctx.rank),
        part_lo=lo, part_hi=hi,
        shards=engine.redundancy_shards(), scalars=capture_scalars(engine),
    )


def restore(engine, header: Header, pieces, *, source: str | None) -> None:
    """Fill this rank's partition from ``pieces`` and resume at their step.

    ``pieces`` is an iterable of ``OwnedState`` in ascending flat order
    (rank order), already verified by whoever produced them; it may be
    lazy, and it is exhausted — every source read and checked — before the
    engine is written. The scalars are the first piece's (they are
    lock-step). ``source`` names the ``reshard`` run-ledger event
    (``"checkpoint"`` | ``"buddies"``); None records none — a same-degree
    checkpoint load re-shards nothing.
    """
    if engine.is_meta:
        raise ValueError("cannot restore into a meta-mode engine")
    if header.engine_name != engine.name:
        raise ValueError(
            f"saved state was written by engine {header.engine_name!r}, "
            f"not {engine.name!r}"
        )
    valid = header.flat_numel_unpadded
    if valid != engine.layout.numel_unpadded:
        raise ValueError(
            f"saved state has unpadded flat size {valid} "
            f"!= model {engine.layout.numel_unpadded}"
        )
    lo, hi = engine.checkpoint_partition()
    end = max(lo, min(hi, valid))  # [lo, end) holds values, [end, hi) new padding
    targets = engine.integrity_shards()
    scalars, fills, cursor, covered = None, [], lo, 0
    for piece in pieces:
        if scalars is None:
            scalars = piece.scalars
            if CARRY in piece.shards:
                targets[CARRY] = np.empty(hi - lo, piece.shards[CARRY].dtype)
        missing = targets.keys() - piece.shards.keys()
        if missing or piece.part_lo > covered:
            raise ValueError(
                f"torn saved state: piece {piece.owner} lacks {sorted(missing)} "
                f"(engine {engine.name!r} expects them) or starts at "
                f"{piece.part_lo}, past the {covered} elements before it"
            )
        covered = max(covered, piece.part_hi)
        stop = min(end, piece.part_hi)
        if piece.part_lo <= cursor < stop:
            fills.append((cursor, stop, piece))
            cursor = stop
    if covered != header.flat_numel or cursor != end:
        raise ValueError(
            f"torn saved state: pieces total {covered} elements, the header "
            f"promises {header.flat_numel} (partition filled to {cursor} of {end})"
        )
    for key, view in targets.items():
        for a, b, piece in fills:
            view[a - lo : b - lo] = piece.shards[key][a - piece.part_lo : b - piece.part_lo]
        view[end - lo :] = 0
    restore_scalars(engine, scalars)
    dtype = engine.model.dtype
    if CARRY in targets:
        # The fp16 parameters of the captured step were one update stale:
        # serve those, not the cast of the post-update master.
        engine._publish_params(targets[CARRY].astype(dtype))
    elif not engine.placement["param"].partitioned:
        master16 = engine.opt_state.master.numpy().astype(dtype)
        if engine.stage:  # stages 1-2: all-gather the partitions
            engine._publish_params(master16)
        else:  # DDP: full local master
            engine.layout.scatter_params(master16)
    # (partitioned parameters materialise lazily from the restored shard)
    if engine.integrity is not None:
        # The owned shards were legitimately rewritten: refresh the digest
        # guard's baseline so the restore isn't flagged.
        engine.integrity.record_shards()
    rec = engine.ctx.recorder
    if source and rec is not None and engine.dp_group.group_index(engine.ctx.rank) == 0:
        rec.record(
            "reshard", rank=engine.ctx.rank, step=header.step,
            t_s=engine.clock_s, source=source,
            world_from=header.world_size, world_to=engine.dp_group.size,
        )
