"""Fast resume: restore a prepared buddy snapshot instead of a checkpoint.

``resume_from_buddies(engine)`` is the training-function counterpart of
``load_checkpoint_resharded``: called at the top of a (re)launched
attempt, it checks whether the rank context's ``BuddyStore`` holds a
recovery snapshot the supervisor prepared, and if so restores it —
re-sharded to the new world exactly like the checkpoint loader (strip
the old tail padding, re-pad for the new degree, slice this rank's
partition bounds), scalars included, bitwise. The idiom::

    if not resume_from_buddies(engine):
        latest = latest_checkpoint(root)
        if latest is not None:
            load_checkpoint_resharded(engine, latest)

so the checkpoint ring remains the fallback: if the supervisor could not
assemble the fault step from buddies (double fault, digest rejection, or
redundancy disabled) the pending snapshot is absent and the resume falls
through to the newest durable checkpoint.

Delayed-param-update staleness: when the snapshot carries the stale
fp16 ``param16`` carry (ZeRO-Offload DPU, stages 1-2), the fp16
parameters are rebuilt from *it*, not from the post-update master —
preserving the one-step lag, so the recovered trajectory stays bitwise
identical to the uninterrupted run rather than collapsing the lag the
way a checkpoint synchronization point deliberately does.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.engine import BaseEngine
from repro.redundancy.store import SCALAR_KEYS, RecoverySnapshot


def _reshard(full: np.ndarray, snap: RecoverySnapshot, engine: BaseEngine) -> np.ndarray:
    """Old-world flat array -> this engine's partition slice (the same
    tail-padding math as ``load_checkpoint_resharded``)."""
    lo, hi = engine.checkpoint_partition()
    repadded = np.zeros(engine.layout.numel, full.dtype)
    repadded[: snap.flat_numel_unpadded] = full[: snap.flat_numel_unpadded]
    return repadded[lo:hi]


def resume_from_buddies(engine: BaseEngine) -> bool:
    """Restore the store's pending recovery snapshot into ``engine``.

    Returns False (and restores nothing) when the context carries no
    ``BuddyStore`` or the store has no prepared snapshot — the caller
    then resumes from the checkpoint ring as before.
    """
    store = engine.ctx.redundancy
    if store is None:
        return False
    snap: RecoverySnapshot | None = store.pending
    if snap is None:
        return False
    if engine.is_meta:
        raise ValueError("cannot restore into a meta-mode engine")
    if snap.engine_name != engine.name:
        raise ValueError(
            f"buddy snapshot was published by engine {snap.engine_name!r}, "
            f"not {engine.name!r}"
        )
    if snap.flat_numel_unpadded != engine.layout.numel_unpadded:
        raise ValueError(
            f"buddy snapshot unpadded flat size {snap.flat_numel_unpadded} "
            f"!= model {engine.layout.numel_unpadded}"
        )
    engine.opt_state.master.data[:] = _reshard(snap.arrays["master"], snap, engine)
    engine.opt_state.m.data[:] = _reshard(snap.arrays["m"], snap, engine)
    engine.opt_state.v.data[:] = _reshard(snap.arrays["v"], snap, engine)
    if hasattr(engine, "param_shard"):
        engine.param_shard.data[:] = _reshard(
            snap.arrays["param_shard"], snap, engine
        )
    scalars = snap.scalars
    engine.opt_state.step_count = int(scalars["opt_step"])
    engine.step_count = int(scalars["step_count"])
    engine._micro_step = int(scalars["micro_step"])
    engine.scaler.scale = float(scalars["scaler_scale"])
    engine.scaler.good_steps = int(scalars["scaler_good_steps"])
    engine.scaler.n_skipped = int(scalars["scaler_skipped"])
    dtype = np.dtype(engine.model.dtype)
    if "param16" in snap.arrays:
        # DPU carry (stages 1-2 only publish one): the fp16 params of the
        # fault step were one update stale; rebuild them from the
        # snapshotted stale values.
        engine._publish_params(
            _reshard(snap.arrays["param16"], snap, engine).astype(dtype)
        )
    else:
        from repro.zero.checkpoint_io import _rebuild_fp16_params

        _rebuild_fp16_params(engine)
    if engine.integrity is not None:
        engine.integrity.record_shards()
    if engine.tracer is not None:
        engine.tracer.instant(
            "fast-recovery-resume", step=snap.step,
            sources=dict(snap.sources),
        )
    rec = engine.ctx.recorder
    if rec is not None and engine.dp_group.group_index(engine.ctx.rank) == 0:
        rec.record(
            "reshard", rank=engine.ctx.rank, step=snap.step,
            t_s=engine.clock_s, source="buddies",
            world_from=snap.world_size, world_to=engine.dp_group.size,
        )
    return True


__all__ = ["resume_from_buddies", "SCALAR_KEYS"]
