"""Fast resume: restore a prepared buddy snapshot instead of a checkpoint.

``resume_from_buddies(engine)`` is the training-function counterpart of
``load_checkpoint_resharded``: called at the top of a (re)launched
attempt, it checks whether the rank context's ``BuddyStore`` holds a
recovery snapshot the supervisor prepared, and if so hands its verified
pieces to ``repro.zero.owned.restore`` — the one fill-my-partition rule
the checkpoint loaders use too, scalars included, bitwise. The idiom::

    if not resume_from_buddies(engine):
        latest = latest_checkpoint(root)
        if latest is not None:
            load_checkpoint_resharded(engine, latest)

so the checkpoint ring remains the fallback: if the supervisor could not
assemble the fault step from buddies (double fault, digest rejection, or
redundancy disabled) the pending snapshot is absent and the resume falls
through to the newest durable checkpoint.

Delayed-param-update staleness: when the snapshot carries the stale
fp16 ``param16`` carry (ZeRO-Offload DPU, stages 1-2), ``restore``
rebuilds the fp16 parameters from *it*, not from the post-update master —
preserving the one-step lag, so the recovered trajectory stays bitwise
identical to the uninterrupted run rather than collapsing the lag the
way a checkpoint synchronization point deliberately does.
"""

from __future__ import annotations

from repro.parallel.engine import BaseEngine
from repro.zero.owned import restore


def resume_from_buddies(engine: BaseEngine) -> bool:
    """Restore the store's pending recovery snapshot into ``engine``.

    Returns False (and restores nothing) when the context carries no
    ``BuddyStore`` or the store has no prepared snapshot — the caller
    then resumes from the checkpoint ring as before.
    """
    store = engine.ctx.redundancy
    snap = store.pending if store is not None else None
    if snap is None:
        return False
    restore(engine, snap, snap.pieces, source="buddies")
    if engine.tracer is not None:
        engine.tracer.instant(
            "fast-recovery-resume", step=snap.step,
            sources=dict(snap.sources),
        )
    return True
