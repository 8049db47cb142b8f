"""Retention ring of the last-K *verified* checkpoints.

A checkpoint is only worth rolling back to if it is provably clean: the
ring (1) runs the engine's shard-digest guard before saving, so known-
corrupted state never becomes a "verified" checkpoint, (2) verifies the
written files (completeness, step agreement, per-array checksums — see
``zero/checkpoint_io``) immediately after the save, and (3) prunes
verified checkpoints beyond the newest ``KEEP``, bounding disk usage
while always keeping a rollback target.

A save that fails post-write verification (e.g. injected bit rot) is
reported — not raised — and the previous verified checkpoint remains the
rollback target: losing one save must not fail the run.

All ranks call ``save`` collectively (SPMD). Rank 0 of the DP group does
the verification and pruning; the verdict is broadcast (a control
message, excluded from volume accounting) so every rank returns the same
answer.
"""

from __future__ import annotations

import pathlib
import shutil

import numpy as np

KEEP = 3  # verified checkpoints the ring retains


def _ckpt_io():
    # Deferred: checkpoint_io itself imports repro.integrity.digest (for
    # the per-array checksums), so a module-level import here would cycle.
    from repro.zero import checkpoint_io

    return checkpoint_io


class VerifiedCheckpointRing:
    """Last-``KEEP`` verified checkpoints under one root directory."""

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)

    def path_for(self, step: int) -> pathlib.Path:
        return self.root / f"step{step:08d}"

    def verified_checkpoints(self) -> list[pathlib.Path]:
        """All verified checkpoints, oldest first."""
        if not self.root.is_dir():
            return []
        io = _ckpt_io()
        return [
            sub for sub in sorted(self.root.iterdir())
            if sub.is_dir() and io.is_complete_checkpoint(sub)
        ]

    def latest_verified(self) -> pathlib.Path | None:
        """Newest checkpoint that passes full verification (checksums
        included) — the supervisor's rollback target."""
        return _ckpt_io().latest_checkpoint(self.root)

    def save(self, engine) -> pathlib.Path | None:
        """Collectively save, verify, and prune. Returns the new verified
        checkpoint directory, or ``None`` if the written files failed
        verification (the ring keeps its previous checkpoints either way).
        """
        if engine.integrity is not None:
            # Never promote corrupted state to "verified": the digest
            # guard runs first and raises if an owned shard was tampered
            # with since its last legitimate update.
            engine.integrity.verify_shards(engine.step_count)
        io = _ckpt_io()
        directory = self.path_for(engine.step_count)
        io.save_checkpoint(engine, directory)

        group = engine.dp_group
        rank = engine.ctx.rank
        rank0 = group.ranks[0]
        verdict = None
        if rank == rank0:
            verdict = np.array(
                [1.0 if io.is_complete_checkpoint(directory) else 0.0]
            )
        if group.size > 1:
            # Control message (like the overflow vote): all ranks must
            # agree on whether this save counts as a rollback target.
            engine.ctx.ledger.enabled = False
            try:
                verdict = group.broadcast(rank, verdict, src=rank0, phase="control")
            finally:
                engine.ctx.ledger.enabled = True
        ok = bool(verdict[0] > 0)

        rec = engine.ctx.recorder
        if rec is not None and rank == rank0:
            rec.record(
                "checkpoint-verified", rank=rank, step=engine.step_count,
                t_s=engine.clock_s, ok=ok, path=str(directory),
            )

        tracer = engine.tracer
        if tracer is not None:
            tracer.instant(
                "ckpt-verified" if ok else "ckpt-verify-failed",
                step=engine.step_count, path=str(directory),
            )
            if tracer.registry is not None:
                tracer.registry.counter(
                    "ckpt_verifications", rank=rank,
                    result="pass" if ok else "fail",
                ).add(1)
        if rank == rank0:
            kept = self.verified_checkpoints()
            for old in kept[:-KEEP]:
                shutil.rmtree(old, ignore_errors=True)
        if group.size > 1:
            group.barrier(rank)  # prune is visible before anyone proceeds
        return directory if ok else None
