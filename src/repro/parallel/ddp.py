"""Baseline distributed data parallelism (torch-DDP analog).

Every rank holds the full model replica and full mixed-precision Adam
state — the 16-Psi-per-device layout of Section 3.1 that runs out of
memory at ~1.4B parameters on a 32 GB device (Section 1). Gradients are
averaged with bucketed all-reduce overlapped with backward (the hook fires
as each parameter's gradient lands), mirroring torch DDP / NVIDIA AMP
bucketing (Section 5.2's reference point).
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.nn.module import Parameter
from repro.nn.transformer import GPT2Model
from repro.optim.adam import adam_step_inplace
from repro.optim.mixed_precision import FlatAdamState
from repro.optim.scaler import LossScaler
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor
from repro.zero.config import ZeROConfig


def _unhook(params: Sequence[Parameter]) -> None:
    for p in params:
        p.grad_ready_hook = None


class GradBucketQueue:
    """Collects parameters as their gradients become ready; flushes groups
    of ~bucket_numel elements to a callback (the engine's reduction)."""

    def __init__(self, bucket_numel: int | None, flush_fn):
        self.bucket_numel = bucket_numel
        self.flush_fn = flush_fn
        self._pending: list[Parameter] = []
        self._pending_numel = 0

    @classmethod
    def for_engine(cls, engine, hooked: Sequence[Parameter]) -> "GradBucketQueue":
        """The queue ``engine`` owns: it flushes to ``engine._flush_bucket``
        and every parameter in ``hooked`` reports its gradient to it.

        Built so that dropping the last handle on the engine frees it, and
        the model, without a gc pass (a Supervisor relaunch abandons a
        whole world's engines): the queue reaches the engine through a
        weak reference, and the parameters — which point at the queue
        while the queue lists those with a gradient pending — are unhooked
        when the engine goes.
        """
        weak_engine = weakref.proxy(engine)
        queue = cls(engine.config.bucket_numel, lambda bucket: weak_engine._flush_bucket(bucket))
        if hooked:
            for p in hooked:
                p.grad_ready_hook = queue.on_grad_ready
            weakref.finalize(engine, _unhook, hooked).atexit = False
        return queue

    def on_grad_ready(self, param: Parameter) -> None:
        self._pending.append(param)
        self._pending_numel += param.size
        if self.bucket_numel is not None and self._pending_numel >= self.bucket_numel:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        bucket, self._pending = self._pending, []
        self._pending_numel = 0
        self.flush_fn(bucket)


class DDPEngine(BaseEngine):
    """Replicated parameters + full optimizer state + all-reduced gradients."""

    name = "ddp"

    def __init__(
        self,
        ctx: RankContext,
        model: GPT2Model,
        dp_group: ProcessGroup,
        zero: ZeROConfig,
        config: EngineConfig | None = None,
    ):
        super().__init__(ctx, model, dp_group, zero, config)
        self.opt_state = FlatAdamState(
            self.layout.numel, device=ctx.device, hp=self.config.adam,
            meta=self.is_meta, tag="ddp-adam",
        )
        if not self.is_meta:
            self.opt_state.init_master(self.layout.gather_params(np.float32))
        # Overlap reduction with backward. Under accumulation, grads stay
        # resident across micro-batches (torch no_sync) and are reduced
        # once at the boundary instead.
        overlap = self.config.gradient_accumulation_steps == 1
        self._queue = GradBucketQueue.for_engine(
            self, self.layout.parameters if overlap else ()
        )

    # -- gradient reduction -----------------------------------------------------

    def _flush_bucket(self, bucket: list[Parameter]) -> None:
        """Fuse the bucket's fp16 gradients, all-reduce, scatter back."""
        numel = sum(p.size for p in bucket)
        dtype = np.dtype(self.model.dtype)
        if self.is_meta:
            self.dp_group.meta_collective(
                self.ctx.rank, "all_reduce", numel * dtype.itemsize, "grad-allreduce"
            )
            return
        with memprof_category("comm_buffer", site="grad-bucket"):
            fused = Tensor(
                (numel,), dtype, data=np.empty(numel, dtype),
                device=self.ctx.device, tag="grad-bucket",
            )
        offset = 0
        for p in bucket:
            fused.data[offset : offset + p.size] = p.grad.numpy().reshape(-1)
            offset += p.size
        reduced = self.dp_group.all_reduce(
            self.ctx.rank, fused.data, op="sum", phase="grad-allreduce"
        )
        offset = 0
        for p in bucket:
            p.grad.data = reduced[offset : offset + p.size].reshape(p.shape)
            offset += p.size
        fused.free()

    def _reduce_gradients(self) -> None:
        if self.config.gradient_accumulation_steps > 1:
            # Boundary reduction of the accumulated gradients, reverse
            # layout order (the order backward produced them).
            for p in reversed(self.layout.parameters):
                if p.grad is not None:
                    self._queue.on_grad_ready(p)
        self._queue.flush()

    # -- optimizer ----------------------------------------------------------------

    def _optimizer_step(self) -> bool:
        numel = self.layout.numel
        if self.is_meta:
            self.opt_state.step_count += 1
            self.with_fused_buffer(numel, lambda lo, hi: None)
            return True
        denom = self.grad_divisor  # unscale + average over ranks x micro-steps
        overflow = False
        norm_sq = 0.0

        def check(lo: int, hi: int) -> None:
            nonlocal overflow, norm_sq
            piece = self.layout.gather_grad_range(lo, hi, np.float32)
            if LossScaler.has_overflow(piece):
                overflow = True
            piece64 = piece.astype(np.float64) / denom
            if self._mp_copies is not None:
                piece64[self._mp_copies[lo:hi]] = 0.0
            norm_sq += float(np.dot(piece64, piece64))

        self.with_fused_buffer(numel, check)
        if self._model_groups:  # MP / pipeline partners hold the rest of the replica
            flag = np.array([float(overflow)], dtype=np.float32)
            overflow = bool(self._control_all_reduce(flag, "max", self._model_groups)[0] > 0)
        if not self.scaler.update(overflow):
            return False
        # Replicated gradients: the local norm is already the global one.
        clip_factor = self._clip_factor(norm_sq, partitioned=False)
        self.opt_state.step_count += 1
        hp = self.current_adam_hp

        def update(lo: int, hi: int) -> None:
            grad32 = self.layout.gather_grad_range(lo, hi, np.float32)
            grad32 /= denom
            if clip_factor != 1.0:
                grad32 *= clip_factor
            adam_step_inplace(
                self.opt_state.master.data[lo:hi],
                self.opt_state.m.data[lo:hi],
                self.opt_state.v.data[lo:hi],
                grad32,
                self.opt_state.step_count,
                hp,
                decay_mask=(
                    None if self.decay_mask is None
                    else self.decay_mask[lo : hi]
                ),
            )
            # Quantize to the model compute dtype exactly as the ZeRO
            # engines do before their parameter all-gather, keeping the
            # equivalence bitwise.
            self.layout.scatter_param_range(
                self.opt_state.master.data[lo:hi].astype(self.model.dtype), lo, hi
            )

        self.with_fused_buffer(numel, update)
        return True

    def free(self) -> None:
        super().free()
        self.opt_state.free()
