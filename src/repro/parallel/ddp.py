"""Baseline distributed data parallelism (torch-DDP analog).

Every rank holds the full model replica and full mixed-precision Adam
state — the 16-Psi-per-device layout of Section 3.1 that runs out of
memory at ~1.4B parameters on a 32 GB device (Section 1). Gradients are
averaged with bucketed all-reduce overlapped with backward (the hook fires
as each parameter's gradient lands), mirroring torch DDP / NVIDIA AMP
bucketing (Section 5.2's reference point).

``GradBucketQueue`` groups the gradients, for DDP and ZeRO stages 1-2
alike, into buckets fixed from the first round's ready order, as torch DDP
fixes its buckets from the first iteration: each bucket is one
``repro.optim.flat.GradRecord`` — its parameters, a count of the handoffs
still due, the engine's plan and, with real data, one flat host buffer
that every ``Parameter.grad`` of the bucket is a view of. A bucket flushes
once, at exactly the handoff (or the round's end) where grouping afresh
would flush it; a handoff out of that order re-plans from there. The
simulated device still sees one event per parameter, in the order
backward makes them; a bucket's frees are one ``Device.apply`` where the
device takes it.
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
from repro.optim.flat import GradRecord
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
    """Groups parameters, as their gradients become ready, into buckets of
    ~bucket_numel elements, and hands each full bucket — a ``GradRecord`` —
    to a callback (the engine's reduction).

    The buckets are fixed from the first round's ready order (a round ends
    at the explicit ``flush``): ``records`` keeps them, and a later round
    only counts each handoff against the record it is due in, flushing a
    record that closed itself on reaching its size at its last handoff and
    the round's last (partial) record at ``flush`` — the points where
    grouping that round afresh would flush. A handoff that arrives out of
    that order, or a round that ends short of it, re-plans from there:
    the record under way keeps what it was handed and grows afresh, and
    the records after it are dropped, to be re-learned.
    """

    def __init__(self, bucket_numel: int | None, flush_fn):
        self.bucket_numel = bucket_numel
        self.flush_fn = flush_fn
        #: the buckets, in the order a round fills them
        self.records: list[GradRecord] = []
        self._at = 0  # index into ``records`` of the bucket filling now
        #: a bucket still growing (a round off the fixed order), else None
        self._growing: GradRecord | None = None

    @classmethod
    def for_engine(cls, engine, hooked: Sequence[Parameter]) -> "GradBucketQueue":
        """The queue ``engine`` owns: it flushes to ``engine._flush_bucket``
        and every parameter in ``hooked`` reports its gradient to it.

        Built so that dropping the last handle on the engine frees it, and
        the model, without a gc pass (a Supervisor relaunch abandons a
        whole world's engines): the queue reaches the engine through a
        weak reference, and the parameters — which point at the queue
        while the queue's records list them — are unhooked when the engine
        goes.
        """
        weak_engine = weakref.proxy(engine)
        queue = cls(engine.config.bucket_numel, lambda bucket: weak_engine._flush_bucket(bucket))
        if hooked:
            for p in hooked:
                p.grad_ready_hook = queue.on_grad_ready
            weakref.finalize(engine, _unhook, hooked).atexit = False
        return queue

    def on_grad_ready(self, param: Parameter) -> None:
        rec = self._growing
        if rec is None:
            try:
                rec = self.records[self._at]
                n = rec.pending
                due = n and rec.params[-n] is param
            except IndexError:  # past the fixed order's end
                due = False
            if due:
                if n == 1 and rec.auto:
                    self._flush_at()
                else:
                    rec.pending = n - 1
                return
            rec = self._regrow()
        rec.add(param)
        if self.bucket_numel is not None and rec.numel >= self.bucket_numel:
            rec.auto = True
            self._flush_at()

    def flush(self) -> None:
        """End the round: flush the bucket under way, if it holds any."""
        rec = self._growing
        if rec is None and self._at < len(self.records):
            rec = self.records[self._at]
            if rec.pending:  # the round ends short of the fixed order
                rec = self._regrow() if rec.pending < len(rec.params) else None
        if rec is not None:
            self._flush_at()
        self._at = 0
        self._growing = None

    def _regrow(self) -> GradRecord:
        """Leave the fixed order at ``_at``: the bucket there keeps what
        this round handed it, and everything after is re-learned."""
        rec = GradRecord()
        if self._at < len(self.records):
            held = self.records[self._at]
            rec = GradRecord(held.params[: len(held.params) - held.pending])
        del self.records[self._at :]
        self.records.append(rec)
        self._growing = rec
        return rec

    def _flush_at(self) -> None:
        rec = self.records[self._at]
        rec.pending = len(rec.params)  # all due again next round
        self._at += 1
        self._growing = None
        self.flush_fn(rec)


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

    def _flush_bucket(self, bucket: GradRecord) -> None:
        """All-reduce the bucket's gradients, and hold the sums."""
        dtype = np.dtype(self.model.dtype)
        if self.is_meta:
            self.dp_group.meta_collective(
                self.ctx.rank, "all_reduce", bucket.numel * dtype.itemsize, "grad-allreduce"
            )
            return
        with memprof_category("comm_buffer", site="grad-bucket"):
            fused = Tensor((bucket.numel,), dtype, device=self.ctx.device, tag="grad-bucket")
        if bucket.buffer is None:
            bucket.fix(self.layout)
        # Every peer reads a deposit after the rendezvous returns: the
        # buffer the sums land in is not deposited itself.
        reduced = self.dp_group.all_reduce(
            self.ctx.rank, bucket.buffer.copy(), op="sum", phase="grad-allreduce"
        )
        bucket.buffer[...] = reduced
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
