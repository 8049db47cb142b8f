"""ZeRO-DP stages 1 and 2: optimizer-state and gradient partitioning.

Stage 1 (Pos, Section 5.1): every rank keeps the full fp16 parameters and
full fp16 gradients, but only 1/Nd of the fp32 Adam state. The "dynamic
communication schedule" (Section 4.1) keeps volume at baseline: instead of
an all-reduce (2 Psi), gradients are *reduce-scattered* to their partition
owners (Psi) — each rank only needs the reduced gradients for the
partition it updates — and the end-of-step parameter all-gather (Psi)
completes the logical all-reduce. Total: 2 Psi, same as DP.
Model-state memory: 2Psi + 2Psi + K Psi / Nd  (-> 4x reduction).

Stage 2 (Pos+g, Section 5.2): identical schedule, but after a gradient
bucket is reduced to its owner every rank immediately frees its full-size
gradient tensors ("after the reduction we no longer need the gradients and
their memory can be released"), keeping only the 1/Nd gradient shard.
Model-state memory: 2Psi + (2+K) Psi / Nd  (-> 8x reduction). Volume is
still 2 Psi (Section 7.2.1).

The only difference between the stages is one line: whether the bucket's
full gradients are released after reduction.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.comm.tensor_ops import all_gather_flat
from repro.memprof.provenance import category as memprof_category
from repro.nn.module import Parameter
from repro.nn.transformer import GPT2Model
from repro.offload.host_optim import HostAdamState, HostTensor
from repro.optim.adam import adam_step_inplace
from repro.optim.mixed_precision import FlatAdamState
from repro.optim.scaler import LossScaler
from repro.parallel.ddp import GradBucketQueue
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor


class _ZeroDPBase(BaseEngine):
    """Shared Pos machinery: partitioned Adam state, reduce-to-owner
    gradient buckets, end-of-step parameter all-gather."""

    #: stage 2 releases the bucket's full gradients after reduction.
    free_grads_after_reduce = False
    supports_offload = True

    def __init__(
        self,
        ctx: RankContext,
        model: GPT2Model,
        dp_group: ProcessGroup,
        config: EngineConfig | None = None,
    ):
        super().__init__(ctx, model, dp_group, config)
        self.nd = dp_group.size
        self.my_index = dp_group.group_index(ctx.rank)
        self.part_lo, self.part_hi = self.layout.partition_bounds(self.nd, self.my_index)
        self.part_numel = self.part_hi - self.part_lo
        # fp32 Adam state over *this rank's partition only* — the 4x / 8x
        # memory reduction of Figure 1 comes from this line. With
        # offload_optimizer the same partition lives in host DRAM instead
        # (ZeRO-Offload), dropping the K Psi / Nd term from the device;
        # ZeRO-Infinity may push it one tier further, to the NVMe pool.
        self._host_adam = self.offload is not None and self.offload.config.offload_optimizer
        if self._host_adam:
            self.opt_state = HostAdamState(
                self.part_numel, host=self.offload.optimizer_pool, hp=self.config.adam,
                meta=self.is_meta, tag=f"{self.name}-adam",
            )
        else:
            self.opt_state = FlatAdamState(
                self.part_numel, device=ctx.device, hp=self.config.adam,
                meta=self.is_meta, tag=f"{self.name}-adam",
            )
        if not self.is_meta:
            self.opt_state.init_master(
                self.layout.gather_param_range(self.part_lo, self.part_hi, np.float32)
            )
        # Stage 2 keeps reduced gradients in a persistent 1/Nd shard (the
        # 2 Psi -> 2 Psi/Nd reduction). Stage 1 writes reduced values back
        # into the full-size gradient tensors in place, as the paper's Pos
        # does — no extra buffer. Under offload_gradients the shard is
        # host-resident: each reduced piece streams d2h during backward.
        self.grad_shard: Tensor | HostTensor | None = None
        offload_grads = self.offload is not None and self.offload.config.offload_gradients
        if self.free_grads_after_reduce:
            with memprof_category("grad_fp16", site=f"{self.name}-grad-shard"):
                if offload_grads:
                    self.grad_shard = HostTensor(
                        self.part_numel, np.dtype(self.model.dtype), self.offload.grad_pool,
                        meta=self.is_meta, tag=f"{self.name}-grad-shard",
                    )
                else:
                    self.grad_shard = Tensor(
                        (self.part_numel,),
                        np.dtype(self.model.dtype),
                        data=None if self.is_meta else np.zeros(self.part_numel, self.model.dtype),
                        device=ctx.device,
                        tag=f"{self.name}-grad-shard",
                    )
        # Stage 2 reduces (and frees) every micro-step, so its hooks re-fire
        # per micro-batch; stage 1 under accumulation keeps gradients
        # resident and reduces once at the boundary.
        overlap = self.config.gradient_accumulation_steps == 1 or self.free_grads_after_reduce
        self._queue = GradBucketQueue.for_engine(
            self, self.layout.parameters if overlap else ()
        )

    # -- gradient reduction: reduce each owner's piece to that owner ---------

    def _owner_segments(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """Split a flat range into (owner_index, lo, hi) partition pieces."""
        out = []
        size = self.layout.numel // self.nd
        while lo < hi:
            owner = lo // size
            seg_hi = min(hi, (owner + 1) * size)
            out.append((owner, lo, seg_hi))
            lo = seg_hi
        return out

    def _flush_bucket(self, bucket: list[Parameter]) -> None:
        """Reduce each owner's piece of the bucket to that owner — the
        bucketized reduce-scatter of Section 5.2."""
        by_owner: dict[int, list[tuple[int, int]]] = {}
        for p in bucket:
            slot = self.layout.slot(p.name)
            for owner, lo, hi in self._owner_segments(slot.offset, slot.end):
                by_owner.setdefault(owner, []).append((lo, hi))
        dtype = np.dtype(self.model.dtype)
        for owner in sorted(by_owner):
            pieces = by_owner[owner]
            numel = sum(hi - lo for lo, hi in pieces)
            dst_rank = self.dp_group.ranks[owner]
            if self.is_meta:
                self.dp_group.meta_collective(
                    self.ctx.rank, "reduce", numel * dtype.itemsize, "grad-reduce"
                )
                continue
            with memprof_category("comm_buffer", site="grad-bucket"):
                fused = Tensor(
                    (numel,), dtype, data=np.empty(numel, dtype),
                    device=self.ctx.device, tag="grad-bucket",
                )
            cursor = 0
            for lo, hi in pieces:
                fused.data[cursor : cursor + hi - lo] = self.layout.gather_grad_range(
                    lo, hi, dtype
                )
                cursor += hi - lo
            reduced = self.dp_group.reduce(
                self.ctx.rank, fused.data, dst=dst_rank, op="sum", phase="grad-reduce"
            )
            if reduced is not None:  # this rank owns the segment
                cursor = 0
                for lo, hi in pieces:
                    if self.grad_shard is not None:
                        # Accumulate (fp32) so micro-batches under gradient
                        # accumulation sum into the shard; the shard is
                        # zeroed after each optimizer step, so with a
                        # single micro-batch this is a plain write.
                        view = self.grad_shard.data[lo - self.part_lo : hi - self.part_lo]
                        acc = view.astype(np.float32) + reduced[
                            cursor : cursor + hi - lo
                        ].astype(np.float32)
                        with np.errstate(over="ignore"):  # saturate like hardware
                            view[:] = acc.astype(view.dtype)
                    else:
                        self.layout.scatter_grad_range(
                            reduced[cursor : cursor + hi - lo], lo, hi
                        )
                    cursor += hi - lo
            fused.free()
        if (
            self.offload is not None
            and self.offload.config.offload_gradients
            and self.my_index in by_owner
        ):
            # The piece this rank owns just landed in the host shard: one
            # streamed d2h transfer, overlapped with the rest of backward.
            mine = sum(hi - lo for lo, hi in by_owner[self.my_index])
            self.offload.queue_grad_d2h(mine * dtype.itemsize)
        if self.free_grads_after_reduce:
            for p in bucket:
                p.zero_grad()

    def _micro_reduce(self) -> None:
        if self.free_grads_after_reduce:
            self._queue.flush()  # stage 2: reduce+free every micro-step

    def _reduce_gradients(self) -> None:
        if self.config.gradient_accumulation_steps > 1 and not self.free_grads_after_reduce:
            for p in reversed(self.layout.parameters):
                if p.grad is not None:
                    self._queue.on_grad_ready(p)
        self._queue.flush()

    def _release_gradients(self) -> None:
        super()._release_gradients()
        if self.grad_shard is not None and not self.is_meta:
            self.grad_shard.data[:] = 0

    # -- optimizer step over the owned partition -------------------------------

    def _global_overflow(self, local_overflow: bool) -> bool:
        """Agree on the overflow decision across ranks (each rank only sees
        its own shard, so the flag must be reduced)."""
        if self.is_meta:
            return False
        flag = np.array([1.0 if local_overflow else 0.0], dtype=np.float32)
        # Tiny control message; excluded from volume accounting on purpose.
        self.ctx.ledger.enabled = False
        try:
            out = self.dp_group.all_reduce(self.ctx.rank, flag, op="max", phase="control")
        finally:
            self.ctx.ledger.enabled = True
        return bool(out[0] > 0)

    def _optimizer_step(self) -> bool:
        if self.is_meta:
            self.opt_state.step_count += 1
            if not self._host_adam:
                # Host-side Adam needs no device working buffer — one of
                # ZeRO-Offload's device-memory savings.
                self.with_fused_buffer(self.part_numel, lambda lo, hi: None)
            self._all_gather_params(None)
            return True
        if self.grad_shard is not None:
            grad32 = self.grad_shard.numpy().astype(np.float32)
        else:
            grad32 = self.layout.gather_grad_range(
                self.part_lo, self.part_hi, np.float32, missing_ok=True
            )
        grad32 /= self.grad_divisor
        overflow = self._global_overflow(LossScaler.has_overflow(grad32))
        if not self.scaler.update(overflow):
            # Other ranks reached the same decision; skip in lockstep but
            # still run the (no-op) all-gather so the SPMD schedules match.
            self._all_gather_params(self.layout.gather_param_range(
                self.part_lo, self.part_hi, np.float32).astype(self.model.dtype))
            return False
        grad64 = grad32.astype(np.float64)
        clip_factor = self._clip_factor(float(np.dot(grad64, grad64)), partitioned=True)
        if clip_factor != 1.0:
            grad32 *= np.float32(clip_factor)
        self.opt_state.step_count += 1
        hp = self.current_adam_hp
        # DPU (ZeRO-Offload): broadcast fp16(master *before* this update) —
        # the update lands one step late, overlapped with the next step's
        # compute. See repro.offload.engine for the staleness contract.
        dpu = self.offload is not None and self.offload.config.delayed_param_update
        stale16 = self.opt_state.master.data.astype(self.model.dtype) if dpu else None

        def update(lo: int, hi: int) -> None:
            adam_step_inplace(
                self.opt_state.master.data[lo:hi],
                self.opt_state.m.data[lo:hi],
                self.opt_state.v.data[lo:hi],
                grad32[lo:hi],
                self.opt_state.step_count,
                hp,
                decay_mask=(
                    None if self.decay_mask is None
                    else self.decay_mask[self.part_lo + lo : self.part_lo + hi]
                ),
            )

        if self._host_adam:
            # The update runs on the host vectors directly — no device
            # scratch. Elementwise, so bitwise identical to the chunked
            # device path.
            update(0, self.part_numel)
        else:
            self.with_fused_buffer(self.part_numel, update)
        self._all_gather_params(
            stale16 if stale16 is not None
            else self.opt_state.master.data.astype(self.model.dtype)
        )
        return True

    def _all_gather_params(self, my_shard16: np.ndarray | None) -> None:
        """Collect every rank's updated fp16 partition into the parameters
        (the end-of-step all-gather of Sections 5.1 / 7.2.1)."""
        if self.tracer is not None:
            self.tracer.begin("param-allgather")
        full = all_gather_flat(
            self.dp_group, self.ctx.rank, my_shard16,
            shard_numel=self.part_numel, dtype=self.model.dtype,
            is_meta=self.is_meta, phase="param-allgather",
        )
        if full is not None:
            self.layout.scatter_params(full.astype(self.model.dtype))
        if self.tracer is not None:
            self.tracer.end()

    def checkpoint_partition(self) -> tuple[int, int]:
        """This rank's 1/Nd optimizer-state partition (for checkpoint_io)."""
        return self.part_lo, self.part_hi

    def redundancy_shards(self) -> dict[str, np.ndarray]:
        """Integrity set plus the DPU staleness carry.

        Under delayed param update the fp16 parameters lag the master by
        one step — fp16(master after step t-1) — so restoring fp16 from
        the post-update master would collapse the lag and diverge from
        the uninterrupted run. The buddy snapshot therefore also carries
        this rank's *current* (stale) fp16 partition, read back from the
        live parameters, and ``resume_from_buddies`` rebuilds the fp16
        replicas from it. (Stage 3 needs no carry: its ``param_shard``
        holds the stale values and is already in the integrity set.)
        """
        shards = super().redundancy_shards()
        dpu = self.offload is not None and self.offload.config.delayed_param_update
        if dpu and not self.is_meta:
            shards["param16"] = self.layout.gather_param_range(
                self.part_lo, self.part_hi, np.dtype(self.model.dtype)
            )
        return shards

    def free(self) -> None:
        super().free()
        self.opt_state.free()
        if self.grad_shard is not None:
            self.grad_shard.free_if_alive()


class ZeroStage1Engine(_ZeroDPBase):
    """Pos: optimizer-state partitioning. Full gradients stay resident."""

    name = "zero1"
    free_grads_after_reduce = False


class ZeroStage2Engine(_ZeroDPBase):
    """Pos+g: gradients additionally partitioned and freed after reduction."""

    name = "zero2"
    free_grads_after_reduce = True
