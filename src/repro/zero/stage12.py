"""ZeRO-DP stages 1 and 2 — and the partitioned engine all three stages share.

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

``_ZeroDPBase`` is one engine over the rows of ``repro.zero.placement``:
each state class the stage partitions is a 1/Nd shard allocated on its
tier's pool, gradients are reduced to their owners, and the optimizer
steps over the owned partition. A stage adds only what its row adds —
stage 3's per-unit parameter gathers live in ``repro.zero.stage3``.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.comm.tensor_ops import all_gather_flat
from repro.memprof.provenance import category as memprof_category
from repro.memsim.device import Device, HostMemory
from repro.nn.module import Parameter
from repro.nn.transformer import GPT2Model
from repro.optim.adam import adam_step_inplace
from repro.optim.flat import GradRecord, SegmentPlan, plan_segments
from repro.optim.mixed_precision import FlatAdamState
from repro.optim.scaler import LossScaler
from repro.parallel.ddp import GradBucketQueue
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor
from repro.zero.config import ZeROConfig


class _ZeroDPBase(BaseEngine):
    """The partitioned engine: sharded state per ``self.placement``,
    reduce-to-owner gradients, an optimizer step over the owned partition,
    and one stage-specific hook — ``_publish_params``."""

    def __init__(
        self,
        ctx: RankContext,
        model: GPT2Model,
        dp_group: ProcessGroup,
        zero: ZeROConfig,
        config: EngineConfig | None = None,
    ):
        super().__init__(ctx, model, dp_group, zero, config)
        self.nd = dp_group.size
        self.my_index = dp_group.group_index(ctx.rank)
        self.part_lo, self.part_hi = self.layout.partition_bounds(self.nd, self.my_index)
        self.part_numel = self.part_hi - self.part_lo
        placed = self.placement
        # Host-side Adam (ZeRO-Offload) and gradients streamed to their
        # tier piece by piece; DPU is the tier schedule's one deliberate
        # numeric change (staleness contract in repro.infinity.engine).
        self._host_adam = placed["optimizer"].tier != "device"
        self._stream_grads = placed["grad"].tier != "device"
        self._dpu = zero.infinity is not None and zero.infinity.delayed_param_update
        # Allocation order on every pool is optimizer state, parameter
        # shard, gradient shard — the reserved-bytes baselines depend on it.
        part32 = None if self.is_meta else self.layout.gather_param_range(
            self.part_lo, self.part_hi, np.float32
        )
        # fp32 Adam state over *this rank's partition only* — the 4x / 8x
        # memory reduction of Figure 1 comes from this line. Off-device
        # the same partition lives in host DRAM instead (ZeRO-Offload),
        # dropping the K Psi / Nd term from the device; ZeRO-Infinity may
        # push it one tier further, to the NVMe pool.
        self.opt_state = FlatAdamState(
            self.part_numel, device=self.pool_of("optimizer"), hp=self.config.adam,
            meta=self.is_meta, tag=f"{self.name}-adam",
        )
        self.opt_state.init_master(part32)
        # Stage 3's persistent fp16 parameter shard (2 Psi / Nd), off-device
        # when the infinity placement pages parameters in from a lower tier.
        if placed["param"].partitioned:
            self.param_shard = self._shard(
                "param", "param_fp16",
                None if part32 is None else part32.astype(self.model.dtype),
            )
        # Stages 2-3 keep reduced gradients in a persistent 1/Nd shard (the
        # 2 Psi -> 2 Psi/Nd reduction). Stage 1 writes reduced values back
        # into the full-size gradient tensors in place, as the paper's Pos
        # does — no extra buffer. Off-device the shard is tier-resident:
        # each reduced piece streams d2h during backward.
        self.grad_shard: Tensor | None = None
        if placed["grad"].partitioned:
            self.grad_shard = self._shard(
                "grad", "grad_fp16",
                None if self.is_meta else np.zeros(self.part_numel, self.model.dtype),
            )
        # Stage 2 reduces (and frees) every micro-step, so its hooks re-fire
        # per micro-batch; stage 1 under accumulation keeps gradients
        # resident and reduces once at the boundary. Stage 3 hooks nothing:
        # it reduces each unit's gradients as the unit's backward ends.
        overlap = not placed["param"].partitioned and (
            self.config.gradient_accumulation_steps == 1 or placed["grad"].partitioned
        )
        self._queue = GradBucketQueue.for_engine(
            self, self.layout.parameters if overlap else ()
        )

    def pool_of(self, state_class: str) -> Device | HostMemory:
        """The allocator ``state_class`` is accounted on: this rank's
        device, or the companion's host / NVMe pool. A tier is nothing
        more than the pool a ``Tensor`` is allocated on."""
        tier = self.placement[state_class].tier
        return self.ctx.device if tier == "device" else self.offload.pool(tier)

    def _shard(self, state_class: str, category: str, data: np.ndarray | None) -> Tensor:
        """This rank's 1/Nd fp16 shard of ``state_class``, on its pool."""
        tag = f"{self.name}-{state_class}-shard"
        with memprof_category(category, site=tag):
            return Tensor(
                (self.part_numel,), np.dtype(self.model.dtype), data=data,
                device=self.pool_of(state_class), tag=tag,
            )

    # -- gradient reduction: reduce each owner's piece to that owner ---------

    def _plan(self, params: list[Parameter]) -> SegmentPlan:
        """The per-owner split of ``params``, ascending in the layout."""
        return plan_segments(
            self.layout, self.dp_group.ranks, self.my_index,
            np.dtype(self.model.dtype).itemsize, params,
        )

    def _flush_bucket(self, bucket: GradRecord) -> None:
        """Reduce each owner's piece of the bucket to that owner — the
        bucketized reduce-scatter of Section 5.2, one logical ``reduce`` per
        owner and one rendezvous for the bucket. The bucket queue calls
        this per bucket, stage 3 per unit. Each owner's piece is one run of
        the bucket's flat buffer, planned at the bucket's first flush."""
        plan = bucket.plan
        if plan is None:
            plan = bucket.plan = self._plan(bucket.fix(self.layout))
        rank = self.ctx.rank
        if self.is_meta:
            self.dp_group.coalesced(
                rank, "reduce", plan.roots, nbytes=plan.nbytes, phase="grad-reduce"
            )
        else:
            dtype = np.dtype(self.model.dtype)
            for seg in plan.segments:
                # The simulated job holds one owner's fused buffer at a time.
                with memprof_category("comm_buffer", site="grad-bucket"):
                    Tensor(
                        (seg.numel,), dtype, data=None,
                        device=self.ctx.device, tag="grad-bucket",
                    ).free()
            # Every root reads its deposits after the rendezvous returns:
            # the buffer the next handoffs write is not deposited itself.
            staged = bucket.buffer.copy()
            reduced = self.dp_group.coalesced(
                rank, "reduce", plan.roots, [staged[seg.lo : seg.hi] for seg in plan.segments],
                phase="grad-reduce",
            )
            if plan.mine is not None:  # this rank owns a segment
                seg, mine = plan.segments[plan.mine], reduced[plan.mine]
                if self.grad_shard is None:
                    # Stage 1: the reduced values replace the full-size
                    # gradients' own, in place.
                    bucket.buffer[seg.lo : seg.hi] = mine
                else:
                    # Accumulate (fp32) so micro-batches under gradient
                    # accumulation sum into the shard; the shard is zeroed
                    # after each optimizer step, so with a single
                    # micro-batch this is a plain write. The add runs in
                    # fp32 and rounds once more into the shard's dtype,
                    # with no temporaries.
                    cursor = 0
                    for lo, hi in seg.pieces:
                        view = self.grad_shard.data[lo - self.part_lo : hi - self.part_lo]
                        # Saturate like hardware (inf - inf is NaN: overflow).
                        with np.errstate(over="ignore", invalid="ignore"):
                            np.add(
                                view, mine[cursor : cursor + hi - lo], out=view,
                                dtype=np.float32, casting="unsafe",
                            )
                        cursor += hi - lo
        if self._stream_grads and plan.mine is not None:
            # The piece this rank owns just landed in the tier shard: one
            # streamed d2h transfer, overlapped with the rest of backward.
            self.offload.queue_grad_d2h(plan.nbytes[plan.mine])
        if self.grad_shard is not None:
            # Partitioned gradients: the full-size ones are released as
            # soon as they are reduced (the one line stage 2 adds to 1).
            bucket.release()

    def _micro_reduce(self) -> None:
        if self.grad_shard is not None:
            self._queue.flush()  # stage 2: reduce+free every micro-step

    def _reduce_gradients(self) -> None:
        if self.config.gradient_accumulation_steps > 1 and self.grad_shard is None:
            for p in reversed(self.layout.parameters):
                if p.grad is not None:
                    self._queue.on_grad_ready(p)
        self._queue.flush()

    def _release_gradients(self) -> None:
        super()._release_gradients()
        if self.grad_shard is not None and not self.is_meta:
            self.grad_shard.data[:] = 0

    # -- optimizer step over the owned partition -------------------------------

    def _optimizer_step(self) -> bool:
        if self.is_meta:
            self.opt_state.step_count += 1
            if not self._host_adam:
                # Host-side Adam needs no device working buffer — one of
                # ZeRO-Offload's device-memory savings.
                self.with_fused_buffer(self.part_numel, lambda lo, hi: None)
            self._publish_params(None)
            return True
        if self.grad_shard is not None:
            grad32 = self.grad_shard.numpy().astype(np.float32)
        else:
            grad32 = self.layout.gather_grad_range(
                self.part_lo, self.part_hi, np.float32, missing_ok=True
            )
        grad32 /= self.grad_divisor
        # Agree on the overflow decision across ranks: each rank only sees
        # its own shard of its own stage's MP slice, so the flag is reduced
        # over every rank that holds a piece of the gradient.
        flag = np.array([float(LossScaler.has_overflow(grad32))], dtype=np.float32)
        groups = (self.dp_group, *self._model_groups)
        overflow = bool(self._control_all_reduce(flag, "max", groups)[0] > 0)
        if not self.scaler.update(overflow):
            # Other ranks reached the same decision; skip in lockstep.
            self._publish_params(None)
            return False
        grad64 = grad32.astype(np.float64)
        if self._mp_copies is not None:
            grad64[self._mp_copies[self.part_lo : self.part_hi]] = 0.0
        clip_factor = self._clip_factor(float(np.dot(grad64, grad64)), partitioned=True)
        if clip_factor != 1.0:
            grad32 *= np.float32(clip_factor)
        self.opt_state.step_count += 1
        hp = self.current_adam_hp
        # DPU (ZeRO-Offload): publish fp16(master *before* this update) —
        # the update lands one step late, overlapped with the next step's
        # compute. See repro.infinity.engine for the staleness contract.
        stale16 = self.opt_state.master.data.astype(self.model.dtype) if self._dpu else None

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
        self._publish_params(
            stale16 if stale16 is not None
            else self.opt_state.master.data.astype(self.model.dtype)
        )
        return True

    def _publish_params(self, my_shard16: np.ndarray | None) -> None:
        """Make this rank's updated fp16 partition what the next forward
        reads — the one step of the boundary that depends on whether
        parameters are partitioned (stage 3 overrides it). Replicated
        parameters: collect every rank's partition into them, the
        end-of-step all-gather of Sections 5.1 / 7.2.1. ``None`` means no
        new values — meta mode, or an overflow skip, which still runs the
        (no-op) all-gather of the served values so the SPMD schedules
        match."""
        if my_shard16 is None and not self.is_meta:
            my_shard16 = self.layout.gather_param_range(
                self.part_lo, self.part_hi, np.float32).astype(self.model.dtype)
        if self.tracer is not None:
            self.tracer.begin("param-allgather")
        full = all_gather_flat(
            self.dp_group, self.ctx.rank, my_shard16,
            shard_numel=self.part_numel, dtype=self.model.dtype,
            is_meta=self.is_meta,
        )
        if full is not None:
            self.layout.scatter_params(full.astype(self.model.dtype))
        if self.tracer is not None:
            self.tracer.end()

    def checkpoint_partition(self) -> tuple[int, int]:
        """This rank's 1/Nd partition — covers the optimizer state and,
        at stage 3, the fp16 parameter shard (what ``repro.zero.owned``
        captures and restores)."""
        return self.part_lo, self.part_hi

    def redundancy_shards(self) -> dict[str, np.ndarray]:
        """Integrity set plus the DPU staleness carry.

        Under delayed param update the fp16 parameters lag the master by
        one step — fp16(master after step t-1) — so restoring fp16 from
        the post-update master would collapse the lag and diverge from
        the uninterrupted run. The buddy snapshot therefore also carries
        this rank's *current* (stale) fp16 partition, read back from the
        live parameters, and ``repro.zero.owned.restore`` rebuilds the fp16
        replicas from it. (Stage 3 needs no carry: its ``param_shard``
        holds the stale values and is already in the integrity set.)
        """
        shards = super().redundancy_shards()
        if self._dpu and not self.is_meta and not self.placement["param"].partitioned:
            shards["param16"] = self.layout.gather_param_range(
                self.part_lo, self.part_hi, np.dtype(self.model.dtype)
            )
        return shards

    def free(self) -> None:
        super().free()
        self.opt_state.free()
        if self.placement["param"].partitioned:
            self.param_shard.free_if_alive()
        if self.grad_shard is not None:
            self.grad_shard.free_if_alive()


class ZeroStage1Engine(_ZeroDPBase):
    """Pos: optimizer-state partitioning. Full gradients stay resident."""

    name = "zero1"
    stage = 1


class ZeroStage2Engine(_ZeroDPBase):
    """Pos+g: gradients additionally partitioned and freed after reduction."""

    name = "zero2"
    stage = 2
