"""Shared training-engine scaffolding.

An *engine* owns one rank's model replica (or partition), runs the
forward/loss/backward step, and delegates gradient reduction and the
optimizer update to its subclass — baseline DDP or a ZeRO-DP stage. The
step structure, loss scaling, meta-mode handling, and temporary fused
buffer accounting (Section 6.2's CB) are identical across engines and
live here so the equivalence tests compare only what differs.

A model built with a ``pp_group`` is one pipeline stage, and any engine
runs it: the stage's flat space is what ZeRO partitions over ``dp``. The
GPipe schedule is the gradient-accumulation loop with backward deferred:
each micro-step runs its forward only, and the boundary micro-step runs
every kept backward in reverse micro order (all-forward / all-backward,
with M = ``gradient_accumulation_steps`` micro-batches in flight).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.memprof.provenance import profiling_active
from repro.nn.module import ExecutionContext
from repro.nn.transformer import GPT2Model
from repro.optim.adam import AdamHyperparams
from repro.optim.flat import FlatLayout, GradRecord
from repro.optim.scaler import LossScaler
from repro.parallel.lifecycle import Lifecycle
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor
from repro.zero.config import CONSTANT_BUFFER_NUMEL, ZeROConfig


@dataclass
class EngineConfig:
    """Training knobs shared by all engines. What ZeRO decides (stage,
    tiers, CB, the SDC audit) is the engine's ``ZeROConfig``."""

    adam: AdamHyperparams = field(default_factory=AdamHyperparams)
    loss_scale: float = 1.0
    dynamic_loss_scale: bool = False
    # Gradient-reduction bucket size in *elements*. DDP/ZeRO-2 flush a
    # bucket whenever this many gradient elements are ready.
    bucket_numel: int = 1 << 19
    # Micro-batches per optimizer step. Engines with resident full
    # gradients (DDP, stage 1) accumulate locally and reduce once at the
    # boundary (torch's no_sync pattern); engines with partitioned
    # gradients (stages 2-3) reduce every micro-step and accumulate in
    # their 1/Nd shard, keeping gradient memory at 2 Psi / Nd throughout.
    gradient_accumulation_steps: int = 1
    # Optional step -> lr schedule (repro.optim.lr_schedule). When set, it
    # overrides adam.lr at every optimizer boundary, identically on every
    # rank, so the cross-stage equivalence guarantees are unaffected.
    lr_schedule: object | None = None
    # Optional parameter-name predicate restricting adam.weight_decay to
    # matching parameters (param-group semantics; see repro.optim.decay.
    # default_weight_decay_filter for the transformer convention).
    weight_decay_filter: object | None = None
    # Optional global gradient-norm clip. Under ZeRO each rank holds only
    # a gradient partition, so the norm is assembled distributively: local
    # partition norm^2, summed across the DP group, sqrt — then every rank
    # applies the identical scale factor.
    grad_clip_norm: float | None = None


@dataclass
class StepResult:
    loss: float | None  # None in meta mode
    applied: bool  # False when the loss scaler skipped on overflow
    is_boundary: bool = True  # False on non-final gradient-accumulation steps
    step_time_model_s: float = 0.0


def _batch_signature(*batch) -> tuple | None:
    """What a step's inputs contribute to it in meta mode: each one's
    class, shape and dtype; None for an input of another kind."""
    signature = []
    for x in batch:
        if x.__class__ is not Tensor and x.__class__ is not np.ndarray:
            return None
        signature.append((x.__class__, x.shape, x.dtype))
    return tuple(signature)


class BaseEngine:
    """Common step orchestration; subclasses implement reduction + update."""

    name = "base"
    #: ZeRO stage: the row of ``repro.zero.placement`` this engine
    #: implements. 0 partitions nothing (the DDP oracle); what a stage
    #: partitions, and therefore what may leave the device, is read from
    #: ``self.placement`` — never restated per class.
    stage = 0

    def __init__(
        self,
        ctx: RankContext,
        model: GPT2Model,
        dp_group: ProcessGroup,
        zero: ZeROConfig,
        config: EngineConfig | None = None,
    ):
        if zero.stage != self.stage:
            raise ValueError(
                f"{type(self).__name__} runs ZeRO stage {self.stage}, "
                f"got a stage-{zero.stage} ZeROConfig"
            )
        #: (partitioned, tier) per state class, resolved from the config
        #: again: one that got around its constructor still meets the one
        #: validity error when a tier parks a class this stage replicates.
        self.placement = zero.placement
        self.ctx = ctx
        self.model = model
        self.dp_group = dp_group
        self.zero = zero
        self.config = config or EngineConfig()
        dp_group.attach_ledger(ctx.rank, ctx.ledger)
        params = model.parameters()
        if not params:
            raise ValueError("model has no parameters")
        # Imported here: repro.zero's engines import this module.
        from repro.zero.placement import Mesh

        mp_group, pp_group = model.mp_group, model.pp_group
        #: the DP x MP x PP degrees this rank runs under, resolved once.
        self.mesh = Mesh(
            dp=dp_group.size, mp=1 if mp_group is None else mp_group.size,
            pp=1 if pp_group is None else pp_group.size,
        )
        if zero.infinity is not None and self.mesh.pp > 1:
            raise ValueError(
                f"tier placement (infinity) does not run on a pipeline mesh: the pp axis "
                f"is {self.mesh.pp}; build the stage with every state on the device"
            )
        #: the groups beside DP that hold the rest of this replica's gradient
        self._model_groups = tuple(g for g in (mp_group, pp_group) if g is not None)
        #: micro-batches whose backward waits for the boundary (pipeline only)
        self._deferred: list = []
        self.is_meta = params[0].data.is_meta
        self.layout = FlatLayout(params, pad_multiple=dp_group.size)
        #: the whole replica's gradients, released as one at each boundary
        self._grads = GradRecord(params)
        self.scaler = LossScaler(
            init_scale=self.config.loss_scale, dynamic=self.config.dynamic_loss_scale
        )
        # A pipeline stage before the last has no head: it sends its output on.
        self.loss_head = None if model.head is None else model.make_loss_head()
        #: flat elements this rank holds as a copy of MP index 0's (the
        #: MP-replicated parameters): a gradient norm counts them there only.
        self._mp_copies = None
        if mp_group is not None and mp_group.group_index(ctx.rank) and not self.is_meta:
            self._mp_copies = np.zeros(self.layout.numel, bool)
            for p in params:
                if not p.mp_sharded:
                    slot = self.layout.slot(p.name)
                    self._mp_copies[slot.offset : slot.end] = True
        if self.config.gradient_accumulation_steps < 1:
            raise ValueError("gradient_accumulation_steps must be >= 1")
        self.step_count = 0
        self._micro_step = 0
        #: the phase the step loop is in (forward / backward / reduce /
        #: optimizer); between steps, the last one entered.
        self.phase = ""
        # Optional repro.memsim.timeline.MemoryTimeline, assigned by the
        # caller: its samples are labelled with the step's phases.
        self.timeline = None
        # repro.telemetry.Tracer from the context; None = telemetry off.
        self.tracer = ctx.tracer
        # Per-element weight-decay mask over the padded flat space (None
        # when decay applies uniformly). Engines slice their own range.
        self.decay_mask = None
        if self.config.weight_decay_filter is not None:
            from repro.optim.decay import build_decay_mask

            self.decay_mask = build_decay_mask(
                self.layout, self.config.weight_decay_filter
            )
        # Persistent constant-size fused buffer (CB) if configured.
        self._cb_buffer: Tensor | None = None
        if zero.constant_buffers:
            with memprof_category("comm_buffer", site="cb-fused-buffer"):
                # An accounting reservation, like the transient one in
                # ``with_fused_buffer``: nothing reads its bytes, so it
                # carries none even in real mode.
                self._cb_buffer = Tensor(
                    (CONSTANT_BUFFER_NUMEL,), np.dtype(np.float32),
                    data=None, device=ctx.device, tag="cb-fused-buffer",
                )
        # The tier runtime: owns the transfer streams and the step-time
        # model. Placement changes live in the ZeRO engines.
        self.offload = None
        if zero.infinity is not None:
            from repro.infinity.engine import InfinityEngine

            self.offload = InfinityEngine(ctx, zero.infinity)
        # repro.integrity's detectors and repro.redundancy's manager are built
        # with the lifecycle, at the first train_step: the subclass's optimizer
        # state (what they fingerprint and copy) does not exist yet.
        self.integrity = None
        self.redundancy = None
        self._lifecycle: Lifecycle | None = None
        #: this engine's seat in its rank class (``RankContext.rank_class``)
        self._seat = ctx.rank_class(self._class_key())

    def _class_key(self) -> tuple | None:
        """What this engine's step depends on besides its inputs' shapes,
        for ``RankContext.rank_class``; None where a peer's step cannot
        stand for it. Only a meta engine over the world group alone, with
        nothing attached that acts on its own rank's step and no MD region
        on its device (whose steps never summarise), is classed: its step
        issues data-free world collectives only, so it never waits for a
        peer, and what it allocates, records and exchanges follows from
        this key and the inputs' shapes (every rank's shards are the same
        size)."""
        ctx = self.ctx
        if (not self.is_meta or self._model_groups or self.dp_group.ranks != ctx.world.ranks
                or self.offload is not None or ctx.device.md_region_bytes
                or ctx.faults is not None or ctx.tracer is not None
                or ctx.recorder is not None or ctx.redundancy is not None):
            return None
        return (
            type(self), self.zero, self.config, self.model.config, self.model.dtype,
            self.model.checkpoint_activations, self.layout.numel, ctx.device.spec,
        )

    # -- fused working buffer ------------------------------------------------

    def with_fused_buffer(self, numel: int, fn) -> None:
        """Run ``fn(chunk_lo, chunk_hi)`` over [0, numel) through the fused
        buffer: one full-size transient allocation without CB, constant-size
        chunks with CB. This is where CB bounds temporary-buffer memory."""
        if self._cb_buffer is not None:
            chunk = self._cb_buffer.size
            for lo in range(0, numel, chunk):
                fn(lo, min(lo + chunk, numel))
            return
        with memprof_category("temp", site="fused-buffer"):
            scratch = Tensor(
                (numel,), np.dtype(np.float32), data=None,
                device=self.ctx.device, tag="fused-buffer",
            )
        try:
            fn(0, numel)
        finally:
            scratch.free()

    # -- the training step ------------------------------------------------------

    def train_step(self, token_ids: np.ndarray | Tensor, targets: np.ndarray | Tensor) -> StepResult:
        """One micro-batch forward/backward; the optimizer runs on
        gradient-accumulation boundaries (every step by default). Whatever
        else is attached acts at the points of ``repro.parallel.lifecycle``,
        walked here in order.

        In a rank class of a meta ``Cluster`` the leader also publishes
        what its step did, and another member makes that step from it
        where it can (``_lead``, ``_follow``)."""
        seat = self._seat
        if seat is None or seat.board is None:
            return self._step(token_ids, targets)
        if seat.leads:
            return self._lead(seat.board, token_ids, targets)
        return self._follow(seat, token_ids, targets)

    def _lead(self, board, token_ids, targets) -> StepResult:
        """Run the step, noting its device events and world tags, then
        publish its record: None unless a member can make it in one apply
        (its device step was closed, ``Device.step_transition``)."""
        step = self._micro_step + 1
        if board.first is None:
            board.first = step
        rank, device, ledger = self.ctx.rank, self.ctx.device, self.ctx.ledger
        rendezvous = self.dp_group._rendezvous
        n0 = len(ledger.events)
        device.record_step()
        rendezvous.tape(rank)
        try:
            result = self._step(token_ids, targets)
        finally:
            transition = device.step_transition()
            tags = rendezvous.untape(rank)
        inputs = _batch_signature(token_ids, targets)
        record = None
        if transition is not None and inputs is not None and ledger.enabled:
            record = (
                transition, ledger.events[n0:], tags, inputs, self._counters(),
                (result.loss, result.applied, result.is_boundary, result.step_time_model_s),
            )
        board.publish(step, record)
        return result

    def _follow(self, seat, token_ids, targets) -> StepResult:
        """Make the leader's record of this step, or run the step: where
        something observes this rank's step (a door or lifecycle
        subscriber, a profiler, a ledger listener) or its ledger is off,
        where the leader's step has no record (not published yet, not
        closed, or dropped), where the inputs' shapes differ, or where
        this device declines the transition."""
        step = self._micro_step + 1
        ctx, board = self.ctx, seat.board
        first = board.first
        if first is None or step < first:  # the leader has not led it: no record
            return self._step(token_ids, targets)
        device, ledger = ctx.device, ctx.ledger
        life = self._lifecycle or self._assemble_lifecycle()
        unobserved = (
            life.quiet and self.timeline is None and not profiling_active()
            and ledger.enabled and ledger.listener is None
            and not device.heard() and not self.dp_group.heard(ctx.rank)
        )
        record = board.take(seat.member, step, unobserved)
        if (record is None or not unobserved or record[3] != _batch_signature(token_ids, targets)
                or not device.apply(record[0], [], ())):
            return self._step(token_ids, targets)
        _, events, tags, _, counters, result = record
        ledger.events += events
        self.dp_group._rendezvous.replay(ctx.rank, tags)
        self._set_counters(counters)
        return StepResult(*result)

    def _counters(self) -> tuple:
        """What a step advances beside the device, the ledger and the
        rendezvous: the step counters, the phase, the scaler, Adam's count."""
        scaler = self.scaler
        return (self.step_count, self._micro_step, self.phase, scaler.scale,
                scaler.good_steps, scaler.n_skipped, self.opt_state.step_count)

    def _set_counters(self, counters: tuple) -> None:
        scaler = self.scaler
        (self.step_count, self._micro_step, self.phase, scaler.scale,
         scaler.good_steps, scaler.n_skipped, self.opt_state.step_count) = counters

    def _step(self, token_ids: np.ndarray | Tensor, targets: np.ndarray | Tensor) -> StepResult:
        """The step itself (``train_step``)."""
        life = self._lifecycle or self._assemble_lifecycle()
        self._micro_step += 1
        boundary = self._micro_step % self.config.gradient_accumulation_steps == 0
        if boundary:
            self.step_count += 1
        for sub in life.step_begin:
            sub.step_begin(self, boundary)
        free_inputs = []
        with memprof_category("activation", site="batch-input"):
            if isinstance(token_ids, Tensor):
                ids_t = token_ids
            else:
                ids_t = Tensor.from_numpy(np.asarray(token_ids), device=self.ctx.device, tag="batch.ids")
                free_inputs.append(ids_t)
            if isinstance(targets, Tensor):
                tgt_t = targets
            else:
                tgt_t = Tensor.from_numpy(np.asarray(targets), device=self.ctx.device, tag="batch.targets")
                free_inputs.append(tgt_t)
        ctx = ExecutionContext(training=True)
        if life.micro_begin:
            # The micro-step's modeled compute, priced once for every
            # subscriber; perf-fault rules stretch it, never the numerics.
            forward_s, backward_s = self._compute_split(ids_t.shape[0], ids_t.shape[-1])
            plan = self.ctx.faults
            if plan is not None and plan.has_perf_rules:
                # Micro-steps before a boundary belong to the upcoming
                # optimizer step (the plan notes it at the boundary).
                scale = plan.compute_scale(
                    self.ctx.rank, self.step_count if boundary else self.step_count + 1
                )
                forward_s, backward_s = forward_s * scale, backward_s * scale
            for sub in life.micro_begin:
                sub.micro_begin(self, boundary, forward_s, backward_s)

        self.phase = "forward"
        for sub in life.enter_phase:
            sub.enter_phase(self, "forward")
        loss_value, micro = self._forward(ids_t, tgt_t, ctx)
        if self.mesh.pp == 1:
            self._enter_backward(life)
            self._backward(micro)
        else:
            # GPipe: every backward waits for the boundary's forward, then
            # runs in reverse micro order, reduced between as accumulated.
            self._deferred.append((micro, free_inputs))
            free_inputs = ()
            if boundary:
                self._enter_backward(life)
                for i, (micro, inputs) in enumerate(reversed(self._deferred)):
                    if i:
                        self._micro_reduce()
                    self._backward(micro)
                    for t in inputs:
                        t.free_if_alive()
                self._deferred.clear()

        if boundary:
            for sub in life.pre_optimizer:
                sub.pre_optimizer(self)
        self.phase = "reduce"
        for sub in life.enter_phase:
            sub.enter_phase(self, "reduce")
        if boundary:
            self._reduce_gradients()
            self.phase = "optimizer"
            for sub in life.enter_phase:
                sub.enter_phase(self, "optimizer")
            result = StepResult(loss=loss_value, applied=self._optimizer_step())
            for sub in life.post_optimizer:
                sub.post_optimizer(self, result)
            self._release_gradients()
            for sub in life.boundary_closed:
                sub.boundary_closed(self, result)
        else:
            self._micro_reduce()
            result = StepResult(loss=loss_value, applied=False, is_boundary=False)
        for t in free_inputs:
            t.free_if_alive()
        for sub in life.step_end:
            sub.step_end(self)
        return result

    def _forward(self, ids_t: Tensor, tgt_t: Tensor, ctx: ExecutionContext) -> tuple:
        """One micro-batch's forward, and the loss's backward on the stage
        with the head: (loss value, what ``_backward`` takes)."""
        logits, cache = self.model.forward(ids_t, ctx)
        if self.loss_head is None:
            return None, (cache, None, None, None, None)
        loss, lcache = self.loss_head.forward(logits, tgt_t)
        loss_value = None if loss.is_meta else float(loss.numpy())
        dlogits = self.loss_head.backward(lcache, loss_scale=self.scaler.scale)
        return loss_value, (cache, dlogits, lcache, logits, loss)

    def _enter_backward(self, life: Lifecycle) -> None:
        self.phase = "backward"
        for sub in life.enter_phase:
            sub.enter_phase(self, "backward")

    def _backward(self, micro: tuple) -> None:
        """One micro-batch's backward; frees what its forward kept."""
        cache, dlogits, lcache, logits, loss = micro
        self.model.backward(cache, dlogits).free_if_alive()
        if lcache is None:  # a stage before the last: its output is the cache's
            cache.free()
            return
        dlogits.free_if_alive()
        lcache.free()
        cache.free()
        logits.free_if_alive()
        loss.free_if_alive()

    def _assemble_lifecycle(self) -> Lifecycle:
        """Once per engine, at the first step: build the detectors that
        need the optimizer state, then fix who acts at which point."""
        if self.zero.audit_cadence and not self.is_meta:
            from repro.integrity.audit import IntegrityAuditor

            self.integrity = IntegrityAuditor(self, self.zero.audit_cadence)
        if self.ctx.redundancy is not None and not self.is_meta:
            from repro.redundancy.manager import RedundancyManager

            self.redundancy = RedundancyManager(self, self.ctx.redundancy)
        self._lifecycle = Lifecycle(
            self, tiers=self.offload, integrity=self.integrity,
            redundancy=self.redundancy, recorder=self.ctx.recorder,
        )
        return self._lifecycle

    @property
    def clock_s(self) -> float | None:
        """This rank's simulated clock (what run-ledger events are stamped
        with); None with telemetry off."""
        return self.tracer.clock_s if self.tracer is not None else None

    def _step_labels(self, boundary: bool) -> dict:
        """Arguments of the traced ``step`` span."""
        return {"micro_step": self._micro_step, "boundary": boundary}

    # -- hooks -------------------------------------------------------------------

    def integrity_shards(self) -> dict[str, np.ndarray]:
        """Flat arrays this rank solely owns, for the integrity layer's
        digest guard (and the fault plan's scribble targets): the fp32
        master / Adam moments, plus the stage-3 fp16 parameter shard.
        Works for device- and host-resident (ZeRO-Offload) placement
        alike — both expose the raw array as ``.data``."""
        shards = {
            "master": self.opt_state.master.data,
            "m": self.opt_state.m.data,
            "v": self.opt_state.v.data,
        }
        if self.placement["param"].partitioned:
            shards["param_shard"] = self.param_shard.data
        return shards

    def redundancy_shards(self) -> dict[str, np.ndarray]:
        """What a buddy refresh must capture to resume bitwise at the
        current step: the integrity set, plus any engine-specific carry
        (stages 1-2 add the stale fp16 params under delayed param
        update — see ``_ZeroDPBase.redundancy_shards``)."""
        return self.integrity_shards()

    def _clip_factor(self, local_norm_sq: float, *, partitioned: bool) -> float:
        """Global-norm clip factor for this step (1.0 when clipping is off).

        ``local_norm_sq`` covers the gradient elements this rank holds
        uniquely in its replica (``_mp_copies`` excluded). It is summed
        across the MP and pipeline partners, which hold the rest of the
        replica, and ``partitioned`` engines also sum it across the DP
        group; replicated-gradient engines already hold their DP share.
        """
        if self.integrity is not None:
            # Every engine routes its (applied-step) gradient norm^2
            # through here, clipping or not — a free tap for the
            # grad-norm spike sentinel. Partitioned engines feed their
            # partition's norm: a corrupted contribution lands in one
            # owner's shard, and that owner's sentinel fires.
            self.integrity.note_grad_norm(local_norm_sq)
        clip = self.config.grad_clip_norm
        if clip is None:
            return 1.0
        if clip <= 0:
            raise ValueError(f"grad_clip_norm must be positive, got {clip}")
        total_sq = local_norm_sq
        groups = self._model_groups
        if partitioned and self.dp_group.size > 1:
            groups = (self.dp_group, *groups)
        if groups:
            total_sq = float(self._control_all_reduce(
                np.array([local_norm_sq], dtype=np.float64), "sum", groups
            )[0])
        norm = float(np.sqrt(total_sq))
        if norm <= clip:
            return 1.0
        return clip / (norm + 1e-6)

    def _control_all_reduce(self, value: np.ndarray, op: str, groups: tuple) -> np.ndarray:
        """All-reduce a tiny control message (the overflow vote, the clip
        norm) across each of ``groups`` in turn, excluded from volume
        accounting on purpose. Every rank ends with the same value."""
        self.ctx.ledger.enabled = False
        try:
            for group in groups:
                value = group.all_reduce(self.ctx.rank, value, op=op, phase="control")
            return value
        finally:
            self.ctx.ledger.enabled = True

    @property
    def current_adam_hp(self):
        """Adam hyperparameters for the current optimizer step, with the
        LR schedule (if any) applied."""
        schedule = self.config.lr_schedule
        if schedule is None:
            return self.config.adam
        from dataclasses import replace as _replace

        return _replace(self.config.adam, lr=schedule.lr(max(self.step_count, 1)))

    def _compute_split(self, batch: int, seq_len: int) -> tuple[float, float]:
        """Modeled (forward_s, backward_s) GEMM seconds for one micro-batch
        of this engine's model on this rank's device (the durations the
        traced forward/backward spans advance the clock by)."""
        from repro.analysis.perf_model import compute_split_seconds

        forward_s, backward_s = compute_split_seconds(
            self.model.config, batch, seq_len,
            checkpointing=self.model.checkpoint_activations,
            mesh=self.mesh, peak_flops=self.ctx.device.spec.peak_flops,
        )
        # A pipeline's boundary micro-step runs every deferred backward too.
        return forward_s, backward_s * (len(self._deferred) + 1)

    def _micro_reduce(self) -> None:
        """Per-micro-step work on non-boundary steps. Engines with
        partitioned gradients reduce here; replicated-gradient engines
        accumulate locally and do nothing."""
        return

    @property
    def grad_divisor(self) -> float:
        """Mean-gradient divisor: ranks x accumulation steps x loss scale."""
        return (
            self.scaler.scale
            * self.dp_group.size
            * self.config.gradient_accumulation_steps
        )

    def _reduce_gradients(self) -> None:
        raise NotImplementedError

    def _optimizer_step(self) -> bool:
        raise NotImplementedError

    def _release_gradients(self) -> None:
        self._grads.release()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_partition(self) -> tuple[int, int]:
        """[lo, hi) of the padded flat space this engine's optimizer state
        covers. Replicated engines own the whole space; ZeRO engines
        override with their 1/Nd partition. ``repro.zero.owned`` captures
        and restores exactly this range."""
        return 0, self.layout.numel

    # -- teardown -----------------------------------------------------------------

    def free(self) -> None:
        """Release engine-held device memory (buffers, optimizer state)."""
        if self._cb_buffer is not None:
            self._cb_buffer.free_if_alive()
