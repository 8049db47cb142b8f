"""GPipe-style pipeline parallelism (Huang et al. [10]) — the paper's other
comparator (Section 2.1).

The model's units are split into contiguous stages, one per pipeline rank;
a batch is cut into micro-batches that flow through the stages
(all-forward then all-backward, the GPipe schedule). This reproduces the
memory trade-offs the paper argues about:

* parameters and optimizer states divide by the number of stages — PP's
  strength;
* every in-flight micro-batch's activations (or checkpoints) must be held
  until its backward — PP's weakness: activation memory scales with the
  micro-batch count needed to amortize the (S-1)/(M+S-1) pipeline bubble;
* batch size must grow ~proportionally to the stage count for efficiency,
  with the convergence implications the paper cites ([8]).

The analysis companion is ``repro.analysis.pp_model``; the bench
``bench_pp_vs_zero.py`` reproduces the Section 2.1 comparison.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.nn.module import Cache, ExecutionContext, Module
from repro.nn.transformer import GPT2Model, GPTConfig
from repro.optim.adam import AdamHyperparams, adam_step_inplace
from repro.optim.flat import FlatLayout
from repro.optim.mixed_precision import FlatAdamState
from repro.parallel.engine import StepResult
from repro.parallel.lifecycle import Lifecycle
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor


def split_units(n_units: int, n_stages: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) unit ranges per stage, balanced like np.array_split."""
    if not 1 <= n_stages <= n_units:
        raise ValueError(f"need 1 <= stages <= units, got {n_stages} stages / {n_units} units")
    base, extra = divmod(n_units, n_stages)
    bounds = []
    lo = 0
    for s in range(n_stages):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class _StageParams(Module):
    """Module wrapper over one stage's units (for the flat optimizer)."""

    def __init__(self, units: list[Module]):
        super().__init__("stage")
        for u in units:
            self.register_module(u)


class GPipeEngine:
    """One pipeline rank: a contiguous slice of the model's units.

    Every rank constructs the full model uncharged and deterministically
    (same seed), then charges its Adam state and, unit by unit, the units
    it owns, so stage s holds ~1/S of the parameters and optimizer state
    and never the whole model.
    """

    name = "gpipe"
    #: what a ``BaseEngine`` may carry and a pipeline stage does not: no tier
    #: runtime (its state stays on its device), no memory timeline.
    offload = timeline = None

    def __init__(
        self,
        ctx: RankContext,
        config: GPTConfig,
        pp_group: ProcessGroup,
        *,
        n_microbatches: int,
        dtype=np.float32,
        seed: int = 0,
        adam: AdamHyperparams | None = None,
        checkpoint_activations: bool = False,
    ):
        self.ctx = ctx
        self.group = pp_group
        pp_group.attach_ledger(ctx.rank, ctx.ledger)
        self.stage_index = pp_group.group_index(ctx.rank)
        self.n_stages = pp_group.size
        if n_microbatches < 1:
            raise ValueError(f"n_microbatches must be >= 1, got {n_microbatches}")
        self.n_microbatches = n_microbatches
        self.dtype = np.dtype(dtype)
        self.config = config

        self.model = GPT2Model(
            config, dtype=dtype, rng=np.random.default_rng(seed),
            checkpoint_activations=checkpoint_activations,
        )
        units = self.model.units()
        lo, hi = split_units(len(units), self.n_stages)[self.stage_index]
        self.local_units = units[lo:hi]
        self.is_first = self.stage_index == 0
        self.is_last = self.stage_index == self.n_stages - 1
        self.stage_module = _StageParams(self.local_units)
        self.layout = FlatLayout(self.stage_module.parameters())
        self.opt_state = FlatAdamState(
            self.layout.numel, device=ctx.device, hp=adam, tag="gpipe-adam",
        )
        self.opt_state.init_master(self.layout.gather_params(np.float32))
        with memprof_category("param_fp16", site=self.model.name):
            for p in self.layout.parameters:
                p.data = Tensor(
                    p.shape, self.dtype, data=p.data.data, device=ctx.device, tag=p.name
                )
        self.loss_head = self.model.make_loss_head() if self.is_last else None
        self.step_count = 0
        # Telemetry tracer from the context; None means disabled.
        self.tracer = ctx.tracer
        self._lifecycle = Lifecycle(self)

    # -- schedule -----------------------------------------------------------------

    def train_step(self, token_ids: np.ndarray, targets: np.ndarray):
        """GPipe: all micro-batch forwards, then all backwards, then update.

        Inputs are the *full* per-step batch on every rank (data loading is
        replicated for simplicity); only the relevant slices are consumed.
        Returns the mean micro-batch loss on the last stage, else None.
        """
        life = self._lifecycle
        self.step_count += 1
        for sub in life.step_begin:
            sub.step_begin(self, True)
        batch = token_ids.shape[0]
        if batch % self.n_microbatches:
            raise ValueError(
                f"batch {batch} not divisible into {self.n_microbatches} micro-batches"
            )
        mb = batch // self.n_microbatches
        ctx = ExecutionContext(training=True)
        prev = self.group.ranks[self.stage_index - 1] if not self.is_first else None
        nxt = self.group.ranks[self.stage_index + 1] if not self.is_last else None

        for sub in life.micro_begin:
            sub.micro_begin(self, True, batch, token_ids.shape[-1])
        for sub in life.enter_phase:
            sub.enter_phase(self, "forward")

        # All-forward. Per-micro state is retained until its backward —
        # exactly GPipe's activation-memory footprint.
        caches: list[list[tuple[Module, Cache]]] = []
        inputs: list[Tensor] = []
        mids: list[list[Tensor]] = []  # intra-stage unit outputs, per micro
        loss_caches = []
        losses = []
        for m in range(self.n_microbatches):
            with memprof_category("activation", site="pp-boundary"):
                if self.is_first:
                    x = Tensor.from_numpy(
                        token_ids[m * mb : (m + 1) * mb], device=self.ctx.device,
                        tag="pp-ids",
                    )
                else:
                    h = self.group.recv(self.ctx.rank, src=prev, tag=("act", m), phase="pp-act")
                    x = Tensor.from_numpy(h.astype(self.dtype), device=self.ctx.device, tag="pp-act")
            inputs.append(x)
            unit_caches = []
            micro_mids = []
            h_out = x
            for unit in self.local_units:
                y, cache = unit.forward(h_out, ctx)
                unit_caches.append((unit, cache))
                micro_mids.append(y)
                h_out = y
            caches.append(unit_caches)
            mids.append(micro_mids)
            if self.is_last:
                tgt = Tensor.from_numpy(targets[m * mb : (m + 1) * mb])
                loss, lcache = self.loss_head.forward(h_out, tgt)
                losses.append(float(loss.numpy()))
                loss_caches.append((lcache, h_out))
            else:
                self.group.send(
                    self.ctx.rank, dst=nxt, array=h_out.numpy(), tag=("act", m),
                    phase="pp-act",
                )
                # The boundary activation tensor is kept for backward below.
                loss_caches.append((None, h_out))
        for sub in life.enter_phase:
            sub.enter_phase(self, "backward")

        # All-backward (reverse micro order, reverse units).
        for m in reversed(range(self.n_microbatches)):
            if self.is_last:
                lcache, h_out = loss_caches[m]
                # 1/M so summed micro gradients equal the big-batch mean.
                dh = self.loss_head.backward(lcache, loss_scale=1.0 / self.n_microbatches)
                lcache.free()
            else:
                _, h_out = loss_caches[m]
                g = self.group.recv(self.ctx.rank, src=nxt, tag=("grad", m), phase="pp-grad")
                with memprof_category("activation", site="pp-boundary"):
                    dh = Tensor.from_numpy(g.astype(self.dtype), device=self.ctx.device, tag="pp-grad")
            for unit, cache in reversed(caches[m]):
                dprev = unit.backward(cache, dh)
                cache.free()
                dh.free_if_alive()
                dh = dprev
            if not self.is_first:
                self.group.send(
                    self.ctx.rank, dst=prev, array=dh.numpy(), tag=("grad", m),
                    phase="pp-grad",
                )
            dh.free_if_alive()
            for t in mids[m]:
                t.free_if_alive()
            inputs[m].free_if_alive()
        for sub in life.pre_optimizer:
            sub.pre_optimizer(self)
        for sub in life.enter_phase:
            sub.enter_phase(self, "optimizer")
        self._optimizer_step()
        result = StepResult(float(np.mean(losses)) if self.is_last else None, applied=True)
        for sub in life.post_optimizer:
            sub.post_optimizer(self, result)
        self.stage_module.zero_grad()
        for sub in life.boundary_closed:
            sub.boundary_closed(self, result)
        for sub in life.step_end:
            sub.step_end(self)
        return result.loss

    def _compute_split(self, batch: int, seq_len: int) -> tuple:
        """No GEMM model for a pipeline stage: its spans carry comm time only."""
        return ()

    def _step_labels(self, boundary: bool) -> dict:
        return {"micro_batches": self.n_microbatches, "stage": self.stage_index}

    def _optimizer_step(self) -> None:
        grad32 = self.layout.gather_grads(np.float32, missing_ok=True)
        master = self.opt_state.step(grad32)
        self.layout.scatter_params(master.astype(self.dtype))

    # -- accounting ------------------------------------------------------------------

    @property
    def local_param_count(self) -> int:
        return self.layout.numel

    def free(self) -> None:
        self.opt_state.free()
        self.stage_module.free_parameters()
