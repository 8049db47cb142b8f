"""ZeRO-DP stage 3 (Pos+g+p, Section 5.3): parameter partitioning.

Each rank permanently stores only a 1/Nd fp16 shard of the flat parameter
space (plus its 1/Nd gradient shard and 1/Nd Adam state), bringing
model-state memory to 16 Psi / Nd. Parameters for one *unit* (embedding
unit / transformer block / head unit) are materialized just before the
unit computes — each owner broadcasts its piece of the unit's flat range —
and freed immediately after ("the parameters can be discarded once they
have been used", Section 7.2.2). The same gather happens again for the
unit's backward (and covers checkpoint recomputation), and unit gradients
are reduced straight to their owners.

Communication per step: Psi (forward gathers) + Psi (backward gathers) +
Psi (gradient reduce-to-owner) = 3 Psi, the paper's 1.5x bound. There is
no end-of-step all-gather: updating the local shard suffices because the
next iteration re-gathers on demand.

This stage is the part the paper analyzed but deferred implementing
("We plan to ... extend it further to support 1 trillion parameters by
enabling ZeRO-DP stage 3"); here it is implemented and validated against
DDP numerics like the other stages.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.comm.group import ProcessGroup
from repro.infinity.tiling import plan_unit_tiles
from repro.memprof.provenance import category as memprof_category
from repro.nn.module import Module, Parameter
from repro.nn.transformer import GPT2Model
from repro.optim.flat import ParamSlot
from repro.parallel.engine import EngineConfig
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor
from repro.zero.stage12 import _ZeroDPBase


class ZeroStage3Engine(_ZeroDPBase):
    """Pos+g+p: partitioned optimizer state, gradients, and parameters.

    The optimizer/gradient/parameter shards, the reduce-to-owner and the
    optimizer step are the partitioned base's; this class adds what
    parameter partitioning adds — per-unit gathers and their release.
    With no replicated fp16 copy there is nothing for the cross-rank
    integrity audit to compare (the digest guard covers the
    ``param_shard`` instead; scalar state is still audited).
    """

    name = "zero3"
    stage = 3

    def __init__(
        self,
        ctx: RankContext,
        model: GPT2Model,
        dp_group: ProcessGroup,
        config: EngineConfig | None = None,
    ):
        super().__init__(ctx, model, dp_group, config)
        # ZeRO-Infinity: the fp16 parameter shard itself sits on a lower
        # tier and is paged in per unit gather.
        self._page_params = self.placement["param"].tier != "device"

        # Unit index: each unit's params occupy a contiguous flat range
        # [lo, hi), in ascending layout order (``_materialize`` reads each
        # owner's pieces as one run on that basis); kept with the
        # parameters and their slots.
        self._units: dict[str, tuple[int, int, list[Parameter], list[ParamSlot]]] = {}
        for unit in model.units():
            params = unit.parameters()
            slots = [self.layout.slot(p.name) for p in params]
            if any(a.end != b.offset for a, b in zip(slots, slots[1:])):
                raise ValueError(
                    f"unit {unit.name} parameters are not contiguous and ascending in the layout"
                )
            self._units[unit.name] = (slots[0].offset, slots[-1].end, params, slots)

        # Release the full parameters: from now on they exist per-unit only.
        for p in self.layout.parameters:
            p.data.free_if_alive()
        self._materialized: set[str] = set()
        # The engine holds the model; the model must not hold the engine
        # back, or neither is freed without a gc pass.
        model.unit_listener = weakref.proxy(self)

    # -- UnitListener ------------------------------------------------------------

    def before_unit(self, unit: Module) -> None:
        self._materialize(unit)

    def after_unit(self, unit: Module) -> None:
        if self.phase == "backward":
            self._reduce_unit_grads(unit)
        self._dematerialize(unit)

    # -- parameter materialization --------------------------------------------------

    def _materialize(self, unit: Module) -> None:
        """All-gather (as per-owner broadcasts) this unit's parameters."""
        if unit.name in self._materialized:
            return
        if self.tracer is not None:
            self.tracer.begin("param-allgather", unit=unit.name)
        ulo, uhi, params, slots = self._units[unit.name]
        # Who owns which run of the unit; a plain meta gather needs none of it.
        gather = (
            self._segments.plan(params) if self._page_params or not self.is_meta else None
        )
        dtype = np.dtype(self.model.dtype)
        itemsize = dtype.itemsize
        tiled = False
        if self._page_params:
            # This rank pages its own shard piece in from the parameter
            # tier before contributing it to the gather; the infinity
            # engine charges that movement (tile by tile) to the timeline.
            inf_cfg = self.config.infinity
            plan = plan_unit_tiles(uhi - ulo, itemsize, inf_cfg.tile_bytes)
            tiled = plan.is_tiled
            self.offload.note_gather(
                0 if gather.mine is None else gather.nbytes[gather.mine],
                mode="backward" if self.phase == "backward" else "forward",
                tiles=plan.n_tiles,
            )
            if tiled:
                # Memory-centric tiling: device residency during this
                # gather is bounded to one staged tile at a time; the
                # unit's parameters attach unaccounted below (they are
                # never co-resident), like defer_param_allocation.
                for tlo, thi in plan.ranges():
                    with memprof_category("param_fp16", site="infinity-tile"):
                        stage = Tensor(
                            (thi - tlo,), dtype, data=None,
                            device=self.ctx.device, tag="infinity-tile",
                        )
                    stage.free()
        if self.is_meta:
            self.dp_group.meta_collective(
                self.ctx.rank, "broadcast", (uhi - ulo) * itemsize, "param-gather"
            )
            full = None
        else:
            # One logical broadcast per owner, one rendezvous for the unit.
            # A unit's parameters are contiguous in the layout (checked in
            # __init__), so an owner's pieces are one run from its first.
            # Each byte is copied once: from the owner's shard (a view of
            # it is the deposit) into the unit buffer the parameters view.
            payloads: list[np.ndarray | None] = [None] * len(gather.segments)
            if gather.mine is not None:
                seg = gather.segments[gather.mine]
                lo = seg.pieces[0][0] - self.part_lo
                payloads[gather.mine] = self.param_shard.data[lo : lo + seg.numel]
            pieces = self.dp_group.coalesced(
                self.ctx.rank, "broadcast", gather.roots, payloads, gather.nbytes,
                phase="param-gather",
            )
            full = np.empty(uhi - ulo, dtype)
            for seg, piece in zip(gather.segments, pieces):
                lo = seg.pieces[0][0] - ulo
                full[lo : lo + seg.numel] = piece
        for p, slot in zip(params, slots):
            data = None
            if full is not None:
                data = full[slot.offset - ulo : slot.end - ulo].reshape(slot.shape)
            with memprof_category("param_fp16", site="zero3-materialize"):
                p.data = Tensor(
                    slot.shape, dtype, data=data,
                    device=None if tiled else self.ctx.device, tag=p.name,
                )
        self._materialized.add(unit.name)
        if self.tracer is not None:
            self.tracer.end()

    def _dematerialize(self, unit: Module) -> None:
        if unit.name not in self._materialized:
            return
        for p in unit.named_parameters():
            p.data.free_if_alive()
        self._materialized.discard(unit.name)

    # -- gradient reduction -------------------------------------------------------

    def _reduce_unit_grads(self, unit: Module) -> None:
        """Reduce this unit's gradients to their owners, free the full grads."""
        if self.tracer is not None:
            self.tracer.begin("grad-reduce", unit=unit.name)
        try:
            self._flush_bucket([p for p in unit.named_parameters() if p.grad is not None])
        finally:
            if self.tracer is not None:
                self.tracer.end()

    def _reduce_gradients(self) -> None:
        # Reduction happened per unit during backward; nothing left to do.
        return

    # -- optimizer ------------------------------------------------------------------

    def _publish_params(self, my_shard16: np.ndarray | None) -> None:
        """Refresh the fp16 shard; no all-gather — the next step re-gathers
        lazily, unit by unit."""
        if my_shard16 is not None:
            self.param_shard.data = my_shard16
