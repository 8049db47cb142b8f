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

Construction is partitioned the same way (ZeRO-Infinity's partitioning
during initialization, arXiv:2104.07857 §7.2): the model arrives
uncharged, and the engine charges each unit in build order beside its
shards and releases it before the next, so the whole model is never
resident on the device.

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
from repro.infinity.tiling import TilePlan, plan_unit_tiles
from repro.memprof.provenance import category as memprof_category
from repro.nn.module import Module, Parameter
from repro.nn.transformer import GPT2Model
from repro.optim.flat import GradRecord, ParamSlot, SegmentPlan
from repro.parallel.engine import EngineConfig
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor
from repro.zero.config import ZeROConfig
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
        zero: ZeROConfig,
        config: EngineConfig | None = None,
    ):
        super().__init__(ctx, model, dp_group, zero, config)
        # ZeRO-Infinity: the fp16 parameter shard itself sits on a lower
        # tier and is paged in per unit gather.
        self._page_params = self.placement["param"].tier != "device"

        # Unit index: each unit's params occupy a contiguous flat range
        # [lo, hi), in ascending layout order (``_materialize`` reads each
        # owner's pieces as one run on that basis); kept with the
        # parameters, their slots, when paged the unit's tile plan, and the
        # gather's per-owner plan (None for a plain meta gather, which needs
        # none). Each unit's gradients are one record, in ``_unit_grads``.
        # The model arrives uncharged (``build_model_and_engine``): each
        # unit's construction is charged here, beside the shards, and
        # released before the next, so the whole model is never resident.
        self._units: dict[
            str, tuple[int, int, list[Parameter], list[ParamSlot], TilePlan | None,
                       SegmentPlan | None]
        ] = {}
        self._unit_grads: dict[str, GradRecord] = {}
        itemsize = np.dtype(model.dtype).itemsize
        for unit in model.units():
            params = unit.parameters()
            slots = [self.layout.slot(p.name) for p in params]
            if any(a.end != b.offset for a, b in zip(slots, slots[1:])):
                raise ValueError(
                    f"unit {unit.name} parameters are not contiguous and ascending in the layout"
                )
            if any(p.data.extent is not None for p in params):
                raise ValueError(
                    f"unit {unit.name} arrived charged; build the model with device=None"
                )
            lo, hi = slots[0].offset, slots[-1].end
            tiles = None
            if self._page_params:
                tiles = plan_unit_tiles(hi - lo, itemsize, zero.infinity.tile_bytes)
            plan = self._plan(params) if self._page_params or not self.is_meta else None
            self._units[unit.name] = (lo, hi, params, slots, tiles, plan)
            self._unit_grads[unit.name] = GradRecord(params)
            self._charge(unit.name, [p.data.data for p in params], model.name, model.name)
            for p in params:
                p.data.free()
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
        ulo, uhi, params, slots, tiles, gather = self._units[unit.name]
        dtype = np.dtype(self.model.dtype)
        if self._page_params:
            # This rank pages its own shard piece in from the parameter
            # tier before contributing it to the gather; the infinity
            # engine charges that movement (tile by tile) to the timeline.
            self.offload.note_gather(
                0 if gather.mine is None else gather.nbytes[gather.mine],
                mode="backward" if self.phase == "backward" else "forward",
                tiles=tiles.n_tiles,
            )
        if self.is_meta:
            self.dp_group.meta_collective(
                self.ctx.rank, "broadcast", (uhi - ulo) * dtype.itemsize, "param-gather"
            )
            values = [None] * len(slots)
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
                full[seg.lo : seg.hi] = piece
            values = [full[s.offset - ulo : s.end - ulo].reshape(s.shape) for s in slots]
        self._charge(unit.name, values, "zero3-materialize", "infinity-tile")
        self._materialized.add(unit.name)
        if self.tracer is not None:
            self.tracer.end()

    def _charge(self, name: str, values: list, site: str, tile_site: str) -> None:
        """Attach unit ``name``'s parameters with ``values`` (``None`` in
        meta mode), charged to the device at memprof ``site``. Under
        memory-centric tiling the device is charged one staged tile at a
        time instead (at ``tile_site``) and the parameters attach
        unaccounted: they are never co-resident."""
        _, _, params, slots, tiles, _ = self._units[name]
        dtype = self.model.dtype
        device = self.ctx.device
        if tiles is not None and tiles.is_tiled:
            for tlo, thi in tiles.ranges():
                with memprof_category("param_fp16", site=tile_site):
                    stage = Tensor((thi - tlo,), dtype, device=device, tag="infinity-tile")
                stage.free()
            device = None
        with memprof_category("param_fp16", site=site):
            for p, slot, data in zip(params, slots, values):
                p.data = Tensor(slot.shape, dtype, data=data, device=device, tag=p.name)

    def _dematerialize(self, unit: Module) -> None:
        if unit.name not in self._materialized:
            return
        for p in unit.named_parameters():
            p.data.free_if_alive()
        self._materialized.discard(unit.name)

    # -- gradient reduction -------------------------------------------------------

    def _reduce_unit_grads(self, unit: Module) -> None:
        """Reduce this unit's gradients to their owners, free the full
        grads. The unit's record holds the parameters that had a gradient
        at its last reduce; it is re-planned when that set changes."""
        if self.tracer is not None:
            self.tracer.begin("grad-reduce", unit=unit.name)
        try:
            grads = self._unit_grads[unit.name]
            held = [p for p in self._units[unit.name][2] if p.grad is not None]
            if held != grads.params:
                grads = self._unit_grads[unit.name] = GradRecord(held)
            self._flush_bucket(grads)
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
