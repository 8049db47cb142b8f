"""Build a model + engine from a ZeROConfig — the library's front door.

``build_model_and_engine`` assembles the full stack one rank sees:
optionally MP-parallel model, activation checkpointing with the configured
store (Pa / Pa+cpu), MD defrag region on the device, and the engine for
the configured ZeRO stage, which reads every ZeRO decision (tiers, CB, the
SDC audit) from the same ``ZeROConfig``. The paper's usability pitch
(Section 10.4) is that this is all a user does — no model surgery.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.nn.checkpoint import KeepStore
from repro.nn.transformer import GPT2Model, GPTConfig
from repro.parallel.ddp import DDPEngine
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.runtime import RankContext
from repro.zero.activation import PartitionedCPUStore, PartitionedStore
from repro.zero.config import ZeROConfig
from repro.zero.stage12 import ZeroStage1Engine, ZeroStage2Engine
from repro.zero.stage3 import ZeroStage3Engine

ENGINE_BY_STAGE = {
    0: DDPEngine,
    1: ZeroStage1Engine,
    2: ZeroStage2Engine,
    3: ZeroStage3Engine,
}
#: the partitioned-activation store for each tier of the ``activation`` row
PA_STORE_BY_TIER = {"device": PartitionedStore, "host": PartitionedCPUStore}


def build_model_and_engine(
    ctx: RankContext,
    model_config: GPTConfig,
    zero: ZeROConfig,
    *,
    dp_group: ProcessGroup,
    mp_group: ProcessGroup | None = None,
    pp_group: ProcessGroup | None = None,
    engine_config: EngineConfig | None = None,
    dtype=np.float16,
    seed: int = 0,
    meta: bool = False,
    md_region_bytes: int | None = None,
) -> tuple[GPT2Model, BaseEngine]:
    """One-call setup of the full per-rank training stack.

    Every rank must call this with identical arguments (SPMD): the shared
    ``seed`` makes all DP replicas initialize identically, exactly like
    broadcasting initial weights in real DDP.

    A partitioned ``param`` row builds the model uncharged: the stage-3
    engine charges it unit by unit beside its shards and releases each
    unit before the next (Section 5.3; ZeRO-Infinity's partitioning during
    initialization), so the whole model is never resident — which is what
    lets configurations like the 1T one fit. The other stages keep
    persistent full parameters and build them charged.

    ``pp_group`` makes the model one pipeline stage (``Mesh.pp_group``):
    it builds and charges only its own units, and the engine runs the
    GPipe schedule over ``gradient_accumulation_steps`` micro-batches.
    """
    placed = zero.placement
    activation = placed["activation"]
    if activation.partitioned and mp_group is None:
        raise ValueError("Pa requires an MP group (it partitions across MP ranks)")
    store = KeepStore()
    if activation.partitioned:
        store = PA_STORE_BY_TIER[activation.tier](mp_group, ctx)
    model = GPT2Model(
        model_config, mp_group=mp_group, pp_group=pp_group, rank=ctx.rank, dtype=dtype,
        device=None if placed["param"].partitioned else ctx.device,
        rng=np.random.default_rng(seed), meta=meta,
        checkpoint_activations=zero.checkpoint_activations,
        activation_store=store,
    )
    if zero.memory_defrag and md_region_bytes:
        ctx.device.enable_defrag(md_region_bytes, _md_tag_predicate)
    engine = ENGINE_BY_STAGE[zero.stage](ctx, model, dp_group, zero, engine_config)
    return model, engine


def _md_tag_predicate(tag: str) -> bool:
    """Long-lived per-iteration tensors: parameter gradients and stashed
    activation shards (Section 6.3's two fragmentation sources)."""
    return tag.endswith(".grad") or tag.startswith("pa-shard") or tag == "zero2-grad-shard"
