"""ZeRO-R Pa / Pa+cpu: partitioned activation checkpointing (Section 6.1).

Megatron-style model parallelism replicates every activation across the MP
group (each rank needs the full input to compute its slice). Pa removes
that redundancy for the *checkpointed* activations: after a block's
forward, its input checkpoint is split 1/Nm per MP rank; an all-gather
re-materializes it just before the block's backward recomputation. The
activation-checkpoint footprint drops by the MP degree.

Pa+cpu additionally parks the shard in host memory, cutting the on-device
activation footprint to ~zero at the cost of a d2h + h2d transfer per
checkpoint (Section 8's 2x CPU data movement).

This is the ``activation`` row of ``repro.zero.placement``: partitioned
over the MP group, on the tier the row names. Like every other state class
the shard is a ``Tensor`` on that tier's pool (``ctx.device`` or
``ctx.host``); an off-device shard is sliced on the device, copied down
(``d2h`` "activation-offload") and copied back up (``h2d``
"activation-fetch") to be gathered.

These classes have the store interface that ``nn.checkpoint.KeepStore``
documents, consumed by ``GPT2Model(checkpoint_activations=True,
activation_store=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.memsim.device import Device, HostMemory
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor, dtype_size


@dataclass
class _PaHandle:
    shard: Tensor  # this rank's 1/Nm slice, on the store's pool
    shape: tuple[int, ...]
    dtype: np.dtype
    padded: int


class PartitionedStore:
    """Pa: keep 1/Nm of each checkpoint on-device, all-gather on retrieval."""

    returns_fresh_tensor = True
    #: the activation row's tier: where a shard waits between the passes
    tier = "device"

    def __init__(self, mp_group: ProcessGroup, ctx: RankContext):
        self.group = mp_group
        self.ctx = ctx
        self.rank = ctx.rank
        self.device: Device = ctx.device
        self.pool: Device | HostMemory = ctx.device if self.tier == "device" else ctx.host
        mp_group.attach_ledger(ctx.rank, ctx.ledger)

    def _shard_bounds(self, padded: int) -> tuple[int, int]:
        shard = padded // self.group.size
        idx = self.group.group_index(self.rank)
        return idx * shard, (idx + 1) * shard

    def _copy(self, shard: Tensor, pool, op: str, phase: str, tag: str) -> Tensor:
        """``shard`` copied over PCIe onto ``pool``, ledgered as ``op``."""
        self.ctx.ledger.record(op, shard.nbytes, (self.rank,), phase)
        with memprof_category("activation_ckpt", site=tag):
            return Tensor(shard.shape, shard.dtype, data=shard.data, device=pool, tag=tag)

    def stash(self, x: Tensor):
        n = self.group.size
        padded = -(-x.size // n) * n
        lo, hi = self._shard_bounds(padded)
        with memprof_category("activation_ckpt", site="pa-shard"):
            if x.is_meta:
                shard = Tensor(
                    (hi - lo,), x.dtype, data=None, device=self.device, tag="pa-shard"
                )
            else:
                flat = np.zeros(padded, x.dtype)
                flat[: x.size] = x.data.reshape(-1)
                shard = Tensor(
                    (hi - lo,), x.dtype, data=flat[lo:hi].copy(),
                    device=self.device, tag="pa-shard",
                )
        handle = _PaHandle(shard=shard, shape=x.shape, dtype=x.dtype, padded=padded)
        x.free()  # the replicated copy dies here — that's the memory saving
        if self.pool is not self.device:
            handle.shard = self._copy(
                shard, self.pool, "d2h", "activation-offload", "pa-cpu-shard"
            )
            shard.free()
        return handle

    def retrieve(self, handle: _PaHandle) -> Tensor:
        shard = handle.shard
        if self.pool is not self.device:  # staged on the device for the gather
            shard = self._copy(shard, self.device, "h2d", "activation-fetch", "pa-shard")
        try:
            if shard.is_meta:
                self.group.meta_collective(
                    self.rank, "all_gather",
                    handle.padded * dtype_size(handle.dtype), "activation-gather",
                )
                data = None
            else:
                full = self.group.all_gather(self.rank, shard.data, phase="activation-gather")
                data = full[: int(np.prod(handle.shape))].reshape(handle.shape)
            with memprof_category("activation_ckpt", site="pa-full"):
                return Tensor(
                    handle.shape, handle.dtype, data=data, device=self.device, tag="pa-full"
                )
        finally:
            if shard is not handle.shard:
                shard.free()

    def discard(self, handle: _PaHandle) -> None:
        handle.shard.free_if_alive()


class PartitionedCPUStore(PartitionedStore):
    """Pa+cpu: the same store with the 1/Nm shard on the host pool between
    passes."""

    tier = "host"
