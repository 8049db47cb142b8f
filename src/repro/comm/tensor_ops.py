"""The meta-aware flat-array collective of the training engines.

Engines communicate flattened parameter/gradient vectors. In real mode
the helper runs the actual collective; in meta mode (``is_meta=True``,
arrays are None) it synchronizes the SPMD schedule and records the
identical communication volume, so a 100B-parameter meta run produces the
same ledger a real run would.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.tensor.tensor import dtype_size


def all_gather_flat(
    group: ProcessGroup,
    rank: int,
    shard: np.ndarray | None,
    *,
    shard_numel: int,
    dtype,
    is_meta: bool,
) -> np.ndarray | None:
    """Own shard in, full concatenated vector out (phase
    ``param-allgather``)."""
    if is_meta:
        full_bytes = shard_numel * group.size * dtype_size(np.dtype(dtype))
        group.meta_collective(rank, "all_gather", full_bytes, "param-allgather")
        return None
    if shard is None or shard.shape != (shard_numel,):
        raise ValueError(f"all_gather_flat needs a ({shard_numel},) shard in real mode")
    return group.all_gather(rank, shard, phase="param-allgather")
