"""Activation checkpointing (Chen et al. [7], paper Section 3.2 / 6.1).

With checkpointing enabled, a transformer block's internal activations are
freed right after its forward pass; only the block's *input* is retained
("we checkpoint the input activation for each transformer block", Section
8) and the internals are recomputed during backward.

What happens to the retained input is a pluggable store — the hook
ZeRO-R's Pa / Pa+cpu use:

* ``KeepStore``       — keep the full tensor on-device (plain checkpointing);
* ``PartitionedStore``   (repro.zero.activation) — shard it across the MP
  group, all-gather on retrieval (Pa);
* ``PartitionedCPUStore`` (repro.zero.activation) — shard *and* offload the
  shard to host memory (Pa+cpu).

Each store has the interface ``KeepStore`` documents.
"""

from __future__ import annotations

from repro.tensor.tensor import Tensor


class KeepStore:
    """Plain activation checkpointing: the input stays put on-device.

    The interface every store has: ``stash(x)`` takes ownership of ``x``
    (the store keeps or frees it) and returns an opaque handle;
    ``retrieve(handle)`` returns the full tensor for recomputation;
    ``discard(handle)`` drops a stashed activation after its backward use.
    ``returns_fresh_tensor`` says whether ``retrieve`` returns a fresh
    reconstruction the caller must free after use (the Pa stores) or the
    *same* live tensor that was stashed (here) — the case in which
    ``GPT2Model`` re-issues a block's recompute from its forward's tape
    (``repro.nn.tape.ForwardTape``).
    """

    returns_fresh_tensor = False

    def stash(self, x: Tensor) -> Tensor:
        return x

    def retrieve(self, handle: Tensor) -> Tensor:
        return handle

    def discard(self, handle: Tensor) -> None:
        handle.free_if_alive()
