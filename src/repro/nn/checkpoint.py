"""Activation checkpointing (Chen et al. [7], paper Section 3.2 / 6.1).

With checkpointing enabled, a transformer block's internal activations are
freed right after its forward pass; only the block's *input* is retained
("we checkpoint the input activation for each transformer block", Section
8) and the internals are recomputed during backward.

What happens to the retained input is a pluggable ``ActivationStore``
policy — the hook ZeRO-R's Pa / Pa+cpu use:

* ``KeepStore``       — keep the full tensor on-device (plain checkpointing);
* ``PartitionedStore``   (repro.zero.activation) — shard it across the MP
  group, all-gather on retrieval (Pa);
* ``PartitionedCPUStore`` (repro.zero.activation) — shard *and* offload the
  shard to host memory (Pa+cpu).

``stash`` consumes the tensor (the store owns or frees it); ``retrieve``
returns the full tensor for recomputation. ``returns_fresh_tensor`` says
whether that is a fresh reconstruction the caller must free after use
(the Pa stores) or the *same* live tensor that was stashed (KeepStore) —
the case in which ``GPT2Model`` re-issues a block's recompute from its
forward's tape (``repro.nn.tape.ForwardTape``).
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.tensor.tensor import Tensor


class ActivationStore(Protocol):
    """Policy for holding checkpointed activations between fwd and bwd."""

    def stash(self, x: Tensor) -> Any:
        """Take ownership of ``x``; return an opaque handle."""
        ...

    def retrieve(self, handle: Any) -> Tensor:
        """Materialize the full activation for recomputation."""
        ...

    def discard(self, handle: Any) -> None:
        """Drop a stashed activation (after its backward use)."""
        ...

    @property
    def returns_fresh_tensor(self) -> bool:
        """True if retrieve() allocates a new tensor the caller must free."""
        ...


class KeepStore:
    """Plain activation checkpointing: the input stays put on-device."""

    returns_fresh_tensor = False

    def stash(self, x: Tensor) -> Tensor:
        return x

    def retrieve(self, handle: Tensor) -> Tensor:
        return handle

    def discard(self, handle: Tensor) -> None:
        handle.free_if_alive()
