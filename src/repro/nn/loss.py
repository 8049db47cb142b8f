"""Causal language-modeling loss heads (token-level cross entropy).

``CausalLMLoss`` consumes full (B,S,V) logits. ``VocabParallelCausalLMLoss``
consumes vocabulary-sharded logits (B,S,V/Nm) from a column-parallel LM
head — the Megatron pattern that keeps the giant vocab logits partitioned:
softmax statistics (max, sum-exp) and the picked target logit are combined
with three small all-reduces instead of materializing full logits anywhere.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Cache
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class CausalLMLoss:
    """Mean next-token cross entropy over all positions.

    ``forward(logits, targets)`` flattens (B,S,V) logits against (B,S)
    targets. ``backward(loss_scale)`` returns dlogits multiplied by the
    loss scale (mixed-precision training scales the loss before backward
    so fp16 gradients do not underflow; the optimizer unscales).
    """

    def forward(self, logits: Tensor, targets: Tensor) -> tuple[Tensor, Cache]:
        b, s, v = logits.shape
        flat_logits = F.reshape(logits, (b * s, v), tag="loss.logits2d")  # view
        flat_targets = F.reshape(targets, (b * s,), tag="loss.targets")  # view
        loss, probs = F.cross_entropy(flat_logits, flat_targets)
        cache = Cache()
        cache.own(probs=probs)
        cache.ref(targets=flat_targets, logits_shape=logits.shape, dtype=logits.dtype)
        return loss, cache

    def backward(self, cache: Cache, loss_scale: float = 1.0) -> Tensor:
        probs: Tensor = cache["probs"]
        dflat = F.cross_entropy_grad(probs, cache["targets"], dtype=cache["dtype"])
        if loss_scale != 1.0:
            scaled = F.scale(dflat, loss_scale, tag="loss.dlogits")
            dflat.free()
            dflat = scaled
        return dflat.reshaped_inplace(cache["logits_shape"])


class VocabParallelCausalLMLoss:
    """Cross entropy over vocabulary-sharded logits (Megatron-style).

    Each MP rank holds logits for a contiguous vocab slice
    [idx*V/Nm, (idx+1)*V/Nm). Global softmax statistics come from three
    length-N all-reduces (max, sum-exp, picked-target logit), so the full
    vocabulary never materializes on any rank.
    """

    def __init__(self, mp_group, rank: int):
        self.group = mp_group
        self.rank = rank
        self.idx = mp_group.group_index(rank)

    def forward(self, logits: Tensor, targets: Tensor) -> tuple[Tensor, Cache]:
        b, s, v_local = logits.shape
        n = b * s
        cache = Cache()
        cache.ref(logits_shape=logits.shape, dtype=logits.dtype, n=n, v_local=v_local)
        if logits.is_meta:
            # Statistics traffic: 3 all-reduces of N fp32 values.
            for _ in range(3):
                self.group.meta_collective(self.rank, "all_reduce", n * 4, "loss-stats")
            loss = Tensor((), np.float32, data=None, device=logits.device, tag="loss")
            probs = Tensor((n, v_local), np.float32, data=None, device=logits.device,
                           tag="loss.probs")
            cache.own(probs=probs)
            cache.ref(targets=None)
            return loss, cache
        ct = np.promote_types(logits.dtype, np.float32)
        flat = logits.data.reshape(n, v_local).astype(ct)
        tgt = targets.data.reshape(n)
        vocab_lo = self.idx * v_local
        local_max = flat.max(axis=-1)
        global_max = self.group.all_reduce(self.rank, local_max, op="max", phase="loss-stats")
        shifted = flat - global_max[:, None]
        exp = np.exp(shifted)
        local_sum = exp.sum(axis=-1)
        global_sum = self.group.all_reduce(self.rank, local_sum, op="sum", phase="loss-stats")
        # Picked (shifted) logit for each target: owned by exactly one rank.
        mine = (tgt >= vocab_lo) & (tgt < vocab_lo + v_local)
        picked_local = np.zeros(n, dtype=ct)
        rows = np.nonzero(mine)[0]
        picked_local[rows] = shifted[rows, tgt[rows] - vocab_lo]
        picked = self.group.all_reduce(self.rank, picked_local, op="sum", phase="loss-stats")
        loss_val = np.asarray((np.log(global_sum) - picked).mean(), dtype=ct)
        probs = Tensor(
            (n, v_local), ct, data=exp / global_sum[:, None],
            device=logits.device, tag="loss.probs",
        )
        loss = Tensor((), ct, data=np.asarray(loss_val), device=None, tag="loss")
        cache.own(probs=probs)
        cache.ref(targets=tgt, vocab_lo=vocab_lo)
        return loss, cache

    def backward(self, cache: Cache, loss_scale: float = 1.0) -> Tensor:
        n, v_local = cache["n"], cache["v_local"]
        probs: Tensor = cache["probs"]
        dtype = cache["dtype"]
        if probs.is_meta:
            d = Tensor((n, v_local), dtype, data=None, device=probs.device, tag="loss.dlogits")
            return d.reshaped_inplace(cache["logits_shape"])
        grad = probs.data.copy()
        tgt = cache["targets"]
        vocab_lo = cache["vocab_lo"]
        mine = (tgt >= vocab_lo) & (tgt < vocab_lo + v_local)
        rows = np.nonzero(mine)[0]
        grad[rows, tgt[rows] - vocab_lo] -= 1.0
        grad *= loss_scale / n
        d = Tensor((n, v_local), np.dtype(dtype), data=grad.astype(dtype),
                   device=probs.device, tag="loss.dlogits")
        return d.reshaped_inplace(cache["logits_shape"])
