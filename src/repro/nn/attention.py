"""Multi-head causal self-attention with manual backward (GPT-2 style)."""

from __future__ import annotations

import math

import numpy as np

from repro.memsim.device import Device
from repro.nn.layers import Linear
from repro.nn.module import Cache, ExecutionContext, Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

# Permutation (B,S,3,nh,hd) -> (3,B,nh,S,hd) and its inverse. Every
# transpose below is a view on the device (GEMMs take transpose flags) and a
# copy on the host, where a strided matmul operand would move results by
# ULPs (``F.transpose``).
_QKV_PERM = (2, 0, 3, 1, 4)
_QKV_PERM_INV = (1, 3, 0, 2, 4)


class MultiHeadAttention(Module):
    """Fused-QKV attention: qkv projection, scaled dot product, causal mask,
    softmax, value aggregation, output projection."""

    def __init__(
        self,
        name: str,
        hidden: int,
        n_heads: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        super().__init__(name)
        if hidden % n_heads:
            raise ValueError(f"hidden {hidden} not divisible by n_heads {n_heads}")
        self.hidden = hidden
        self.n_heads = n_heads
        self.head_dim = hidden // n_heads
        self.qkv = self.register_module(
            Linear(
                f"{name}.qkv", hidden, 3 * hidden,
                dtype=dtype, device=device, rng=rng, init_std=init_std, meta=meta,
            )
        )
        self.proj = self.register_module(
            Linear(
                f"{name}.proj", hidden, hidden,
                dtype=dtype, device=device, rng=rng, init_std=init_std, meta=meta,
            )
        )

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        b, s, h = x.shape
        nh, hd = self.n_heads, self.head_dim
        qkv, c_qkv = self.qkv.forward(x, ctx)  # (B,S,3H)
        qkv5 = F.reshape(qkv, (b, s, 3, nh, hd))
        qkvt = F.transpose(qkv5, _QKV_PERM)  # (3,B,nh,S,hd) device view
        q = F.index_axis0(qkvt, 0, tag=f"{self.name}.q")
        k = F.index_axis0(qkvt, 1, tag=f"{self.name}.k")
        v = F.index_axis0(qkvt, 2, tag=f"{self.name}.v")
        qkv.free()  # heads are materialized; the fused buffer is dead
        kt = F.transpose(k, (0, 1, 3, 2))  # device view
        scores = F.matmul(q, kt, tag=f"{self.name}.scores")  # (B,nh,S,S)
        scaled = F.scale(scores, 1.0 / math.sqrt(hd), tag=f"{self.name}.scaled")
        scores.free()
        masked = F.causal_mask_fill(scaled, tag=f"{self.name}.masked")
        scaled.free()
        attn = F.softmax(masked, tag=f"{self.name}.attn")
        masked.free()
        ctxv = F.matmul(attn, v, tag=f"{self.name}.ctx")  # (B,nh,S,hd)
        merged = F.reshape(
            F.transpose(ctxv, (0, 2, 1, 3)), (b, s, h), tag=f"{self.name}.merged"
        )  # device view
        y, c_proj = self.proj.forward(merged, ctx)
        cache = Cache()
        cache.own(q=q, k=k, v=v, attn=attn, ctxv=ctxv)
        cache.ref(shape=(b, s, h))
        cache.child("qkv", c_qkv)
        cache.child("proj", c_proj)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        b, s, h = cache["shape"]
        nh, hd = self.n_heads, self.head_dim
        q, k, v, attn = cache["q"], cache["k"], cache["v"], cache["attn"]
        dmerged = self.proj.backward(cache.children["proj"], dout)  # (B,S,H)
        dctxv = F.transpose(
            F.reshape(dmerged, (b, s, nh, hd)), (0, 2, 1, 3)
        )  # (B,nh,S,hd) device view
        vt = F.transpose(v, (0, 1, 3, 2))  # device view
        dattn = F.matmul(dctxv, vt, tag=f"{self.name}.dattn")  # (B,nh,S,S)
        attnt = F.transpose(attn, (0, 1, 3, 2))  # device view
        dv = F.matmul(attnt, dctxv, tag=f"{self.name}.dv")
        dmerged.free()
        dmasked = F.softmax_grad(attn, dattn, tag=f"{self.name}.dmasked")
        dattn.free()
        dzeroed = F.causal_mask_zero_grad(dmasked, tag=f"{self.name}.dzeroed")
        dmasked.free()
        dscores = F.scale(dzeroed, 1.0 / math.sqrt(hd), tag=f"{self.name}.dscores")
        dzeroed.free()
        dq = F.matmul(dscores, k, tag=f"{self.name}.dq")
        dscores_t = F.transpose(dscores, (0, 1, 3, 2))  # device view
        dk = F.matmul(dscores_t, q, tag=f"{self.name}.dk")
        dscores.free()
        dqkv_stack = F.stack_axis0([dq, dk, dv], tag=f"{self.name}.dqkv")  # (3,B,nh,S,hd)
        dq.free()
        dk.free()
        dv.free()
        dqkv = F.reshape(
            F.transpose(dqkv_stack, _QKV_PERM_INV), (b, s, 3 * h), tag=f"{self.name}.dqkv3h"
        )  # device view
        dx = self.qkv.backward(cache.children["qkv"], dqkv)
        dqkv_stack.free()
        return dx
