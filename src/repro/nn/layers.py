"""Basic layers: Linear, Embedding, LayerNorm (manual forward/backward)."""

from __future__ import annotations

import numpy as np

from repro.memsim.device import Device
from repro.nn.module import Cache, ExecutionContext, Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def make_param(
    name: str,
    shape: tuple[int, ...],
    *,
    dtype=np.float16,
    device: Device | None = None,
    rng: np.random.Generator | None = None,
    init: str = "normal",
    std: float = 0.02,
    meta: bool = False,
    grad_dtype=None,
) -> Parameter:
    """Build a parameter; ``meta=True`` skips data but still reserves memory."""
    if meta:
        data = None
    elif init == "normal":
        if rng is None:
            raise ValueError(f"parameter {name}: normal init needs an rng")
        data = (rng.standard_normal(shape) * std).astype(dtype)
    elif init == "zeros":
        data = np.zeros(shape, dtype=dtype)
    elif init == "ones":
        data = np.ones(shape, dtype=dtype)
    else:
        raise ValueError(f"unknown init {init!r}")
    tensor = Tensor(shape, np.dtype(dtype), data=data, device=device, tag=name)
    # Gradients live in the parameter's own dtype (fp16 grads for fp16
    # params — the paper's 2-Psi gradient footprint).
    return Parameter(name, tensor, grad_dtype=dtype if grad_dtype is None else grad_dtype)


class Linear(Module):
    """y = x @ W^T + b with W stored (out_features, in_features)."""

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        super().__init__(name)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            make_param(
                f"{name}.weight", (out_features, in_features),
                dtype=dtype, device=device, rng=rng, std=init_std, meta=meta,
            )
        )
        self.bias: Parameter | None = None
        if bias:
            self.bias = self.register_parameter(
                make_param(
                    f"{name}.bias", (out_features,),
                    dtype=dtype, device=device, init="zeros", meta=meta,
                )
            )

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.name}: input last dim {x.shape[-1]} != in_features {self.in_features}"
            )
        x2d = F.reshape(x, (-1, self.in_features), tag=f"{self.name}.x2d")  # view of x
        # A view of W on the device; the host copies (``F.transpose``).
        wt = F.transpose(self.weight.data, (1, 0), tag=f"{self.name}.wT")
        y2d = F.matmul(x2d, wt, tag=f"{self.name}.y")
        if self.bias is not None:
            with_bias = F.add(y2d, self.bias.data, tag=f"{self.name}.y")
            y2d.free()
            y2d = with_bias
        y = y2d.reshaped_inplace(x.shape[:-1] + (self.out_features,))
        cache = Cache()
        cache.ref(x2d=x2d, x_shape=x.shape)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        x2d: Tensor = cache["x2d"]
        dy2d = F.reshape(dout, (-1, self.out_features), tag=f"{self.name}.dy2d")  # view
        # dW = dy^T @ x
        dyt = F.transpose(dy2d, (1, 0), tag=f"{self.name}.dyT")  # device view, host copy
        dw = F.matmul(dyt, x2d, tag=f"{self.name}.dW")
        self.weight.accumulate_grad(dw)
        if self.bias is not None:
            db = F.sum_to(dy2d, (self.out_features,), tag=f"{self.name}.db")
            self.bias.accumulate_grad(db)
        # dx = dy @ W
        dx2d = F.matmul(dy2d, self.weight.data, tag=f"{self.name}.dx")
        return dx2d.reshaped_inplace(cache["x_shape"])


class Embedding(Module):
    """Token (or position) embedding lookup."""

    def __init__(
        self,
        name: str,
        num_embeddings: int,
        embedding_dim: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        super().__init__(name)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = self.register_parameter(
            make_param(
                f"{name}.weight", (num_embeddings, embedding_dim),
                dtype=dtype, device=device, rng=rng, std=init_std, meta=meta,
            )
        )

    def forward(self, ids: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        y = F.embedding_lookup(self.weight.data, ids, tag=f"{self.name}.out")
        cache = Cache()
        cache.ref(ids=ids)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        dw = F.embedding_grad(self.weight.data, cache["ids"], dout, tag=f"{self.name}.dW")
        self.weight.accumulate_grad(dw)
        # Embedding inputs are integer ids: no gradient flows further back.
        ids: Tensor = cache["ids"]
        return Tensor(ids.shape, ids.dtype, data=None, device=None, tag=f"{self.name}.dids")

    def num_parameters(self) -> int:
        return self.weight.size


class LayerNorm(Module):
    """LayerNorm over the last axis with learnable gamma/beta."""

    def __init__(
        self,
        name: str,
        dim: int,
        *,
        eps: float = 1e-5,
        dtype=np.float16,
        device: Device | None = None,
        meta: bool = False,
    ):
        super().__init__(name)
        self.dim = dim
        self.eps = eps
        self.gamma = self.register_parameter(
            make_param(f"{name}.gamma", (dim,), dtype=dtype, device=device, init="ones", meta=meta)
        )
        self.beta = self.register_parameter(
            make_param(f"{name}.beta", (dim,), dtype=dtype, device=device, init="zeros", meta=meta)
        )

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        y, mean, rstd = F.layernorm(x, self.gamma.data, self.beta.data, self.eps, tag=f"{self.name}")
        cache = Cache()
        cache.ref(x=x)
        cache.own(mean=mean, rstd=rstd)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        dx, dgamma, dbeta = F.layernorm_grad(
            cache["x"], self.gamma.data, cache["mean"], cache["rstd"], dout,
            tag=f"{self.name}.grad",
        )
        self.gamma.accumulate_grad(dgamma)
        self.beta.accumulate_grad(dbeta)
        return dx
