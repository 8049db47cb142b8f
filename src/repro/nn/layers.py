"""Basic layers: Linear, Embedding, LayerNorm (manual forward/backward),
and Linear's Megatron-LM tensor-parallel shards (Shoeybi et al. [3]).

The paper's MP baseline and the substrate ZeRO-R's Pa analysis is written
against (Section 8): each transformer block performs two all-reduces in
forward and two in backward (plus two more when recomputing under
activation checkpointing), each of size batch x seq x hidden.

* ``ColumnParallelLinear`` — weight rows (output features) split across the
  MP group; forward needs no communication, backward all-reduces dx (the
  "f" operator).
* ``RowParallelLinear`` — weight columns (input features) split; forward
  all-reduces the partial outputs (the "g" operator), backward needs none.

Initialization draws the *full* weight from the shared rng and slices the
local shard, so an MP model is numerically identical to its serial
counterpart — the property the MP-vs-serial equivalence tests check.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.memsim.device import Device
from repro.nn.module import Cache, ExecutionContext, Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

LN_EPS = 1e-5  # LayerNorm's variance epsilon


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
    return Parameter(name, tensor, grad_dtype=dtype)


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


def _mp_allreduce(group: ProcessGroup, rank: int, t: Tensor, phase: str) -> Tensor:
    """All-reduce a tensor across the MP group (meta-aware)."""
    if t.is_meta:
        group.meta_collective(rank, "all_reduce", t.nbytes, phase)
        return Tensor(t.shape, t.dtype, data=None, device=t.device, tag=t.tag)
    flat = group.all_reduce(rank, t.data.reshape(-1), op="sum", phase=phase)
    return Tensor(t.shape, t.dtype, data=flat.reshape(t.shape), device=t.device, tag=t.tag)


def _shard_param(
    name: str,
    full_shape: tuple[int, ...],
    take: "slice | np.ndarray",
    axis: int,
    *,
    dtype,
    device: Device | None,
    rng: np.random.Generator | None,
    init: str,
    std: float,
    meta: bool,
) -> Parameter:
    """Draw the full parameter from the rng, keep only this rank's slice.

    Drawing the full tensor on every rank keeps the rng stream identical to
    the serial model's, which is what makes MP == serial testable.
    """
    if meta:
        shard_shape = list(full_shape)
        if isinstance(take, slice):
            shard_shape[axis] = take.stop - take.start
        else:
            shard_shape[axis] = len(take)
        data = None
        shape = tuple(shard_shape)
    else:
        if init == "normal":
            full = (rng.standard_normal(full_shape) * std).astype(dtype)
        elif init == "zeros":
            full = np.zeros(full_shape, dtype=dtype)
        else:
            raise ValueError(f"unknown init {init!r}")
        data = np.ascontiguousarray(np.take(full, _as_indices(take, full_shape[axis]), axis=axis))
        shape = data.shape
    with memprof_category("param_fp16", site=name):
        tensor = Tensor(shape, np.dtype(dtype), data=data, device=device, tag=name)
    param = Parameter(name, tensor, grad_dtype=dtype)
    param.mp_sharded = True
    return param


def _as_indices(take: "slice | np.ndarray", dim: int) -> np.ndarray:
    if isinstance(take, slice):
        return np.arange(*take.indices(dim))
    return np.asarray(take)


class ColumnParallelLinear(Module):
    """y_local = x @ W_local^T + b_local; W rows split across the MP group."""

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        mp_group: ProcessGroup,
        rank: int,
        *,
        bias: bool = True,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
        row_indices: np.ndarray | None = None,
    ):
        super().__init__(name)
        self.group = mp_group
        self.rank = rank
        n = mp_group.size
        if out_features % n:
            raise ValueError(f"{name}: out_features {out_features} not divisible by MP {n}")
        self.in_features = in_features
        self.out_local = out_features // n
        idx = mp_group.group_index(rank)
        take = (
            row_indices
            if row_indices is not None
            else slice(idx * self.out_local, (idx + 1) * self.out_local)
        )
        self.weight = self.register_parameter(
            _shard_param(f"{name}.weight", (out_features, in_features), take, 0,
                         dtype=dtype, device=device, rng=rng, init="normal",
                         std=init_std, meta=meta)
        )
        self.bias: Parameter | None = None
        if bias:
            self.bias = self.register_parameter(
                _shard_param(f"{name}.bias", (out_features,), take, 0,
                             dtype=dtype, device=device, rng=rng, init="zeros",
                             std=init_std, meta=meta)
            )

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        x2d = F.reshape(x, (-1, self.in_features), tag=f"{self.name}.x2d")
        wt = F.transpose(self.weight.data, (1, 0))
        y2d = F.matmul(x2d, wt, tag=f"{self.name}.y")
        if self.bias is not None:
            yb = F.add(y2d, self.bias.data, tag=f"{self.name}.y")
            y2d.free()
            y2d = yb
        y = y2d.reshaped_inplace(x.shape[:-1] + (self.out_local,))
        cache = Cache()
        cache.ref(x2d=x2d, x_shape=x.shape)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        x2d: Tensor = cache["x2d"]
        dy2d = F.reshape(dout, (-1, self.out_local))
        dyt = F.transpose(dy2d, (1, 0))
        dw = F.matmul(dyt, x2d, tag=f"{self.name}.dW")
        self.weight.accumulate_grad(dw)
        if self.bias is not None:
            self.bias.accumulate_grad(F.sum_to(dy2d, (self.out_local,), tag=f"{self.name}.db"))
        dx2d = F.matmul(dy2d, self.weight.data, tag=f"{self.name}.dx")
        dx = dx2d.reshaped_inplace(cache["x_shape"])
        # "f" operator: identity in forward, all-reduce in backward.
        full = _mp_allreduce(self.group, self.rank, dx, f"{self.name}.dx-allreduce")
        dx.free()
        return full


class RowParallelLinear(Module):
    """y = all_reduce(x_local @ W_local^T) + b; W columns split."""

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        mp_group: ProcessGroup,
        rank: int,
        *,
        bias: bool = True,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
        col_indices: np.ndarray | None = None,
    ):
        super().__init__(name)
        self.group = mp_group
        self.rank = rank
        n = mp_group.size
        if in_features % n:
            raise ValueError(f"{name}: in_features {in_features} not divisible by MP {n}")
        self.in_local = in_features // n
        self.out_features = out_features
        idx = mp_group.group_index(rank)
        take = (
            col_indices
            if col_indices is not None
            else slice(idx * self.in_local, (idx + 1) * self.in_local)
        )
        self.weight = self.register_parameter(
            _shard_param(f"{name}.weight", (out_features, in_features), take, 1,
                         dtype=dtype, device=device, rng=rng, init="normal",
                         std=init_std, meta=meta)
        )
        self.bias: Parameter | None = None
        if bias:
            # Bias is applied after the all-reduce; replicate it whole.
            self.bias = self.register_parameter(
                make_param(f"{name}.bias", (out_features,), dtype=dtype,
                           device=device, init="zeros", meta=meta)
            )

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        x2d = F.reshape(x, (-1, self.in_local), tag=f"{self.name}.x2d")
        wt = F.transpose(self.weight.data, (1, 0))
        y2d = F.matmul(x2d, wt, tag=f"{self.name}.ypartial")
        y2d = y2d.reshaped_inplace(x.shape[:-1] + (self.out_features,))
        # "g" operator: all-reduce partial sums in forward.
        y = _mp_allreduce(self.group, self.rank, y2d, f"{self.name}.y-allreduce")
        y2d.free()
        if self.bias is not None:
            yb = F.add(y, self.bias.data, tag=f"{self.name}.y")
            y.free()
            y = yb
        cache = Cache()
        cache.ref(x2d=x2d, x_shape=x.shape)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        x2d: Tensor = cache["x2d"]
        dy2d = F.reshape(dout, (-1, self.out_features))
        if self.bias is not None:
            # Replicated bias: every MP rank sees the same full dy, so the
            # replicated grads stay consistent without communication.
            self.bias.accumulate_grad(F.sum_to(dy2d, (self.out_features,), tag=f"{self.name}.db"))
        dyt = F.transpose(dy2d, (1, 0))
        dw = F.matmul(dyt, x2d, tag=f"{self.name}.dW")
        self.weight.accumulate_grad(dw)
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


class LayerNorm(Module):
    """LayerNorm over the last axis with learnable gamma/beta."""

    def __init__(
        self,
        name: str,
        dim: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        meta: bool = False,
    ):
        super().__init__(name)
        self.dim = dim
        self.gamma = self.register_parameter(
            make_param(f"{name}.gamma", (dim,), dtype=dtype, device=device, init="ones", meta=meta)
        )
        self.beta = self.register_parameter(
            make_param(f"{name}.beta", (dim,), dtype=dtype, device=device, init="zeros", meta=meta)
        )

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        y, mean, rstd = F.layernorm(x, self.gamma.data, self.beta.data, LN_EPS, tag=f"{self.name}")
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
