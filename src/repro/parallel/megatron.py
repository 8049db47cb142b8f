"""Megatron-LM-style tensor model parallelism (Shoeybi et al. [3]).

The paper's MP baseline and the substrate ZeRO-R's Pa analysis is written
against (Section 8): each transformer block performs two all-reduces in
forward and two in backward (plus two more when recomputing under
activation checkpointing), each of size batch x seq x hidden.

* ``ColumnParallelLinear`` — weight rows (output features) split across the
  MP group; forward needs no communication, backward all-reduces dx (the
  "f" operator).
* ``RowParallelLinear`` — weight columns (input features) split; forward
  all-reduces the partial outputs (the "g" operator), backward needs none.
* ``ParallelMultiHeadAttention`` — attention heads split; QKV is column-
  parallel, the output projection row-parallel.
* ``ParallelMLP`` — fc1 column-parallel, fc2 row-parallel.
* ``ParallelGPT2Model`` — GPT2Model with parallel blocks; embeddings, layer
  norms and the LM head are replicated (grads for replicated parameters are
  identical across MP ranks by construction).

Initialization draws the *full* weight from the shared rng and slices the
local shard, so an MP model is numerically identical to its serial
counterpart — the property the MP-vs-serial equivalence tests check.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.memsim.device import Device
from repro.nn.layers import make_param
from repro.nn.module import Cache, ExecutionContext, Module, Parameter
from repro.nn.tape import BlockTape
from repro.nn.transformer import EmbeddingUnit, GPT2Model, GPTConfig, HeadUnit, MLP, TransformerBlock
from repro.nn.attention import MultiHeadAttention
from repro.runtime import RankContext
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


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
    return Parameter(name, tensor, grad_dtype=dtype)


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


class ParallelMultiHeadAttention(MultiHeadAttention):
    """Attention with heads split across the MP group.

    Reuses the serial forward/backward: after construction, ``n_heads`` and
    ``hidden`` describe the *local* slice (the input keeps the full hidden;
    the merged heads are ``n_heads * head_dim`` wide), and qkv/proj are the
    parallel linears (QKV rows are picked per-head so local heads are
    contiguous).
    """

    def __init__(
        self,
        name: str,
        hidden: int,
        n_heads: int,
        mp_group: ProcessGroup,
        rank: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        n = mp_group.size
        if n_heads % n or hidden % n_heads:
            raise ValueError(
                f"{name}: heads {n_heads} must divide by MP {n} and hidden {hidden} by heads"
            )
        Module.__init__(self, name)  # bypass serial __init__; build shards
        head_dim = hidden // n_heads
        heads_local = n_heads // n
        idx = mp_group.group_index(rank)
        my_heads = np.arange(idx * heads_local, (idx + 1) * heads_local)
        # Serial qkv weight rows are laid out (3, n_heads, head_dim); pick
        # this rank's heads within each of q, k, v.
        per_head = np.arange(head_dim)
        rows = []
        for comp in range(3):
            for h in my_heads:
                rows.append(comp * hidden + h * head_dim + per_head)
        row_indices = np.concatenate(rows)
        self.hidden = hidden // n  # local hidden slice
        self.n_heads = heads_local
        self.head_dim = head_dim
        self.qkv = self.register_module(
            ColumnParallelLinear(
                f"{name}.qkv", hidden, 3 * hidden, mp_group, rank,
                dtype=dtype, device=device, rng=rng, init_std=init_std,
                meta=meta, row_indices=row_indices,
            )
        )
        self.proj = self.register_module(
            RowParallelLinear(
                f"{name}.proj", hidden, hidden, mp_group, rank,
                dtype=dtype, device=device, rng=rng, init_std=init_std, meta=meta,
                col_indices=np.concatenate(
                    [h * head_dim + per_head for h in my_heads]
                ),
            )
        )


class ParallelMLP(MLP):
    """fc1 column-parallel, fc2 row-parallel (the Megatron MLP split)."""

    def __init__(
        self,
        name: str,
        hidden: int,
        mp_group: ProcessGroup,
        rank: int,
        *,
        expansion: int = 4,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        Module.__init__(self, name)
        inner = expansion * hidden
        self.fc1 = self.register_module(
            ColumnParallelLinear(f"{name}.fc1", hidden, inner, mp_group, rank,
                                 dtype=dtype, device=device, rng=rng,
                                 init_std=init_std, meta=meta)
        )
        self.fc2 = self.register_module(
            RowParallelLinear(f"{name}.fc2", inner, hidden, mp_group, rank,
                              dtype=dtype, device=device, rng=rng,
                              init_std=init_std, meta=meta)
        )


class ParallelTransformerBlock(TransformerBlock):
    """Pre-norm block with parallel attention and MLP; LNs replicated."""

    def __init__(
        self,
        name: str,
        hidden: int,
        n_heads: int,
        mp_group: ProcessGroup,
        rank: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        from repro.nn.layers import LayerNorm

        Module.__init__(self, name)
        self.hidden = hidden
        self.ln1 = self.register_module(
            LayerNorm(f"{name}.ln1", hidden, dtype=dtype, device=device, meta=meta)
        )
        self.attn = self.register_module(
            ParallelMultiHeadAttention(
                f"{name}.attn", hidden, n_heads, mp_group, rank,
                dtype=dtype, device=device, rng=rng, init_std=init_std, meta=meta,
            )
        )
        self.ln2 = self.register_module(
            LayerNorm(f"{name}.ln2", hidden, dtype=dtype, device=device, meta=meta)
        )
        self.mlp = self.register_module(
            ParallelMLP(f"{name}.mlp", hidden, mp_group, rank, dtype=dtype,
                        device=device, rng=rng, init_std=init_std, meta=meta)
        )


class ParallelHeadUnit(HeadUnit):
    """Final LN (replicated) + vocabulary-sharded LM head.

    The vocabulary is padded up to a multiple of the MP degree (Megatron's
    ``make_vocab_size_divisible_by``); each rank projects to its V/Nm
    slice and the loss is computed vocab-parallel, so the (B,S,V) logits
    never materialize in full — essential for the paper's mp=16, V=50K
    models to fit.
    """

    def __init__(
        self,
        name: str,
        hidden: int,
        vocab_size: int,
        mp_group: ProcessGroup,
        rank: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        from repro.nn.layers import LayerNorm

        Module.__init__(self, name)
        n = mp_group.size
        self.padded_vocab = -(-vocab_size // n) * n
        self.ln_f = self.register_module(
            LayerNorm(f"{name}.ln_f", hidden, dtype=dtype, device=device, meta=meta)
        )
        self.lm_head = self.register_module(
            ColumnParallelLinear(
                f"{name}.lm_head", hidden, self.padded_vocab, mp_group, rank,
                bias=False, dtype=dtype, device=device, rng=rng,
                init_std=init_std, meta=meta,
            )
        )


class ParallelGPT2Model(GPT2Model):
    """GPT-2 with Megatron tensor-parallel blocks.

    Embeddings are replicated across the MP group; the LM head is
    vocabulary-sharded with a vocab-parallel loss (see ParallelHeadUnit).
    Sharding the input embedding too (as Megatron proper does) would save
    another V x h x 2 bytes per rank; we keep it replicated and account it
    (see DESIGN.md substitutions).
    """

    def __init__(
        self,
        config: GPTConfig,
        mp_group: ProcessGroup,
        rank: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        meta: bool = False,
        name: str = "gpt2",
        checkpoint_activations: bool = False,
        activation_store: "object | None" = None,
    ):
        Module.__init__(self, name)
        self.config = config
        self.dtype = np.dtype(dtype)
        self.mp_group = mp_group
        with memprof_category("param_fp16", site=f"{name}.emb"):
            self.embedding = self.register_module(
                EmbeddingUnit(f"{name}.emb", config.vocab_size, config.max_seq_len,
                              config.hidden, dtype=dtype, device=device, rng=rng,
                              init_std=config.init_std, meta=meta)
            )
        self.blocks = []
        for i in range(config.n_layers):
            with memprof_category("param_fp16", site=f"{name}.h{i}"):
                self.blocks.append(
                    self.register_module(
                        ParallelTransformerBlock(
                            f"{name}.h{i}", config.hidden, config.n_heads,
                            mp_group, rank, dtype=dtype, device=device, rng=rng,
                            init_std=config.init_std, meta=meta,
                        )
                    )
                )
        with memprof_category("param_fp16", site=f"{name}.head"):
            self.head = self.register_module(
                ParallelHeadUnit(f"{name}.head", config.hidden, config.vocab_size,
                                 mp_group, rank, dtype=dtype, device=device, rng=rng,
                                 init_std=config.init_std, meta=meta)
            )
        self.checkpoint_activations = checkpoint_activations
        if activation_store is None:
            from repro.nn.checkpoint import KeepStore

            activation_store = KeepStore()
        self.activation_store = activation_store
        from repro.nn.transformer import _NullListener

        self.unit_listener = _NullListener()
        self._forward_tape, self._backward_tape = BlockTape(), BlockTape()
        self._rank = rank

    def make_loss_head(self):
        """Vocab-parallel cross entropy matching the sharded LM head."""
        from repro.nn.loss import VocabParallelCausalLMLoss

        return VocabParallelCausalLMLoss(self.mp_group, self._rank)
