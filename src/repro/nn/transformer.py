"""Transformer MLP, pre-norm block, and GPT-2-like causal LM.

Architecture follows the paper's experimental models (Section 10.1,
appendix Tables 4-10): GPT-2-like blocks parameterized by (layers, hidden,
heads), trained with sequence length 1024 and vocab 50257 unless a config
overrides them. Parameters per block are approximately 12 x hidden^2, which
is how the paper's "layers x hidden" pairs map to its headline model sizes
(e.g. 48 x 1600^2 x 12 = 1.47B for the "1.5B" model).

The model is organized as a sequence of *units* — embedding unit, one unit
per transformer block, head unit — and invokes an optional ``UnitListener``
around each unit's forward/backward. That hook is how ZeRO stage 3
materializes a unit's partitioned parameters just-in-time and discards them
right after use (Section 5.3's "one layer at a time" schedule).

A pipeline stage (GPipe, Huang et al. [10], the paper's Section 2.1
comparator) is the same model holding a contiguous slice of those units
(``split_units``): its forward receives the previous stage's activation and
sends its own output on, its backward the reverse, as point-to-point
messages in phases ``pp-act`` / ``pp-grad``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.memsim.device import Device
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import (
    ColumnParallelLinear, Embedding, LayerNorm, Linear, RowParallelLinear,
)
from repro.nn.module import Cache, ExecutionContext, Module
from repro.nn.tape import BlockTape, ForwardTape
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class UnitListener(Protocol):
    """Hooks invoked around each unit's compute (ZeRO stage-3 integration)."""

    def before_unit(self, unit: Module) -> None: ...

    def after_unit(self, unit: Module) -> None: ...


class _NullListener:
    def before_unit(self, unit: Module) -> None:
        return

    def after_unit(self, unit: Module) -> None:
        return


def _recompute_backward(block: Module, x: Tensor, dh: Tensor, ctx: ExecutionContext):
    """A checkpointed block's backward: recompute the forward from the
    stashed input, then backward — one region of the meta block tape.
    Returns (dx, cache)."""
    y, c_blk = block.forward(x, ctx)
    y.free()
    return block.backward(c_blk, dh), c_blk


class MLP(Module):
    """fc1 -> GELU -> fc2 with the GPT-2 4x expansion; with an ``mp_group``,
    fc1 is column-parallel and fc2 row-parallel (the Megatron MLP split)."""

    def __init__(
        self,
        name: str,
        hidden: int,
        *,
        mp_group: ProcessGroup | None = None,
        rank: int = 0,
        expansion: int = 4,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        super().__init__(name)
        inner = expansion * hidden
        common = dict(dtype=dtype, device=device, rng=rng, init_std=init_std, meta=meta)
        if mp_group is None:
            fc1 = Linear(f"{name}.fc1", hidden, inner, **common)
            fc2 = Linear(f"{name}.fc2", inner, hidden, **common)
        else:
            fc1 = ColumnParallelLinear(f"{name}.fc1", hidden, inner, mp_group, rank, **common)
            fc2 = RowParallelLinear(f"{name}.fc2", inner, hidden, mp_group, rank, **common)
        self.fc1 = self.register_module(fc1)
        self.fc2 = self.register_module(fc2)

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        h1, c1 = self.fc1.forward(x, ctx)
        h2 = F.gelu(h1, tag=f"{self.name}.gelu")
        y, c2 = self.fc2.forward(h2, ctx)
        cache = Cache()
        cache.own(h1=h1, h2=h2)
        cache.child("fc1", c1)
        cache.child("fc2", c2)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        dh2 = self.fc2.backward(cache.children["fc2"], dout)
        dh1 = F.gelu_grad(cache["h1"], dh2, tag=f"{self.name}.dgelu")
        dh2.free()
        dx = self.fc1.backward(cache.children["fc1"], dh1)
        dh1.free()
        return dx


class TransformerBlock(Module):
    """Pre-norm block: x + attn(ln1(x)), then x + mlp(ln2(x)). With an
    ``mp_group`` the attention and MLP are split across it and the layer
    norms are replicated."""

    def __init__(
        self,
        name: str,
        hidden: int,
        n_heads: int,
        *,
        mp_group: ProcessGroup | None = None,
        rank: int = 0,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        super().__init__(name)
        self.hidden = hidden
        common = dict(mp_group=mp_group, rank=rank, dtype=dtype, device=device,
                      rng=rng, init_std=init_std, meta=meta)
        self.ln1 = self.register_module(
            LayerNorm(f"{name}.ln1", hidden, dtype=dtype, device=device, meta=meta)
        )
        self.attn = self.register_module(
            MultiHeadAttention(f"{name}.attn", hidden, n_heads, **common)
        )
        self.ln2 = self.register_module(
            LayerNorm(f"{name}.ln2", hidden, dtype=dtype, device=device, meta=meta)
        )
        self.mlp = self.register_module(MLP(f"{name}.mlp", hidden, **common))

    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        n1, c_ln1 = self.ln1.forward(x, ctx)
        a, c_attn = self.attn.forward(n1, ctx)
        r1 = F.add(x, a, tag=f"{self.name}.res1")
        a.free()
        n2, c_ln2 = self.ln2.forward(r1, ctx)
        m, c_mlp = self.mlp.forward(n2, ctx)
        y = F.add(r1, m, tag=f"{self.name}.res2")
        m.free()
        cache = Cache()
        cache.own(n1=n1, r1=r1, n2=n2)
        cache.ref(x=x)
        cache.child("ln1", c_ln1)
        cache.child("attn", c_attn)
        cache.child("ln2", c_ln2)
        cache.child("mlp", c_mlp)
        return y, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        dm = self.mlp.backward(cache.children["mlp"], dout)
        dn2 = self.ln2.backward(cache.children["ln2"], dm)
        dm.free()
        dr1 = F.add(dout, dn2, tag=f"{self.name}.dres1")  # residual fan-in
        dn2.free()
        da = self.attn.backward(cache.children["attn"], dr1)
        dn1 = self.ln1.backward(cache.children["ln1"], da)
        da.free()
        dx = F.add(dr1, dn1, tag=f"{self.name}.dx")
        dr1.free()
        dn1.free()
        return dx


class EmbeddingUnit(Module):
    """Token + position embeddings summed into the first hidden state."""

    def __init__(
        self,
        name: str,
        vocab_size: int,
        max_seq_len: int,
        hidden: int,
        *,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        super().__init__(name)
        self.wte = self.register_module(
            Embedding(f"{name}.wte", vocab_size, hidden, dtype=dtype,
                      device=device, rng=rng, init_std=init_std, meta=meta)
        )
        self.wpe = self.register_module(
            Embedding(f"{name}.wpe", max_seq_len, hidden, dtype=dtype,
                      device=device, rng=rng, init_std=init_std, meta=meta)
        )

    def forward(self, token_ids: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        b, s = token_ids.shape
        pos = Tensor(
            (s,), np.dtype(np.int64),
            data=None if token_ids.is_meta else np.arange(s, dtype=np.int64),
            device=None, tag="pos",
        )
        tok_emb, c_wte = self.wte.forward(token_ids, ctx)
        pos_emb, c_wpe = self.wpe.forward(pos, ctx)
        h = F.add(tok_emb, pos_emb, tag=f"{self.name}.out")  # (B,S,H) broadcast
        tok_emb.free()
        pos_emb.free()
        cache = Cache()
        cache.child("wte", c_wte)
        cache.child("wpe", c_wpe)
        return h, cache

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        self.wte.backward(cache.children["wte"], dout).free_if_alive()
        # Position-embedding grad: sum over the batch axis.
        dpos3 = F.sum_to(dout, (1, dout.shape[1], dout.shape[2]), tag=f"{self.name}.dpos3")
        dpos = F.reshape(dpos3, (dout.shape[1], dout.shape[2]), tag=f"{self.name}.dpos")
        self.wpe.backward(cache.children["wpe"], dpos).free_if_alive()
        dpos3.free()
        # No gradient flows to integer token ids; return dout for symmetry.
        return dout


class HeadUnit(Module):
    """Final LayerNorm + (untied) LM head projecting to the vocabulary.

    With an ``mp_group`` the LN is replicated and the LM head is
    vocabulary-sharded: the vocabulary is padded up to a multiple of the MP
    degree (Megatron's ``make_vocab_size_divisible_by``), each rank projects
    to its V/Nm slice and the loss is computed vocab-parallel, so the
    (B,S,V) logits never materialize in full — essential for the paper's
    mp=16, V=50K models to fit.
    """

    def __init__(
        self,
        name: str,
        hidden: int,
        vocab_size: int,
        *,
        mp_group: ProcessGroup | None = None,
        rank: int = 0,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.02,
        meta: bool = False,
    ):
        super().__init__(name)
        n = 1 if mp_group is None else mp_group.size
        self.padded_vocab = -(-vocab_size // n) * n
        self.ln_f = self.register_module(
            LayerNorm(f"{name}.ln_f", hidden, dtype=dtype, device=device, meta=meta)
        )
        common = dict(bias=False, dtype=dtype, device=device, rng=rng,
                      init_std=init_std, meta=meta)
        if mp_group is None:
            lm_head = Linear(f"{name}.lm_head", hidden, self.padded_vocab, **common)
        else:
            lm_head = ColumnParallelLinear(f"{name}.lm_head", hidden, self.padded_vocab,
                                           mp_group, rank, **common)
        self.lm_head = self.register_module(lm_head)

    def forward(self, h: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        hn, c_ln = self.ln_f.forward(h, ctx)
        logits, c_head = self.lm_head.forward(hn, ctx)
        cache = Cache()
        cache.own(hn=hn)
        cache.child("ln_f", c_ln)
        cache.child("lm_head", c_head)
        return logits, cache

    def backward(self, cache: Cache, dlogits: Tensor) -> Tensor:
        dhn = self.lm_head.backward(cache.children["lm_head"], dlogits)
        dh = self.ln_f.backward(cache.children["ln_f"], dhn)
        dhn.free()
        return dh


def split_units(n_units: int, n_stages: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) unit ranges per stage, balanced like np.array_split."""
    if not 1 <= n_stages <= n_units:
        raise ValueError(f"need 1 <= stages <= units, got {n_stages} stages / {n_units} units")
    base, extra = divmod(n_units, n_stages)
    bounds = []
    lo = 0
    for s in range(n_stages):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


@dataclass(frozen=True)
class GPTConfig:
    """GPT-2-like model shape (paper Table 4 parameterization)."""

    n_layers: int
    hidden: int
    n_heads: int
    vocab_size: int = 50257
    max_seq_len: int = 1024
    init_std: float = 0.02

    @property
    def block_params(self) -> int:
        """Parameters in one transformer block (exact, incl. biases and LNs)."""
        h = self.hidden
        attn = (3 * h * h + 3 * h) + (h * h + h)
        mlp = (4 * h * h + 4 * h) + (4 * h * h + h)
        lns = 4 * h
        return attn + mlp + lns

    @property
    def embedding_params(self) -> int:
        return self.vocab_size * self.hidden + self.max_seq_len * self.hidden

    @property
    def total_params(self) -> int:
        """Embeddings + blocks + final LN + untied LM head (exact count)."""
        return (
            self.embedding_params
            + self.n_layers * self.block_params
            + 2 * self.hidden
            + self.vocab_size * self.hidden
        )


class GPT2Model(Module):
    """Unit-structured GPT-2: embedding unit, N blocks, head unit.

    ``checkpoint_activations=True`` frees each block's internal cache right
    after its forward pass, retaining only the block *input* through the
    pluggable ``activation_store`` (plain checkpointing by default; ZeRO-R's
    Pa / Pa+cpu stores shard / offload it). Internals are recomputed
    block-by-block during backward, as far as the simulated device can
    tell: on real data a block's recompute re-issues its forward's device
    stream and reuses the forward's host arrays when they are bitwise what
    it would compute, and in meta mode repeated blocks re-issue one block's
    tape (``repro.nn.tape``).

    ``unit_listener`` (if set) brackets every unit's forward, backward, and
    checkpoint recomputation — ZeRO stage 3 uses it to all-gather the
    unit's partitioned parameters before use and free them after.

    ``mp_group`` splits every block and the LM head across a Megatron
    tensor-parallel group, of which this is rank ``rank``; a group of one
    rank is no MP. Embeddings stay replicated (Megatron proper shards the
    input embedding too, saving another V x h x 2 bytes per rank; see
    DESIGN.md substitutions), and the loss is vocab-parallel.

    ``pp_group`` makes this model one pipeline stage: the units
    ``split_units(L + 2, S)[stage]`` of the ranks' ``S`` stages. The other
    units are built uncharged in order, for their rng draws only, and
    dropped one by one, so every kept parameter is bitwise the whole
    model's; ``embedding`` / ``head`` are None on a stage without them.
    """

    def __init__(
        self,
        config: GPTConfig,
        *,
        mp_group: ProcessGroup | None = None,
        pp_group: ProcessGroup | None = None,
        rank: int = 0,
        dtype=np.float16,
        device: Device | None = None,
        rng: np.random.Generator | None = None,
        meta: bool = False,
        checkpoint_activations: bool = False,
        activation_store: "object | None" = None,
    ):
        super().__init__("gpt2")
        self.config = config
        self.dtype = np.dtype(dtype)
        if mp_group is not None and mp_group.size == 1:
            mp_group = None
        if pp_group is not None and pp_group.size == 1:
            pp_group = None
        self.mp_group, self.pp_group, self._rank = mp_group, pp_group, rank
        n_units = config.n_layers + 2
        lo, hi = 0, n_units
        # The neighbouring stages' global ranks (None at either end).
        self._prev = self._next = None
        if pp_group is not None:
            stage = pp_group.group_index(rank)
            lo, hi = split_units(n_units, pp_group.size)[stage]
            if stage > 0:
                self._prev = pp_group.ranks[stage - 1]
            if stage < pp_group.size - 1:
                self._next = pp_group.ranks[stage + 1]
        self.embedding = self.head = None
        self.blocks = []
        with memprof_category("param_fp16", site=self.name):
            for i in range(n_units):
                owned = lo <= i < hi
                unit = self._build_unit(
                    i, self.name, dtype=dtype, device=device if owned else None, rng=rng,
                    init_std=config.init_std, meta=meta,
                )
                if not owned:
                    del unit  # before the next is built: one at a time
                    continue
                self.register_module(unit)
                if i == 0:
                    self.embedding = unit
                elif i == n_units - 1:
                    self.head = unit
                else:
                    self.blocks.append(unit)
        self.checkpoint_activations = checkpoint_activations
        if activation_store is None:
            from repro.nn.checkpoint import KeepStore

            activation_store = KeepStore()
        self.activation_store = activation_store
        self.unit_listener: UnitListener = _NullListener()
        # The meta block loops' tapes, one per direction (repro.nn.tape)
        self._forward_tape, self._backward_tape = BlockTape(), BlockTape()

    def _build_unit(self, i: int, name: str, **common) -> Module:
        """Unit ``i`` of [embedding, block_0 .. block_{L-1}, head]."""
        config = self.config
        if i == 0:
            return EmbeddingUnit(f"{name}.emb", config.vocab_size, config.max_seq_len,
                                 config.hidden, **common)
        mp = dict(mp_group=self.mp_group, rank=self._rank)
        if i == config.n_layers + 1:
            return HeadUnit(f"{name}.head", config.hidden, config.vocab_size, **mp, **common)
        return TransformerBlock(f"{name}.h{i - 1}", config.hidden, config.n_heads,
                                **mp, **common)

    def units(self) -> list[Module]:
        """This model's units in order: [embedding, block_0 .. block_{L-1},
        head], or a pipeline stage's contiguous slice of them."""
        return [u for u in (self.embedding, *self.blocks, self.head) if u is not None]

    def make_loss_head(self):
        """The loss matching this model's logits layout: full vocabulary,
        or vocab-parallel cross entropy over an MP-sharded LM head."""
        from repro.nn.loss import CausalLMLoss, VocabParallelCausalLMLoss

        if self.mp_group is None:
            return CausalLMLoss()
        return VocabParallelCausalLMLoss(self.mp_group, self._rank)

    def forward(self, token_ids: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        """token_ids: (B, S) ints -> logits (B, S, V). A pipeline stage
        without the head returns its last hidden state (B, S, H) instead,
        sent on and owned by the cache; one without the embedding reads
        only the shape of ``token_ids``."""
        b, s = token_ids.shape
        if s > self.config.max_seq_len:
            raise ValueError(f"sequence length {s} exceeds max {self.config.max_seq_len}")
        listener = self.unit_listener
        cache = Cache()
        cache.ref(ctx=ctx)

        if self.embedding is None:
            h = self._recv((b, s, self.config.hidden), token_ids, "pp-act", self._prev)
        else:
            listener.before_unit(self.embedding)
            h, c_emb = self.embedding.forward(token_ids, ctx)
            listener.after_unit(self.embedding)
            cache.child("emb", c_emb)

        if self.checkpoint_activations:
            handles = []
            tape = None
            if h.data is None:  # meta: repro.nn.tape
                tape = self._forward_tape
                tape.start()
            # real: each block's ForwardTape (or None), for its recompute
            kept = (
                [] if tape is None and ctx.training
                and not self.activation_store.returns_fresh_tensor else None
            )
            for block in self.blocks:
                listener.before_unit(block)
                if tape is not None:
                    y, c_blk = tape.run(block, block.forward, h, ctx)
                elif kept is not None:
                    y, c_blk, taped = ForwardTape.capture(block, h, ctx)
                    kept.append(taped)
                else:
                    y, c_blk = block.forward(h, ctx)
                listener.after_unit(block)
                c_blk.free()  # internals recomputed in backward
                with memprof_category("activation_ckpt", site="act-ckpt"):
                    handles.append(self.activation_store.stash(h))  # store owns h
                h = y
            cache.ref(handles=handles, kept=kept)
            cache.own(h_last=h)
        else:
            hiddens = [h]
            for i, block in enumerate(self.blocks):
                listener.before_unit(block)
                h, c_blk = block.forward(h, ctx)
                listener.after_unit(block)
                cache.child(f"h{i}", c_blk)
                hiddens.append(h)
            cache.own_list("hiddens", hiddens)

        if self.head is None:
            self._send(h, "pp-act", self._next)
            cache.ref(out=h)
            return h, cache
        listener.before_unit(self.head)
        logits, c_head = self.head.forward(h, ctx)
        listener.after_unit(self.head)
        cache.child("head", c_head)
        return logits, cache

    def backward(self, cache: Cache, dlogits: Tensor | None) -> Tensor:
        """Gradients of every parameter this model holds; returns the
        gradient of its input hidden state. ``dlogits`` is None on a
        pipeline stage without the head: it receives its output's gradient."""
        listener = self.unit_listener
        if self.head is None:
            out = cache["out"]
            dh = self._recv(out.shape, out, "pp-grad", self._next)
        else:
            listener.before_unit(self.head)
            dh = self.head.backward(cache.children["head"], dlogits)
            listener.after_unit(self.head)

        if self.checkpoint_activations:
            dh = self._backward_checkpointed(cache, dh)
        else:
            for i in reversed(range(len(self.blocks))):
                listener.before_unit(self.blocks[i])
                dprev = self.blocks[i].backward(cache.children[f"h{i}"], dh)
                listener.after_unit(self.blocks[i])
                dh.free()
                dh = dprev

        if self.embedding is None:
            self._send(dh, "pp-grad", self._prev)
            return dh
        listener.before_unit(self.embedding)
        self.embedding.backward(cache.children["emb"], dh)
        listener.after_unit(self.embedding)
        return dh

    # -- pipeline stage boundaries ------------------------------------------------

    def _send(self, t: Tensor, phase: str, dst: int) -> None:
        """Hand ``t`` to the stage on global rank ``dst``; a meta tensor is
        ledgered with the same bytes and carries nothing."""
        if t.is_meta:
            self.pp_group.meta_p2p(self._rank, "send", dst, t.nbytes, phase)
        else:
            self.pp_group.send(self._rank, dst, t.numpy(), tag=phase, phase=phase)

    def _recv(self, shape: tuple[int, ...], like: Tensor, phase: str, src: int) -> Tensor:
        """The tensor of ``shape`` the stage on global rank ``src`` sent, on
        ``like``'s device (meta iff ``like`` is)."""
        with memprof_category("activation", site="pp-boundary"):
            if like.is_meta:
                data = None
                self.pp_group.meta_p2p(
                    self._rank, "recv", src, int(np.prod(shape)) * self.dtype.itemsize, phase
                )
            else:
                data = self.pp_group.recv(self._rank, src, tag=phase, phase=phase)
                if data.shape != tuple(shape):
                    raise ValueError(
                        f"rank {self._rank} received {phase} of shape {data.shape} from "
                        f"rank {src}, expected {tuple(shape)}: every stage must be fed "
                        "the same micro-batch"
                    )
            return Tensor(shape, self.dtype, data=data, device=like.device, tag=phase)

    def _backward_checkpointed(self, cache: Cache, dh: Tensor) -> Tensor:
        """Recompute each block's forward from its stashed input — or
        re-issue its ``ForwardTape`` when that computes the same — then
        backward."""
        ctx: ExecutionContext = cache["ctx"]
        handles = cache["handles"]
        store = self.activation_store
        listener = self.unit_listener
        tape = None
        if dh.data is None:  # meta: repro.nn.tape
            tape = self._backward_tape
            tape.start()
        kept = None if tape is not None else cache["kept"]
        for i in reversed(range(len(self.blocks))):
            block = self.blocks[i]
            with memprof_category("activation_ckpt", site="act-ckpt"):
                x = store.retrieve(handles[i])
            listener.before_unit(block)
            taped = None
            if kept:  # dropped as it is used: it holds the block's arrays
                taped, kept[i] = kept[i], None
            if tape is not None:
                dprev, c_blk = tape.run(block, _recompute_backward, block, x, dh, ctx)
            elif taped is not None and taped.matches(block, x, ctx):
                dprev, c_blk = taped.recompute_backward(block, dh)
            else:
                dprev, c_blk = _recompute_backward(block, x, dh, ctx)
            listener.after_unit(block)
            c_blk.free()
            dh.free()
            dh = dprev
            if store.returns_fresh_tensor:
                x.free_if_alive()
            store.discard(handles[i])
        return dh
