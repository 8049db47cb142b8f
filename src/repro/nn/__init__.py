"""Manual-backprop NN framework: modules, layers, transformer, checkpointing."""

from repro.nn.module import Cache, ExecutionContext, Module, Parameter
from repro.nn.layers import (
    ColumnParallelLinear,
    Embedding,
    LayerNorm,
    Linear,
    RowParallelLinear,
    make_param,
)
from repro.nn.attention import MultiHeadAttention
from repro.nn.transformer import (
    MLP,
    EmbeddingUnit,
    GPT2Model,
    GPTConfig,
    HeadUnit,
    TransformerBlock,
    UnitListener,
)
from repro.nn.checkpoint import KeepStore
from repro.nn.loss import CausalLMLoss, VocabParallelCausalLMLoss
from repro.nn.generate import generate

__all__ = [
    "Cache",
    "CausalLMLoss",
    "ColumnParallelLinear",
    "VocabParallelCausalLMLoss",
    "generate",
    "Embedding",
    "EmbeddingUnit",
    "ExecutionContext",
    "HeadUnit",
    "UnitListener",
    "GPT2Model",
    "GPTConfig",
    "KeepStore",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "MultiHeadAttention",
    "Parameter",
    "RowParallelLinear",
    "TransformerBlock",
    "make_param",
]
