"""Autoregressive generation on a trained GPT2Model.

Not a paper experiment — a library amenity that also exercises the
forward path the way downstream users would (and doubles as an end-to-end
smoke test that a ZeRO-trained model is a *usable* model).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import ExecutionContext
from repro.nn.transformer import GPT2Model
from repro.tensor.tensor import Tensor


def generate(
    model: GPT2Model,
    prompt_ids: np.ndarray,
    *,
    max_new_tokens: int,
    temperature: float = 1.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Greedy (temperature=0) or sampled continuation of ``prompt_ids``.

    ``prompt_ids``: (batch, prompt_len) int64. Returns
    (batch, prompt_len + max_new_tokens). The naive full-context re-forward
    per token is fine at simulation scale (no KV cache).
    """
    if prompt_ids.ndim != 2:
        raise ValueError(f"prompt must be (batch, len), got {prompt_ids.shape}")
    if max_new_tokens < 1:
        raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature > 0 and rng is None:
        raise ValueError("sampling (temperature > 0) needs an rng")
    ctx = ExecutionContext(training=False)
    tokens = prompt_ids.astype(np.int64).copy()
    max_ctx = model.config.max_seq_len
    for _ in range(max_new_tokens):
        window = tokens[:, -max_ctx:]
        logits, cache = model.forward(Tensor.from_numpy(window), ctx)
        last = logits.numpy()[:, -1, :].astype(np.float64)
        cache.free()
        logits.free_if_alive()
        if temperature == 0:
            nxt = last.argmax(axis=-1)
        else:
            scaled = last / temperature
            scaled -= scaled.max(axis=-1, keepdims=True)
            probs = np.exp(scaled)
            probs /= probs.sum(axis=-1, keepdims=True)
            nxt = np.array([rng.choice(probs.shape[1], p=p) for p in probs])
        tokens = np.concatenate([tokens, nxt[:, None].astype(np.int64)], axis=1)
    return tokens
