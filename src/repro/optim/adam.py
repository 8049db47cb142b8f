"""Adam optimizer (Kingma & Ba [6]) — the paper's reference optimizer.

The update math lives in a pure in-place function over flat fp32 numpy
arrays so every training engine (baseline DDP and all three ZeRO stages)
runs *literally the same arithmetic* — the foundation of the equivalence
tests ("[ZeRO's] optimizations do not change the model optimization
method", Section 2.2.3). ZeRO engines call it on partition slices;
baselines on the full vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AdamHyperparams:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


def adam_step_inplace(
    master: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    grad: np.ndarray,
    step: int,
    hp: AdamHyperparams,
    decay_mask: np.ndarray | None = None,
) -> None:
    """One Adam update, in place on fp32 flat arrays.

    ``step`` is 1-based (bias correction uses beta**step). Decoupled weight
    decay (AdamW-style) applied when ``hp.weight_decay`` is nonzero;
    ``decay_mask`` (0/1 per element) restricts it to selected parameters
    (torch param-group semantics over a flat vector).
    """
    if step < 1:
        raise ValueError(f"Adam step must be >= 1, got {step}")
    if not (master.shape == m.shape == v.shape == grad.shape):
        raise ValueError(
            f"shape mismatch: master {master.shape}, m {m.shape}, "
            f"v {v.shape}, grad {grad.shape}"
        )
    g32 = grad.astype(np.float32, copy=False)
    # In-place exponential moving averages (guides: prefer in-place numpy ops).
    m *= hp.beta1
    m += (1.0 - hp.beta1) * g32
    v *= hp.beta2
    v += (1.0 - hp.beta2) * np.square(g32)
    bias1 = 1.0 - hp.beta1**step
    bias2 = 1.0 - hp.beta2**step
    denom = np.sqrt(v / bias2)
    denom += hp.eps
    update = (m / bias1) / denom
    if hp.weight_decay:
        if decay_mask is not None:
            if decay_mask.shape != master.shape:
                raise ValueError(
                    f"decay_mask shape {decay_mask.shape} != master {master.shape}"
                )
            update += hp.weight_decay * decay_mask * master
        else:
            update += hp.weight_decay * master
    master -= hp.lr * update


class Adam:
    """Convenience per-parameter Adam for small single-device models.

    Keeps fp32 master/momentum/variance per parameter; useful for unit
    tests and examples that do not exercise the distributed engines.
    """

    def __init__(self, parameters):
        self.hp = AdamHyperparams()
        self.parameters = list(parameters)
        self.step_count = 0
        self._state: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for p in self.parameters:
            if p.data.is_meta:
                raise ValueError(f"Adam (eager) cannot optimize meta parameter {p.name}")
            master = p.data.data.astype(np.float32)
            self._state[p.name] = (
                master,
                np.zeros_like(master),
                np.zeros_like(master),
            )

    def step(self) -> None:
        self.step_count += 1
        for p in self.parameters:
            if p.grad is None:
                continue
            master, m, v = self._state[p.name]
            adam_step_inplace(
                master.reshape(-1),
                m.reshape(-1),
                v.reshape(-1),
                p.grad.data.reshape(-1),
                self.step_count,
                self.hp,
            )
            p.data.data = master.astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()
