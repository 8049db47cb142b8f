"""Solvers: largest model / largest batch that fits a memory budget.

Used by Table 2 (max model size per stage/MP), Figure 4 (13B without MP),
Figure 6 (max model under C1-C5), and Figure 8 (max batch per config).
Model families follow the paper: hidden size fixed per family, layer count
varied to hit a parameter target (Table 4's parameterization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.memory_model import ActivationModel, total_device_bytes
from repro.nn.transformer import GPTConfig
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.placement import Mesh

SEQ_LEN = 1024
VOCAB = 50257

# Usable fraction of the 32 GB device: CUDA context, framework overheads,
# and workspace keep a slice away from tensors.
DEFAULT_BUDGET_BYTES = 30 * GB


@dataclass(frozen=True)
class FitResult:
    config: GPTConfig
    psi: float
    device_bytes: float
    fits: bool


def device_bytes_for(
    config: GPTConfig,
    zero: ZeROConfig,
    *,
    mesh: Mesh,
    batch: int,
    seq_len: int = SEQ_LEN,
) -> float:
    """Per-GPU bytes for a concrete (model, config, mesh, batch)."""
    act = ActivationModel(
        hidden=config.hidden, n_layers=config.n_layers, seq_len=seq_len, batch=batch,
    )
    return total_device_bytes(float(config.total_params), act, zero, mesh=mesh)


def _largest(fits, max_search: int, start: int = 2) -> int:
    """Largest n in [1, max_search] with ``fits(n)`` by doubling from
    ``start`` (a guess near the answer saves probes), then binary search
    between the last n that fit and the first that did not; 0 if even 1
    does not fit. ``fits`` need not be monotone (a
    meta-mode fit is not), so the probe order is part of the answer."""
    if not fits(1):
        return 0
    lo, hi = 1, max(2, start)
    while hi <= max_search and fits(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, max_search + 1)  # max_search itself may be the answer
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_layers(
    zero: ZeROConfig,
    *,
    mesh: Mesh,
    hidden: int,
    heads: int,
    batch: int,
    budget_bytes: float = DEFAULT_BUDGET_BYTES,
    seq_len: int = SEQ_LEN,
    max_search: int = 4096,
) -> FitResult:
    """Largest layer count (hence model size) that fits the budget."""

    def used(n_layers: int) -> tuple[float, GPTConfig]:
        cfg = GPTConfig(n_layers=n_layers, hidden=hidden, n_heads=heads,
                        vocab_size=VOCAB, max_seq_len=seq_len)
        return device_bytes_for(cfg, zero, mesh=mesh, batch=batch, seq_len=seq_len), cfg

    n_layers = _largest(lambda n: used(n)[0] <= budget_bytes, max_search)
    device_bytes, cfg = used(max(n_layers, 1))
    return FitResult(config=cfg, psi=float(cfg.total_params), device_bytes=device_bytes,
                     fits=n_layers > 0)


def max_batch(
    config: GPTConfig,
    zero: ZeROConfig,
    *,
    mesh: Mesh,
    budget_bytes: float = DEFAULT_BUDGET_BYTES,
) -> int:
    """Largest per-replica batch that fits; 0 if even batch 1 does not."""
    return _largest(
        lambda b: device_bytes_for(config, zero, mesh=mesh, batch=b) <= budget_bytes,
        1 << 14,
    )
