"""Section 9's compute-power-gap arithmetic: a trillion parameters fit,
but training one end-to-end needs an exaflop-class machine.

The paper's reasoning, reproduced as closed forms:

* Bert-Large (~330M params) trains in 67 minutes on a 1024-GPU DGX-2H
  cluster [26];
* a 1T-parameter model does ~3000x (1e12 / 330e6) the computation per
  sample;
* at the same hardware and efficiency, the same token budget therefore
  takes ~140 days ("could easily ... take 140 days"), and over a year once
  data and sequence length scale too — hence "it would require an exa-flop
  system to train a 1T parameter model in a reasonable time".
"""

from __future__ import annotations

from dataclasses import dataclass

BERT_LARGE_PARAMS = 330e6
BERT_LARGE_TRAIN_MINUTES = 67.0
BERT_LARGE_CLUSTER_GPUS = 1024
#: the reference cluster sustains ~40 TFlops/GPU
BERT_LARGE_CLUSTER_FLOPS = BERT_LARGE_CLUSTER_GPUS * 40e12
#: the token-budget growth of the "data and sequence length" variant
TOKEN_GROWTH = 3.0


def compute_scale_factor(target_params: float) -> float:
    """Per-sample compute multiple vs the Bert-Large reference (~3000x at 1T)."""
    if target_params <= 0:
        raise ValueError("parameter counts must be positive")
    return target_params / BERT_LARGE_PARAMS


def training_days_same_hardware(target_params: float, *, data_scale: float = 1.0) -> float:
    """Days to train ``target_params`` on the Bert-Large cluster, assuming
    identical efficiency and (by default) identical token budget.

    ``data_scale`` multiplies the token budget for the "data and sequence
    length are likely to increase" variant of the estimate.
    """
    minutes = BERT_LARGE_TRAIN_MINUTES * compute_scale_factor(target_params) * data_scale
    return minutes / 60.0 / 24.0


def required_sustained_flops(target_params: float, *, train_days: float,
                             base_sustained_flops: float) -> float:
    """Sustained FLOP/s needed to finish in ``train_days`` given the
    reference cluster sustains ``base_sustained_flops`` for Bert-Large."""
    if train_days <= 0:
        raise ValueError("train_days must be positive")
    reference_days = training_days_same_hardware(target_params)
    return base_sustained_flops * reference_days / train_days


@dataclass(frozen=True)
class ComputeGapSummary:
    compute_multiple: float
    days_same_tokens: float
    days_scaled_tokens: float
    exaflops_for_two_weeks: float


def summarize_1t_gap() -> ComputeGapSummary:
    """The paper's 1T headline numbers with explicit assumptions:
    the reference cluster sustains ~40 TFlops/GPU x 1024 GPUs."""
    days = training_days_same_hardware(1e12)
    return ComputeGapSummary(
        compute_multiple=compute_scale_factor(1e12),
        days_same_tokens=days,
        days_scaled_tokens=training_days_same_hardware(1e12, data_scale=TOKEN_GROWTH),
        exaflops_for_two_weeks=required_sustained_flops(
            1e12, train_days=14, base_sustained_flops=BERT_LARGE_CLUSTER_FLOPS
        ) / 1e18,
    )
