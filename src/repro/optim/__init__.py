"""Optimizers: Adam, mixed-precision machinery, flat layouts, loss scaling."""

from repro.optim.adam import Adam, AdamHyperparams, adam_step_inplace
from repro.optim.decay import build_decay_mask, default_weight_decay_filter
from repro.optim.flat import FlatLayout, ParamSlot
from repro.optim.mixed_precision import ADAM_K, FlatAdamState, MixedPrecisionAdam
from repro.optim.lr_schedule import WarmupCosineDecay
from repro.optim.scaler import LossScaler

__all__ = [
    "ADAM_K",
    "Adam",
    "AdamHyperparams",
    "WarmupCosineDecay",
    "FlatAdamState",
    "FlatLayout",
    "LossScaler",
    "MixedPrecisionAdam",
    "ParamSlot",
    "adam_step_inplace",
    "build_decay_mask",
    "default_weight_decay_filter",
]
