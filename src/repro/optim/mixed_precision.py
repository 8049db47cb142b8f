"""Mixed-precision Adam state and the single-replica optimizer.

Memory layout per Section 3.1: for Psi parameters, fp16 parameters (2 Psi
bytes) and fp16 gradients (2 Psi) live with the model; the *optimizer
states* are an fp32 master copy of the parameters, fp32 momentum and fp32
variance (4 Psi each, K = 12). ``FlatAdamState`` is those three fp32
tensors over a flat range, accounted on the pool it is given (the device,
or a host / NVMe ``HostMemory`` under offload) — instantiated over the full
flat space by the baseline, and over a 1/Nd partition slice by ZeRO-DP
(which is the entire trick of Pos).
"""

from __future__ import annotations

import numpy as np

from repro.memprof.provenance import category as memprof_category
from repro.memsim.device import Device, HostMemory
from repro.nn.module import Module
from repro.optim.adam import AdamHyperparams, adam_step_inplace
from repro.optim.flat import FlatLayout
from repro.optim.scaler import LossScaler
from repro.tensor.tensor import Tensor

# Optimizer-state memory multiplier for mixed-precision Adam (Section 3.1).
ADAM_K = 12


class FlatAdamState:
    """fp32 master / momentum / variance over ``numel`` flat elements."""

    def __init__(
        self,
        numel: int,
        *,
        device: Device | HostMemory | None = None,
        hp: AdamHyperparams | None = None,
        meta: bool = False,
        tag: str = "optstate",
    ):
        if numel <= 0:
            raise ValueError(f"numel must be positive, got {numel}")
        self.numel = numel
        self.hp = hp or AdamHyperparams()
        self.step_count = 0

        def make(name: str) -> Tensor:
            data = None if meta else np.zeros(numel, dtype=np.float32)
            return Tensor((numel,), np.dtype(np.float32), data=data, device=device, tag=f"{tag}.{name}")

        with memprof_category("optimizer_state", site=tag):
            self.master = make("master")
            self.m = make("m")
            self.v = make("v")

    @property
    def is_meta(self) -> bool:
        return self.master.is_meta

    @property
    def nbytes(self) -> int:
        """Bytes held by optimizer state on its pool: 12 per element (K=12)."""
        return self.master.nbytes + self.m.nbytes + self.v.nbytes

    def init_master(self, flat_params32: np.ndarray | None) -> None:
        """Seed the master copy from the (fp16) parameter values."""
        if self.is_meta:
            return
        if flat_params32 is None or flat_params32.shape != (self.numel,):
            raise ValueError(f"expected flat fp32 vector of {self.numel} elements")
        self.master.data[:] = flat_params32

    def step(self, grad32: np.ndarray | None) -> np.ndarray | None:
        """One Adam update over the whole range; returns the master view."""
        self.step_count += 1
        if self.is_meta:
            return None
        if grad32 is None:
            raise ValueError("real-mode FlatAdamState.step needs a gradient")
        adam_step_inplace(
            self.master.data, self.m.data, self.v.data, grad32, self.step_count, self.hp
        )
        return self.master.data

    def free(self) -> None:
        self.master.free_if_alive()
        self.m.free_if_alive()
        self.v.free_if_alive()


class MixedPrecisionAdam:
    """Full-replica mixed-precision Adam (the non-ZeRO reference optimizer).

    Holds fp32 Adam state for *all* parameters — the 16-Psi-per-device
    layout the paper's baseline DP replicates on every rank.
    """

    def __init__(self, model: Module):
        self.model = model
        self.layout = FlatLayout(model.parameters())
        params = self.layout.parameters
        meta = bool(params) and params[0].data.is_meta
        self.state = FlatAdamState(self.layout.numel, meta=meta, tag="adam")
        self.scaler = LossScaler(dynamic=False, init_scale=1.0)
        if not meta:
            self.state.init_master(self.layout.gather_params(np.float32))

    @property
    def loss_scale(self) -> float:
        return self.scaler.scale

    def step(self) -> bool:
        """Unscale, overflow-check, update, write back. Returns True if applied."""
        if self.state.is_meta:
            self.state.step_count += 1
            return True
        grad32 = self.layout.gather_grads(np.float32)
        grad32 /= self.scaler.scale
        overflow = LossScaler.has_overflow(grad32)
        if not self.scaler.update(overflow):
            return False
        master = self.state.step(grad32)
        self.layout.scatter_params(master)
        return True

    def zero_grad(self) -> None:
        self.model.zero_grad()
