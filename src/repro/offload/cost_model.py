"""Closed-form step-time model for offloaded training.

Predicts one optimizer step's wall time as the max of four overlappable
resources — GPU compute, PCIe d2h (gradients), host Adam, PCIe h2d
(parameters) — matching the scheduling rules ``OffloadRuntime`` applies to
its simulated timeline:

- streamed gradients (``offload_gradients``): k equal pieces submitted
  uniformly over the backward window B. If each piece's wire time c fits
  in its B/k submission gap the lane never queues and the last byte lands
  at F + B + c; otherwise the lane saturates and it lands at F + B/k +
  k*c. ``grads_ready = F + max(B + c, B/k + k*c)`` covers both regimes.
- boundary gradients (optimizer offload without gradient offload): one
  shard-sized d2h after backward, ``grads_ready = F + B + d2h(shard)``.
- non-DPU step: the update is on the critical path —
  ``step = grads_ready + adam + h2d(params)``.
- DPU steady state: the update overlaps the next step's compute, so
  ``step = max(F + B, grads_ready, adam + h2d(params))`` — the third term
  is the previous step's deferred tail, identical every step once warm.

The prediction and the runtime share every constant (flops accounting,
GEMM efficiency, link alpha-beta, CPU Adam throughput), so agreement is
exact up to gradient-piece granularity: the runtime schedules the *actual*
reduced pieces (bucket flushes / stage-3 units, generally non-uniform)
while the closed form assumes k equal pieces. The benchmark sweep asserts
they stay within 5%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.perf_model import SEQ_LEN, compute_split_seconds
from repro.hardware.specs import PCIE_3_X16, GPUSpec, InterconnectSpec, V100_32GB
from repro.nn.transformer import GPTConfig
from repro.offload.host_optim import CPU_ADAM_ELEMENTS_PER_S, cpu_adam_seconds


@dataclass(frozen=True)
class OffloadStepPrediction:
    """Predicted resource times for one optimizer step."""

    compute_s: float
    grads_ready_s: float
    cpu_adam_s: float
    param_h2d_s: float
    step_s: float

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the step the GPU is computing (1.0 = fully hidden)."""
        return self.compute_s / self.step_s if self.step_s > 0 else 1.0


@dataclass(frozen=True)
class OffloadCostModel:
    """Step-time predictor for one (model, GPU, host link) configuration."""

    model_config: GPTConfig
    gpu: GPUSpec = V100_32GB
    pcie: InterconnectSpec = PCIE_3_X16
    cpu_adam_elements_per_s: float = CPU_ADAM_ELEMENTS_PER_S
    checkpointing: bool = True
    mp_degree: int = 1

    # -- pieces --------------------------------------------------------------

    def compute_seconds(self, batch: int, seq_len: int = SEQ_LEN) -> tuple[float, float]:
        """(forward, backward) seconds for one micro-batch on one rank."""
        return compute_split_seconds(
            self.model_config, batch, seq_len, checkpointing=self.checkpointing,
            mp_degree=self.mp_degree, peak_flops=self.gpu.peak_flops,
        )

    def transfer_seconds(self, nbytes: int) -> float:
        """Wire time of one PCIe copy (shared per-tier alpha-beta form)."""
        # Function-level import: repro.infinity extends this model, so the
        # package dependency runs infinity -> offload at import time.
        from repro.infinity.tiers import wire_seconds

        return wire_seconds(self.pcie, nbytes)

    def partition_numel(self, nd: int) -> int:
        """This rank's share of the flat parameter space (1/Nd, rounded up
        like FlatLayout's padding)."""
        psi = self.model_config.total_params
        return -(-psi // nd)

    # -- the step ------------------------------------------------------------

    def predict_step(
        self,
        *,
        batch: int,
        seq_len: int = SEQ_LEN,
        nd: int = 1,
        numel: int | None = None,
        param_itemsize: int = 2,
        offload_gradients: bool = False,
        delayed_param_update: bool = False,
        grad_chunks: int = 1,
    ) -> OffloadStepPrediction:
        """Steady-state step time for an offloaded optimizer step.

        ``numel`` overrides the per-rank partition size (pass the engine's
        ``part_numel`` for exact agreement with its padded layout);
        ``grad_chunks`` is the number of streamed gradient pieces (bucket
        flushes for stages 1-2, units for stage 3) when
        ``offload_gradients`` is on.
        """
        if grad_chunks < 1:
            raise ValueError(f"grad_chunks must be >= 1, got {grad_chunks}")
        n = numel if numel is not None else self.partition_numel(nd)
        fwd, bwd = self.compute_seconds(batch, seq_len)
        compute = fwd + bwd
        grad_bytes = n * param_itemsize
        if offload_gradients:
            k = grad_chunks
            piece = self.transfer_seconds(grad_bytes / k)
            grads_ready = fwd + max(bwd + piece, bwd / k + k * piece)
        else:
            grads_ready = compute + self.transfer_seconds(grad_bytes)
        adam_s = cpu_adam_seconds(n, elements_per_s=self.cpu_adam_elements_per_s)
        h2d_s = self.transfer_seconds(n * param_itemsize)
        if delayed_param_update:
            step_s = max(compute, grads_ready, adam_s + h2d_s)
        else:
            step_s = max(compute, grads_ready + adam_s + h2d_s)
        return OffloadStepPrediction(
            compute_s=compute,
            grads_ready_s=grads_ready,
            cpu_adam_s=adam_s,
            param_h2d_s=h2d_s,
            step_s=step_s,
        )


def relative_error(predicted_s: float, simulated_s: float) -> float:
    """|prediction - simulation| / simulation — the sweep's 5% acceptance
    metric."""
    if simulated_s <= 0:
        raise ValueError(f"simulated time must be positive, got {simulated_s}")
    return abs(predicted_s - simulated_s) / simulated_s
