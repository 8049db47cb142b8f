"""Closed-form step-time model for tiered (ZeRO-Offload / ZeRO-Infinity)
training.

Predicts one optimizer step's wall time as the max of the overlappable
resources — GPU compute, the PCIe and NVMe lanes, host Adam — over the
device -> host -> NVMe hierarchy, matching the scheduling rules
``InfinityEngine`` applies to its simulated timeline:

- **Paged gathers** (stage 3, off-device parameter shards): with n unit
  gathers per pass, depth-1 prefetch and per-gather page-in chain time
  ``A_i`` (all hops, last tile), a pass over compute window W costs
  ``A_1 + sum_i>=2 max(W/n, A_i) + W/n`` — each gather is fully hidden
  when its chain fits in one unit's compute slice, link-limited
  otherwise. Pass the engine's actual per-gather byte profile for exact
  heterogeneous units (the embedding unit dwarfs a block), or counts for
  the uniform approximation.
- **Streamed gradients**: k equal pieces submitted uniformly over the
  backward window B. ZeRO-Offload's two regimes — each piece's PCIe wire
  time c_p fits in its B/k submission gap and the last byte lands at
  ``B + c_p``, or the lane saturates and it lands at ``B/k + k*c_p`` —
  extended one hop by the NVMe piece time c_n: ``B + c_p + c_n`` (no lane
  saturates), ``B/k + k*c_p + c_n`` (PCIe saturates) or
  ``B/k + c_p + k*c_n`` (NVMe saturates); the max covers all three.
- **Boundary gradients** (off-device optimizer, device-resident grads):
  one shard-sized d2h after backward.
- **Paged optimizer update**: C equal chunks flowing through an
  in -> update -> out pipeline cost one chunk's full chain plus (C-1)
  bottleneck stages: ``a + u + o + (C-1) * max(a, u, o)``.
- **Composition**: without DPU the update is on the critical path,
  ``step = grads_ready + update + refresh``; in DPU steady state it rides
  the next step's compute, ``step = max(compute, grads_ready, update +
  refresh)`` — the third term is the previous step's deferred tail.

The prediction and ``InfinityEngine`` share every constant (flops
accounting, GEMM efficiency, link alpha-beta, CPU Adam throughput), so on
uniform pieces they agree to float re-association
(``tests/test_infinity.py``); the engine schedules the *actual*
unit/bucket/chunk sizes, generally non-uniform, and the sweeps' benchmarks
gate that gap at <= 5%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.perf_model import SEQ_LEN, compute_split_seconds
from repro.hardware.specs import NVME_RAID, PCIE_3_X16, V100_32GB, GPUSpec, InterconnectSpec
from repro.infinity.config import InfinityConfig
from repro.infinity.schedule import OPT_STATE_BYTES_PER_ELEM
from repro.infinity.tiers import wire_seconds
from repro.nn.transformer import GPTConfig
from repro.offload.host_optim import CPU_ADAM_LATENCY_S


@dataclass(frozen=True)
class InfinityStepPrediction:
    """Predicted resource times for one multi-tier optimizer step."""

    compute_s: float  # forward + backward including predicted gather stall
    grads_ready_s: float
    cpu_adam_s: float
    opt_page_s: float  # NVMe in+out wire time for the update's paging
    param_refresh_s: float
    step_s: float

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the step the GPU is computing (1.0 = fully hidden)."""
        return self.compute_s / self.step_s if self.step_s > 0 else 1.0


@dataclass(frozen=True)
class InfinityCostModel:
    """Step-time predictor for one (model, GPU, tier hierarchy, placement).
    The placement's ``checkpointing`` sets the forward/backward split."""

    model_config: GPTConfig
    gpu: GPUSpec = V100_32GB
    pcie: InterconnectSpec = PCIE_3_X16
    mp_degree: int = 1
    infinity: InfinityConfig = field(default_factory=InfinityConfig)
    nvme: InterconnectSpec = NVME_RAID

    def compute_seconds(self, batch: int, seq_len: int = SEQ_LEN) -> tuple[float, float]:
        """(forward, backward) seconds for one micro-batch on one rank."""
        return compute_split_seconds(
            self.model_config, batch, seq_len, checkpointing=self.infinity.checkpointing,
            mp_degree=self.mp_degree, peak_flops=self.gpu.peak_flops,
        )

    def transfer_seconds(self, nbytes: int | float) -> float:
        """Wire time of one PCIe copy (shared per-tier alpha-beta form)."""
        return wire_seconds(self.pcie, nbytes)

    def partition_numel(self, nd: int) -> int:
        """This rank's share of the flat parameter space (1/Nd, rounded up
        like FlatLayout's padding)."""
        return -(-self.model_config.total_params // nd)

    def nvme_seconds(self, nbytes: int | float) -> float:
        """Wire time of one NVMe transfer (shared per-tier alpha-beta form)."""
        return wire_seconds(self.nvme, nbytes)

    def _gather_chain(self, nbytes: float, tiles: int) -> float:
        """Full page-in chain time of one gather: the first tile lands
        after every hop; later tiles pipeline behind it at the slower
        lane's rate."""
        cfg = self.infinity
        tiles = max(1, int(tiles))
        tile_b = nbytes / tiles
        w_p = self.transfer_seconds(tile_b)
        w_n = self.nvme_seconds(tile_b) if cfg.param_tier == "nvme" else 0.0
        return w_p + w_n + (tiles - 1) * max(w_p, w_n)

    def _pass_seconds(
        self, window_s: float, gathers: list[tuple[float, int]]
    ) -> float:
        """One forward/backward pass with depth-1 prefetched paged gathers:
        the first chain is exposed, each later gather costs
        ``max(compute slice, its chain)``, plus the final unit's slice."""
        if self.infinity.param_tier == "device" or not gathers:
            return window_s
        slice_s = window_s / len(gathers)
        chains = [self._gather_chain(b, t) for b, t in gathers]
        return chains[0] + sum(max(slice_s, c) for c in chains[1:]) + slice_s

    def predict_step(
        self,
        *,
        batch: int,
        seq_len: int = SEQ_LEN,
        nd: int = 1,
        numel: int | None = None,
        param_itemsize: int = 2,
        grad_chunks: int = 1,
        gather_units: int = 0,
        gather_tiles: int = 1,
        gathers_forward: list[tuple[float, int]] | None = None,
        gathers_backward: list[tuple[float, int]] | None = None,
    ) -> InfinityStepPrediction:
        """Steady-state step time for a tiered optimizer step.

        ``numel`` overrides the per-rank partition size (pass the engine's
        ``part_numel`` for exact agreement with its padded layout);
        ``grad_chunks`` is the number of streamed gradient pieces (bucket
        flushes for stages 1-2, units for stage 3) when gradients leave the
        device. ``gather_units`` is the number of stage-3 unit gathers per pass
        (0 when parameters are device-resident); ``gather_tiles`` the
        average memory-centric tile count per gather. Pass
        ``gathers_forward`` / ``gathers_backward`` — per-gather
        ``(nbytes, tiles)`` lists, e.g. the engine's ``last_gathers`` —
        for exact heterogeneous unit sizes instead of the uniform split.
        """
        if grad_chunks < 1:
            raise ValueError(f"grad_chunks must be >= 1, got {grad_chunks}")
        cfg = self.infinity
        n = numel if numel is not None else self.partition_numel(nd)
        part_bytes = n * param_itemsize
        if gathers_forward is None and gather_units > 0:
            gathers_forward = [
                (part_bytes / gather_units, gather_tiles)
            ] * gather_units
        if gathers_backward is None:
            gathers_backward = gathers_forward
        fwd, bwd = self.compute_seconds(batch, seq_len)
        fwd_p = self._pass_seconds(fwd, gathers_forward or [])
        bwd_p = self._pass_seconds(bwd, gathers_backward or [])
        compute = fwd_p + bwd_p
        # -- gradients out ---------------------------------------------------
        if cfg.grad_tier != "device":
            k = grad_chunks
            c_p = self.transfer_seconds(part_bytes / k)
            c_n = self.nvme_seconds(part_bytes / k) if cfg.grad_tier == "nvme" else 0.0
            last = max(
                bwd_p + c_p + c_n,
                bwd_p / k + k * c_p + c_n,
                bwd_p / k + c_p + k * c_n,
            )
            grads_ready = fwd_p + last
        elif cfg.optimizer_tier != "device":
            grads_ready = compute + self.transfer_seconds(part_bytes)
        else:
            grads_ready = compute
        # -- the update ------------------------------------------------------
        adam_s = opt_page_s = update_s = 0.0
        if cfg.optimizer_tier == "host":
            adam_s = CPU_ADAM_LATENCY_S + n / cfg.cpu_adam_elements_per_s
            update_s = adam_s
        elif cfg.optimizer_tier == "nvme":
            in_bpe = OPT_STATE_BYTES_PER_ELEM + (2 if cfg.grad_tier == "nvme" else 0)
            out_bpe = OPT_STATE_BYTES_PER_ELEM
            chunk_elems = max(1, cfg.opt_chunk_bytes // (in_bpe + out_bpe))
            chunks = -(-n // chunk_elems)
            e = n / chunks
            a = self.nvme_seconds(e * in_bpe)
            u = e / cfg.cpu_adam_elements_per_s
            o = self.nvme_seconds(e * out_bpe)
            adam_s = CPU_ADAM_LATENCY_S + n / cfg.cpu_adam_elements_per_s
            opt_page_s = chunks * (a + o)
            update_s = CPU_ADAM_LATENCY_S + a + u + o + (chunks - 1) * max(a, u, o)
        # -- fp16 shard refresh ---------------------------------------------
        master_on_host = cfg.optimizer_tier != "device"
        refresh = 0.0
        if cfg.param_tier == "device":
            if master_on_host:
                refresh = self.transfer_seconds(part_bytes)
        elif cfg.param_tier == "host":
            if not master_on_host:
                refresh = self.transfer_seconds(part_bytes)
        else:  # nvme
            refresh = self.nvme_seconds(part_bytes)
            if not master_on_host:
                refresh += self.transfer_seconds(part_bytes)
        # -- composition -----------------------------------------------------
        if cfg.delayed_param_update:
            step_s = max(compute, grads_ready, update_s + refresh)
        else:
            step_s = max(compute, grads_ready + update_s + refresh)
        return InfinityStepPrediction(
            compute_s=compute,
            grads_ready_s=grads_ready,
            cpu_adam_s=adam_s,
            opt_page_s=opt_page_s,
            param_refresh_s=refresh,
            step_s=step_s,
        )


def relative_error(predicted_s: float, simulated_s: float) -> float:
    """|prediction - simulation| / simulation — the sweeps' 5% acceptance
    metric."""
    if simulated_s <= 0:
        raise ValueError(f"simulated time must be positive, got {simulated_s}")
    return abs(predicted_s - simulated_s) / simulated_s
