"""InfinityEngine: overlap-centric data movement over the tier hierarchy.

The per-engine companion that turns byte-level events from a ZeRO stage
engine into a multi-tier transfer timeline on the simulated within-step
clock, generalizing ``repro.offload.engine.OffloadRuntime`` from one host
tier to the full device -> host -> NVMe stack. It captures each step's
inputs (compute time, paged unit gathers, streamed gradient pieces), owns
the ledgered PCIe/NVMe streams and the tier pools, and at each boundary
has ``repro.infinity.schedule`` lay the step out — prefetched parameter
gathers, streamed gradients, chunk-paged optimizer state — and reports
the result as an ``InfinityStepReport``.

The engine exposes the same driver surface as ``OffloadRuntime``
(``begin_micro`` / ``queue_grad_d2h`` / ``finish_step`` / ``trace_step``
plus ``reports`` and ``pool``), so ``BaseEngine`` and the stage
engines use either through ``self.offload``; both configs name their tiers
``optimizer_tier`` / ``grad_tier`` / ``param_tier``, which is what the
placement table reads. Placement never changes numerics —
values move through the same kernels in the same order regardless of tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.infinity.config import InfinityConfig
from repro.infinity.schedule import (
    NVME_LANES,
    Placement,
    StepInputs,
    StepSchedule,
    accrue_micro,
    close_step,
    trace_schedule,
)
from repro.infinity.tiers import TierStream
from repro.memsim.device import Device, HostMemory
from repro.nn.transformer import GPTConfig
from repro.offload.streams import PCIeStream
from repro.runtime import RankContext


@dataclass(frozen=True)
class InfinityStepReport:
    """One optimizer boundary's modeled multi-tier timeline."""

    compute_s: float  # forward + backward including gather-stall time
    gather_stall_s: float  # compute window growth from paged param gathers
    grad_out_s: float  # d2h (+ NVMe write) lane seconds of grad traffic
    opt_page_in_s: float  # NVMe read lane seconds for the update's page-in
    opt_page_out_s: float  # NVMe write lane seconds for the page-out
    cpu_adam_s: float  # host Adam over this rank's partition
    param_refresh_s: float  # wire time pushing the fp16 shard to its tier
    grads_ready_s: float  # when the last gradient byte lands on its tier
    carry_in_s: float  # DPU: previous step's deferred update tail
    step_s: float  # modeled wall time of the whole optimizer step


class InfinityEngine:
    """Per-rank multi-tier movement engine: owns the streams and step clock."""

    def __init__(
        self,
        ctx: RankContext,
        config: InfinityConfig,
        model_config: GPTConfig,
        *,
        mp_degree: int = 1,
    ):
        self.config = config
        self.model_config = model_config
        self.mp_degree = mp_degree
        self.peak_flops = ctx.device.spec.peak_flops
        self.pcie = PCIeStream(
            config.pcie or ctx.topology.pcie, ledger=ctx.ledger, rank=ctx.rank
        )
        self.nvme_stream = TierStream(
            config.nvme or ctx.topology.nvme, ledger=ctx.ledger, rank=ctx.rank,
            directions=NVME_LANES,
        )
        self.placement = Placement(
            "infinity", config.optimizer_tier, config.grad_tier, config.param_tier,
            config.delayed_param_update, config.cpu_adam_elements_per_s,
            prefetch_depth=config.prefetch_depth, opt_chunk_bytes=config.opt_chunk_bytes,
        )
        # Tier pools: the rank's own device, and the context's DRAM and
        # NVMe pools (clusters share one of each per node).
        self._pools = {"device": ctx.device, "host": ctx.host, "nvme": ctx.nvme}
        self.reports: list[InfinityStepReport] = []
        #: the last closed boundary (its inputs ride along as ``.inputs``).
        self.last_schedule: StepSchedule | None = None
        self._pending = StepInputs()

    @property
    def last_capture(self) -> StepInputs:
        """Inputs of the last closed boundary (empty before the first)."""
        return self.last_schedule.inputs if self.last_schedule is not None else StepInputs()

    @property
    def last_gathers(self) -> dict[str, list[tuple[int, int]]]:
        """The last boundary's per-pass ``(nbytes, tiles)`` gather profile."""
        return self.last_capture.gathers

    @property
    def last_grad_pieces(self) -> list[int]:
        return self.last_capture.grad_pieces

    def pool(self, tier: str) -> Device | HostMemory:
        """Byte-accounting pool for a tier."""
        return self._pools[tier]

    def begin_micro(self, batch: int, seq_len: int) -> None:
        """Accrue one micro-batch's forward/backward compute time."""
        accrue_micro(self, batch, seq_len)

    def queue_grad_d2h(self, nbytes: int) -> None:
        """One owned gradient piece became tier-bound during backward."""
        if nbytes > 0:
            self._pending.grad_pieces.append(int(nbytes))

    def note_gather(self, nbytes: int, *, mode: str, tiles: int = 1) -> None:
        """One unit gather paged ``nbytes`` of this rank's shard in from the
        parameter tier (stage 3 with ``param_tier != "device"``), split into
        ``tiles`` sequential transfers under memory-centric tiling."""
        if mode not in self._pending.gathers:
            raise ValueError(f"mode must be forward|backward, got {mode!r}")
        self._pending.gathers[mode].append((int(nbytes), max(1, int(tiles))))

    def finish_step(
        self,
        *,
        adam_numel: int,
        param_h2d_bytes: int,
        boundary_grad_bytes: int = 0,
    ) -> InfinityStepReport:
        """Schedule the boundary's transfers and close out the step clock.

        Same contract as ``OffloadRuntime.finish_step``: zero
        ``adam_numel`` / ``param_h2d_bytes`` on an overflow-skip step;
        ``boundary_grad_bytes`` is the one-shot shard d2h when gradients
        stayed device-resident.
        """
        sched = close_step(
            self, self.pcie, self.nvme_stream, adam_numel=adam_numel,
            refresh_bytes=param_h2d_bytes, boundary_grad_bytes=boundary_grad_bytes,
        )
        inputs = sched.inputs
        report = InfinityStepReport(
            compute_s=sched.compute_end,
            gather_stall_s=sched.compute_end - (inputs.fwd_s + inputs.bwd_s),
            grad_out_s=self.pcie.lane_busy_s("d2h"),
            opt_page_in_s=sched.opt_page_in_s,
            opt_page_out_s=sched.opt_page_out_s,
            cpu_adam_s=sched.cpu_adam_s,
            param_refresh_s=sched.refresh_wire_s,
            grads_ready_s=sched.grads_ready,
            carry_in_s=inputs.carry_in_s,
            step_s=sched.step_s,
        )
        self.reports.append(report)
        return report

    def trace_step(self, tracer, t0: float) -> None:
        """Emit the just-finished boundary's tier transfers onto telemetry
        side tracks (call after ``finish_step``): PCIe and NVMe lanes each
        on their own track, host Adam chunks on "host"."""
        trace_schedule(self.last_schedule, tracer, t0)
