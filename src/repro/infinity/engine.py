"""InfinityEngine: overlap-centric data movement over the tier hierarchy.

The per-engine companion (``BaseEngine.offload``) that turns byte-level
events from a ZeRO stage engine into a multi-tier transfer timeline on the
simulated within-step clock. It captures each step's inputs (compute time,
paged unit gathers, streamed gradient pieces), owns the ledgered PCIe/NVMe
streams and the tier pools, and at each boundary has
``repro.infinity.schedule`` lay the step out — prefetched parameter
gathers, streamed gradients, chunk-paged optimizer state — and reports
the result as an ``InfinityStepReport``. ZeRO-Offload is the placement
that stops at the host tier: the same engine, nothing booked on NVMe.

The step lifecycle drives it with ``begin_micro`` once per micro-batch,
``queue_grad_d2h`` per owned gradient piece leaving the device,
``finish_step`` at the boundary and ``trace_step`` after it. Placement
never changes numerics — values move through the same kernels in the same
order regardless of tier. Works identically in meta mode: the model only
ever sees byte and element counts.

Staleness contract under ``delayed_param_update`` (ZeRO-Offload's DPU):
after optimizer step t, the fp16 parameters equal fp16(master after step
t-1) — the update computed from step t's gradients lands one step later,
overlapped with step t+1's compute, so step t+1 trains on parameters one
update stale. An overflow-skip step leaves master untouched, so the same
stale values are re-broadcast; saving a checkpoint is a synchronization
point (master is saved post-update, and resume rebuilds fp16 params from
it, collapsing the one-step lag).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.infinity.config import InfinityConfig
from repro.infinity.schedule import (
    NVME_LANES,
    PCIE_LANES,
    StepInputs,
    StepSchedule,
    evaluate_step,
)
from repro.infinity.tiers import TierStream
from repro.memsim.device import Device, HostMemory
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

    def __init__(self, ctx: RankContext, config: InfinityConfig):
        self.config = config
        self.pcie = TierStream(
            ctx.topology.pcie, ledger=ctx.ledger, rank=ctx.rank,
            directions=PCIE_LANES,
        )
        self.nvme_stream = TierStream(
            ctx.topology.nvme, ledger=ctx.ledger, rank=ctx.rank,
            directions=NVME_LANES,
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

    def begin_micro(self, forward_s: float, backward_s: float) -> None:
        """Accrue one micro-batch's modeled forward/backward compute time
        (the engine prices it once, for the tracer too)."""
        self._pending.fwd_s += forward_s
        self._pending.bwd_s += backward_s

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
        """Complete the open step's inputs with the boundary's byte counts
        and the DPU carry, schedule its transfers, and open the next step.

        ``adam_numel`` / ``param_h2d_bytes`` are 0 on an overflow-skip step
        (master untouched, nothing to push back); ``boundary_grad_bytes``
        is the one-shot shard d2h when gradients stayed device-resident.
        """
        inputs = self._pending
        inputs.adam_numel = int(adam_numel)
        inputs.refresh_bytes = int(param_h2d_bytes)
        inputs.boundary_grad_bytes = int(boundary_grad_bytes)
        if self.last_schedule is not None:
            inputs.carry_in_s = self.last_schedule.carry_out
        sched = self.last_schedule = evaluate_step(
            inputs, self.config, self.pcie, self.nvme_stream
        )
        self._pending = StepInputs()
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
        side tracks (call after ``finish_step``; ``t0`` is the tracer clock
        at forward begin): PCIe and NVMe lanes each on their own track, host
        Adam chunks on "host".

        These are explicit-interval complete events, not clock spans — under
        DPU the deferred tail legitimately overlaps the next step's compute.
        With Perfscope recording on, the schedule itself is kept per step.
        """
        sched = self.last_schedule
        if sched is None:
            return
        for kind, label, _track, start, end, nbytes, phase, _deps in sched.ops:
            if kind == "xfer":
                tracer.add_span(
                    label, t0 + start, end - start, bytes=nbytes, phase=phase,
                    track="pcie-" + label if label in PCIE_LANES else label,
                )
            elif kind == "host":
                tracer.add_span(
                    label, t0 + start, end - start,
                    track="host", delayed=sched.config.delayed_param_update,
                )
        tracer.record_runtime_step(sched)
