"""ZeRO-Offload engine: host-resident optimizer over the simulated PCIe link.

This module carries the *policy* of offloading — which model states live on
the host, and how the step timeline changes — while the stage engines keep
their numerics untouched:

- ``OffloadConfig`` is the user-facing knob set (threaded from
  ``ZeROConfig`` by the factory into ``EngineConfig.offload``):
  ``offload_optimizer`` parks the fp32 Adam state (K Psi / Nd bytes) in
  host DRAM and runs the update there; ``offload_gradients`` additionally
  keeps the 1/Nd gradient shard host-resident, streaming each reduced
  piece over PCIe while backward still runs; ``delayed_param_update`` is
  the one-step-stale DPU schedule that hides the CPU Adam + parameter
  h2d behind the next step's compute.

- ``OffloadRuntime`` is the per-engine companion object that captures the
  engine's byte-level events (grad pieces reduced, Adam over N elements,
  parameters refreshed) and, at each boundary, has the tier schedule
  (``repro.infinity.schedule``) lay them out on a ``PCIeStream`` under the
  host-only placement; the result is reported as an ``OffloadStepReport``
  and surfaced through ``StepResult.step_time_model_s``.

Staleness contract under DPU: after optimizer step t, the fp16 parameters
equal fp16(master after step t-1) — the update computed from step t's
gradients lands one step later, overlapped with step t+1's compute. Step
t+1 therefore trains on parameters one update stale (ZeRO-Offload's DPU).
An overflow-skip step leaves master untouched, so the same stale values
are re-broadcast; saving a checkpoint is a synchronization point (master
is saved post-update, and resume rebuilds fp16 params from it, collapsing
the one-step lag).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import InterconnectSpec
from repro.infinity.schedule import (
    Placement,
    StepInputs,
    StepSchedule,
    accrue_micro,
    close_step,
    trace_schedule,
)
from repro.memsim.device import Device, HostMemory
from repro.nn.transformer import GPTConfig
from repro.offload.host_optim import CPU_ADAM_ELEMENTS_PER_S
from repro.offload.streams import PCIeStream
from repro.runtime import RankContext


@dataclass(frozen=True)
class OffloadConfig:
    """What moves to the host, and on what schedule.

    ``pcie`` defaults to the topology's node link (hardware truth); set it
    only to model a different host interconnect. ``checkpointing`` mirrors
    the model's activation-checkpointing flag — it changes the
    forward/backward split of the compute time the overlap model uses.
    """

    offload_optimizer: bool = True
    offload_gradients: bool = False
    delayed_param_update: bool = False
    pcie: InterconnectSpec | None = None
    cpu_adam_elements_per_s: float = CPU_ADAM_ELEMENTS_PER_S
    checkpointing: bool = True

    def __post_init__(self):
        if self.offload_gradients and not self.offload_optimizer:
            raise ValueError(
                "offload_gradients requires offload_optimizer (the host-side "
                "Adam is what consumes the host-resident gradients)"
            )
        if self.delayed_param_update and not self.offload_optimizer:
            raise ValueError("delayed_param_update requires offload_optimizer")
        if self.cpu_adam_elements_per_s <= 0:
            raise ValueError("cpu_adam_elements_per_s must be positive")

    # -- the tier vocabulary of ``InfinityConfig``, derived ------------------

    @property
    def optimizer_tier(self) -> str:
        return "host" if self.offload_optimizer else "device"

    @property
    def grad_tier(self) -> str:
        return "host" if self.offload_gradients else "device"

    @property
    def param_tier(self) -> str:
        return "device"


@dataclass(frozen=True)
class OffloadStepReport:
    """One optimizer boundary's modeled timeline (within-step clock, t=0 at
    forward begin)."""

    compute_s: float  # forward + backward (all micro-batches)
    grad_d2h_s: float  # seconds of d2h lane occupancy (grad traffic)
    param_h2d_s: float  # wire time of the fp16 parameter refresh
    cpu_adam_s: float  # host Adam over this rank's partition
    grads_ready_s: float  # when the last gradient byte lands on the host
    carry_in_s: float  # DPU: previous step's deferred update tail
    step_s: float  # modeled wall time of the whole optimizer step


class OffloadRuntime:
    """Per-engine offload companion: owns the PCIe stream and the step clock.

    The engine drives it with three calls per optimizer boundary:
    ``begin_micro`` once per micro-batch (accumulates compute time),
    ``queue_grad_d2h`` per reduced gradient piece this rank owns (only
    when gradients are host-resident), and ``finish_step`` at the
    boundary, which schedules every transfer and appends a report.

    Works identically in meta mode — the model only ever sees byte counts
    and element counts, never values.
    """

    def __init__(
        self,
        ctx: RankContext,
        config: OffloadConfig,
        model_config: GPTConfig,
        *,
        mp_degree: int = 1,
    ):
        self.config = config
        self.model_config = model_config
        self.mp_degree = mp_degree
        self.peak_flops = ctx.device.spec.peak_flops
        self.stream = PCIeStream(
            config.pcie or ctx.topology.pcie, ledger=ctx.ledger, rank=ctx.rank
        )
        self.placement = Placement(
            "offload", config.optimizer_tier, config.grad_tier, config.param_tier,
            config.delayed_param_update, config.cpu_adam_elements_per_s,
        )
        # Everything that leaves the device lands in host DRAM.
        self._pools = {"device": ctx.device, "host": ctx.host}
        self.reports: list[OffloadStepReport] = []
        #: the last closed boundary (its inputs ride along as ``.inputs``).
        self.last_schedule: StepSchedule | None = None
        self._pending = StepInputs()

    def pool(self, tier: str) -> Device | HostMemory:
        """Byte-accounting pool for a tier (the surface the partitioned
        engine reads, as on ``InfinityEngine``)."""
        return self._pools[tier]

    def begin_micro(self, batch: int, seq_len: int) -> None:
        """Accrue one micro-batch's forward/backward compute time."""
        accrue_micro(self, batch, seq_len)

    def queue_grad_d2h(self, nbytes: int) -> None:
        """One owned gradient piece became host-bound during backward."""
        if nbytes > 0:
            self._pending.grad_pieces.append(int(nbytes))

    def finish_step(
        self,
        *,
        adam_numel: int,
        param_h2d_bytes: int,
        boundary_grad_bytes: int = 0,
    ) -> OffloadStepReport:
        """Schedule the boundary's transfers and close out the step clock.

        ``adam_numel`` / ``param_h2d_bytes`` are 0 on an overflow-skip step
        (master untouched, nothing to push back). ``boundary_grad_bytes``
        is the one-shot gradient-shard d2h used when gradients stay
        device-resident (offload_optimizer without offload_gradients).
        """
        sched = close_step(
            self, self.stream, None, adam_numel=adam_numel,
            refresh_bytes=param_h2d_bytes, boundary_grad_bytes=boundary_grad_bytes,
        )
        report = OffloadStepReport(
            compute_s=sched.compute_end,
            grad_d2h_s=self.stream.lane_busy_s("d2h"),
            param_h2d_s=sched.refresh_wire_s,
            cpu_adam_s=sched.cpu_adam_s,
            grads_ready_s=sched.grads_ready,
            carry_in_s=sched.inputs.carry_in_s,
            step_s=sched.step_s,
        )
        self.reports.append(report)
        return report

    def trace_step(self, tracer, t0: float) -> None:
        """Emit the just-finished boundary's transfer timeline onto
        telemetry side tracks (call after ``finish_step``): each PCIe
        transfer on a per-direction lane track, the host Adam on "host"."""
        trace_schedule(self.last_schedule, tracer, t0)
