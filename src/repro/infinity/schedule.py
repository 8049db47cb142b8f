"""The tier schedule: one optimizer boundary's overlapped step timeline.

ZeRO-Offload and ZeRO-Infinity are one design: model states live on some
tier of the device -> host -> NVMe stack, and the step overlaps their
movement with compute. ``evaluate_step`` is the only place that timeline
is computed. It takes what the runtime captured during the step
(``StepInputs``) and where the states live (the ``InfinityConfig``),
books every transfer on ``TierStream`` lanes, and returns a
``StepSchedule``: the ordered ops with their dependency edges plus the
milestones the step reports are filled from. Three consumers read it:

- ``InfinityEngine`` (ZeRO-Offload is its host-only placement) calls it
  with its ledgered streams at each boundary;
- Perfscope turns the ops into ``StepGraph`` nodes and, for a what-if,
  calls it again on unledgered streams with re-banded links;
- the sweeps feed it ``StepInputs.uniform`` — equal pieces, the inputs
  the ZeRO-Offload / ZeRO-Infinity closed forms assume — through
  ``steady_step`` and compare it with the engines' real pieces.

Clock: within-step model time, t = 0 at forward begin. Rules:

- **Paged gathers** (stage 3, off-device shards): a pass's units compute
  in sequence over uniform slices of its window; unit i's page-in is
  submitted when unit ``i - prefetch_depth`` starts computing (the pass
  start for the leading units), tile by tile, NVMe reads chaining into
  PCIe. A unit starts once its first tile landed and ends no earlier
  than its last tile plus one tile's compute.
- **Streamed gradients**: piece i of k is submitted when (i+1)/k of the
  backward window has elapsed, forwarded one more hop to an NVMe tier.
- **The update**: host Adam after the last gradient byte lands; with
  NVMe-resident state, chunks flow through an in -> update -> out
  pipeline, the one-time Adam latency on the first chunk only.
- **Refresh**: the fp16 shard goes back to the parameter tier.
- **DPU**: the update and refresh ride the next step's compute; the step
  waits only for its gradients and the previous step's deferred tail.

An op is the tuple ``(kind, label, track, start, end, nbytes, phase,
deps)``: ``kind`` is xfer | compute | host | window | carry | milestone,
``deps`` are indices of earlier ops (an xfer also depends on its lane's
previous occupant), and every op starts exactly when its latest
dependency ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analysis.perf_model import compute_split_seconds
from repro.hardware.specs import InterconnectSpec
from repro.infinity.tiers import TierStream
from repro.nn.transformer import GPTConfig
from repro.zero.placement import Mesh

if TYPE_CHECKING:
    from repro.infinity.config import InfinityConfig

# Host Adam: the fp32 master, momentum and variance (the K = 12 bytes/param
# of the paper's Section 3.1) live on the host and the step runs there.
# Adam is memory-bound on a CPU: each element touches ~28 bytes of fp32
# state (read master/m/v/grad, write master/m/v), so throughput is
# DRAM-bandwidth-limited. The default 1e9 elements/s is a vectorized
# multi-core implementation sustaining ~28 GB/s, the ballpark ZeRO-Offload
# reports for its optimized CPU Adam on a DGX-2 class host.
CPU_ADAM_ELEMENTS_PER_S = 1.0e9
CPU_ADAM_LATENCY_S = 50e-6  # kernel launch / thread-pool wake per step

#: optimizer-state bytes per element paged each way (fp32 master + m + v).
OPT_STATE_BYTES_PER_ELEM = 12

#: ledger phase labels (the tier traffic's identity in CommLedger).
PHASES = {
    "grad": "infinity-grad", "param": "infinity-param",
    "opt": "infinity-opt", "refresh": "infinity-refresh",
}
PCIE_LANES = ("d2h", "h2d")
NVME_LANES = ("nvme-out", "nvme-in")


def cpu_adam_seconds(
    numel: int, *, elements_per_s: float = CPU_ADAM_ELEMENTS_PER_S
) -> float:
    """Modeled wall time of one host Adam step over ``numel`` elements."""
    if numel <= 0:
        return 0.0
    return CPU_ADAM_LATENCY_S + numel / elements_per_s


@dataclass(slots=True)
class StepInputs:
    """What a runtime captures between two optimizer boundaries."""

    fwd_s: float = 0.0  # forward compute seconds, all micro-batches
    bwd_s: float = 0.0
    #: per pass, the (nbytes, tiles) of each paged unit gather, in order.
    gathers: dict[str, list[tuple[int, int]]] = field(
        default_factory=lambda: {"forward": [], "backward": []}
    )
    grad_pieces: list[int] = field(default_factory=list)  # streamed, bytes
    boundary_grad_bytes: int = 0  # one-shot shard d2h (device-resident grads)
    adam_numel: int = 0  # 0 on an overflow-skip step
    refresh_bytes: int = 0  # fp16 shard pushed back; 0 on a skip step
    carry_in_s: float = 0.0  # DPU: the previous step's deferred tail

    @classmethod
    def uniform(
        cls,
        model_config: GPTConfig,
        config: InfinityConfig,
        *,
        batch: int,
        seq_len: int,
        checkpointing: bool,
        numel: int,
        peak_flops: float,
        grad_chunks: int = 1,
        gathers: dict[str, list[tuple[int, int]]] | None = None,
    ) -> StepInputs:
        """One micro-batch over a ``numel``-element fp16 shard, cut the way
        the closed forms assume: ``grad_chunks`` equal gradient pieces (or
        one boundary d2h when gradients stay on the device under a host
        Adam). ``checkpointing`` is the model's recompute switch
        (``ZeROConfig.checkpoint_activations``). ``gathers`` is a per-pass
        ``(nbytes, tiles)`` profile, e.g. an engine's ``last_gathers``; none
        by default."""
        part = 2 * numel
        fwd, bwd = compute_split_seconds(
            model_config, batch, seq_len, checkpointing=checkpointing,
            mesh=Mesh(), peak_flops=peak_flops,
        )
        streamed = config.grad_tier != "device"
        return cls(
            fwd_s=fwd, bwd_s=bwd,
            gathers=gathers or {"forward": [], "backward": []},
            grad_pieces=[part // grad_chunks] * grad_chunks if streamed else [],
            boundary_grad_bytes=0 if streamed or config.optimizer_tier == "device" else part,
            adam_numel=numel, refresh_bytes=part,
        )


@dataclass(slots=True)
class StepSchedule:
    """One evaluated boundary: its inputs, the ops, and the milestones."""

    inputs: StepInputs
    config: InfinityConfig
    links: tuple[InterconnectSpec, InterconnectSpec]  # pcie, nvme
    ops: list[tuple]
    compute_end: float  # forward + backward including gather stalls
    grads_ready: float  # last gradient byte on its tier
    update_done: float  # last updated byte back on the optimizer tier
    refresh_done: float
    step_s: float
    carry_out: float  # DPU: tail deferred into the next step
    cpu_adam_s: float  # host Adam seconds, all chunks
    refresh_wire_s: float
    opt_page_in_s: float  # NVMe lane seconds paging optimizer state in
    opt_page_out_s: float


def steady_step(
    inputs: StepInputs, config: InfinityConfig, pcie: InterconnectSpec, nvme: InterconnectSpec
) -> StepSchedule:
    """The steady-state boundary of ``inputs`` repeated: evaluated on fresh
    unledgered streams over ``pcie`` / ``nvme`` and, under DPU, once more
    carrying the first pass's deferred tail."""
    streams = TierStream(pcie, directions=PCIE_LANES), TierStream(nvme, directions=NVME_LANES)
    sched = evaluate_step(inputs, config, *streams)
    if config.delayed_param_update:
        sched = evaluate_step(replace(inputs, carry_in_s=sched.carry_out), config, *streams)
    return sched


def evaluate_step(
    inputs: StepInputs,
    config: InfinityConfig,
    pcie: TierStream,
    nvme: TierStream,
) -> StepSchedule:
    """Book one boundary's transfers on the streams (reset first) and
    return its schedule. Placements that keep everything above NVMe book
    nothing on ``nvme``."""
    pcie.reset()
    nvme.reset()
    lanes = {"d2h": pcie, "h2d": pcie, "nvme-in": nvme, "nvme-out": nvme}
    ops: list[tuple] = []
    lane_last: dict[str, int] = {}

    def op(kind, label, track, start, end, deps) -> int:
        ops.append((kind, label, track, start, end, 0, "", deps))
        return len(ops) - 1

    def xfer(nbytes, direction, submit, ph, deps):
        h = lanes[direction].copy_async(nbytes, direction, submit_t=submit, phase=ph)
        if direction in lane_last:
            deps += (lane_last[direction],)
        lane_last[direction] = i = len(ops)
        ops.append(
            ("xfer", direction, "lane-" + direction, h.start_t, h.done_t, h.nbytes, ph, deps)
        )
        return i, h

    def compute_pass(mode, gathers, window_s, t0, t0_op):
        """One pass with prefetched gathers; returns (end time, the op
        whose end it is)."""
        if not gathers:
            return t0 + window_s, op("compute", mode, "main", t0, t0 + window_s, (t0_op,))
        slice_s = window_s / len(gathers)
        depth = config.prefetch_depth
        starts: list[float] = []
        begins: list[int] = []
        t, prev = t0, t0_op
        for i, (nbytes, tiles) in enumerate(gathers):
            submit, anchor = (starts[i - depth], begins[i - depth]) if i >= depth else (t0, t0_op)
            # Even byte split across tiles (remainder on the last tile);
            # the lanes serialize a unit's tiles.
            base, rem = divmod(nbytes, tiles)
            for j in range(tiles):
                tile_bytes = base + (rem if j == tiles - 1 else 0)
                hop_submit, deps = submit, (anchor,)
                if config.param_tier == "nvme":
                    r, rh = xfer(tile_bytes, "nvme-in", submit, PHASES["param"], deps)
                    hop_submit, deps = rh.done_t, (r,)
                last, h = xfer(tile_bytes, "h2d", hop_submit, PHASES["param"], deps)
                if j == 0:
                    first, first_arrive = last, h.done_t
            last_arrive = h.done_t
            start = max(t, first_arrive)
            ubegin = op("milestone", mode + "-unit-begin", "main", start, start, (prev, first))
            comp = op("compute", mode + "-unit", "main", start, start + slice_s, (ubegin,))
            tail_end = last_arrive + slice_s / tiles
            tail = op("window", mode + "-gather-tail", "main", last_arrive, tail_end, (last,))
            t = max(start + slice_s, tail_end)
            prev = op("milestone", mode + "-unit-end", "main", t, t, (comp, tail))
            starts.append(start)
            begins.append(ubegin)
        return t, prev

    begin = op("milestone", "step-begin", "main", 0.0, 0.0, ())
    # 1. Compute window, stretched by paged parameter gathers.
    fwd_end, fwd_tail = compute_pass("forward", inputs.gathers["forward"], inputs.fwd_s, 0.0, begin)
    compute_end, bwd_tail = compute_pass(
        "backward", inputs.gathers["backward"], inputs.bwd_s, fwd_end, fwd_tail
    )
    # 2. Gradients stream out during backward.
    bwd_window = compute_end - fwd_end
    grad_hops: list[tuple] = []
    k = len(inputs.grad_pieces)
    for i, nbytes in enumerate(inputs.grad_pieces):
        submit = fwd_end + bwd_window * (i + 1) / k
        win = op("window", "grad-stream-window", "main", fwd_end, submit, (fwd_tail,))
        hop, h = xfer(nbytes, "d2h", submit, PHASES["grad"], (win,))
        if config.grad_tier == "nvme":
            hop, h = xfer(nbytes, "nvme-out", h.done_t, PHASES["grad"], (hop,))
        grad_hops.append((hop, h))
    if inputs.boundary_grad_bytes:
        grad_hops.append(
            xfer(inputs.boundary_grad_bytes, "d2h", compute_end, PHASES["grad"], (bwd_tail,))
        )
    grads_ready, ready_deps = compute_end, (bwd_tail,)
    for hop, h in grad_hops:
        h.synchronized = True
        grads_ready = max(grads_ready, h.done_t)
        ready_deps += (hop,)
    ready = op("milestone", "grads-ready", "main", grads_ready, grads_ready, ready_deps)
    # 3. The update: host Adam, NVMe state paged around it in chunks.
    per_s = config.cpu_adam_elements_per_s
    adam_s = page_in_s = page_out_s = 0.0
    update_done, tail = grads_ready, ready
    if inputs.adam_numel > 0 and config.optimizer_tier == "host":
        adam_s = cpu_adam_seconds(inputs.adam_numel, elements_per_s=per_s)
        update_done = grads_ready + adam_s
        tail = op("host", "cpu-adam", "host", grads_ready, update_done, (ready,))
    elif inputs.adam_numel > 0 and config.optimizer_tier == "nvme":
        # Gradients already host-resident feed the update for free;
        # NVMe-resident gradients page in alongside the state.
        in_bpe = OPT_STATE_BYTES_PER_ELEM + (2 if config.grad_tier == "nvme" else 0)
        out_bpe = OPT_STATE_BYTES_PER_ELEM
        chunk_elems = max(1, config.opt_chunk_bytes // (in_bpe + out_bpe))
        adam_free, adam_op = grads_ready, ready
        lo = 0
        while lo < inputs.adam_numel:
            e = min(chunk_elems, inputs.adam_numel - lo)
            r, rh = xfer(e * in_bpe, "nvme-in", grads_ready, PHASES["opt"], (ready,))
            chunk_adam = e / per_s + (CPU_ADAM_LATENCY_S if lo == 0 else 0.0)
            adam_start = max(adam_free, rh.done_t)
            adam_free = adam_start + chunk_adam
            adam_s += chunk_adam
            adam_op = op("host", "cpu-adam", "host", adam_start, adam_free, (adam_op, r))
            tail, wh = xfer(e * out_bpe, "nvme-out", adam_free, PHASES["opt"], (adam_op,))
            update_done = wh.done_t
            page_in_s += rh.wire_s
            page_out_s += wh.wire_s
            lo += e
    # 4. fp16 shard refresh: master -> parameter tier, hop by hop.
    refresh_done, refresh_wire = update_done, 0.0
    if inputs.refresh_bytes > 0:
        master_on_host = config.optimizer_tier != "device"
        if config.param_tier == "device":
            hops = ("h2d",) if master_on_host else ()
        else:
            hops = (() if master_on_host else ("d2h",)) + (
                ("nvme-out",) if config.param_tier == "nvme" else ()
            )
        for direction in hops:
            tail, h = xfer(
                inputs.refresh_bytes, direction, refresh_done, PHASES["refresh"], (tail,)
            )
            refresh_done = h.done_t
            refresh_wire += h.wire_s
    # 5. Step end.
    if config.delayed_param_update:
        # This step waits only for its gradients and for the previous
        # step's deferred tail, which must land before the stale
        # parameters it produced can be consumed.
        step_s = max(compute_end, grads_ready, inputs.carry_in_s)
        carry_out = refresh_done - grads_ready
        end_deps = (bwd_tail, ready)
        if inputs.carry_in_s > 0:
            end_deps += (op("carry", "dpu-carry", "host", 0.0, inputs.carry_in_s, (begin,)),)
    else:
        step_s = max(compute_end, refresh_done)
        carry_out = 0.0
        end_deps = (bwd_tail, tail)
    op("milestone", "step-end", "main", step_s, step_s, end_deps)
    return StepSchedule(
        inputs=inputs, config=config,
        links=(pcie.link, nvme.link), ops=ops,
        compute_end=compute_end, grads_ready=grads_ready, update_done=update_done,
        refresh_done=refresh_done, step_s=step_s, carry_out=carry_out,
        cpu_adam_s=adam_s, refresh_wire_s=refresh_wire,
        opt_page_in_s=page_in_s, opt_page_out_s=page_out_s,
    )
