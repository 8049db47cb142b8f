"""Tier-runtime boundaries as graph nodes: an adapter over the tier schedule.

``InfinityEngine`` evaluates each boundary with
``repro.infinity.schedule.evaluate_step`` and, when Perfscope recording is
on, leaves the resulting ``StepSchedule`` in ``Tracer.runtime_steps``. Its
ops already carry times and dependency edges (what bound: compute, the
grad stream, the CPU Adam, a lane, the DPU carry), so building the rank's
part of a ``StepGraph`` is a one-to-one copy and the replayed step end *is*
the engine's ``step_s``.

A what-if re-prices the same boundary: the schedule keeps its inputs and
``InfinityConfig``, so ``evaluate_step`` runs again on unledgered streams
over the overridden links (and a config with the overridden CPU-Adam rate,
validated like any other) — same structure, re-priced edges.
"""

from __future__ import annotations

from dataclasses import replace

from repro.infinity.schedule import NVME_LANES, PCIE_LANES, StepSchedule, evaluate_step
from repro.infinity.tiers import TierStream
from repro.perfscope.graph import XFER_LINK, StepGraph


def replay_runtime(g: StepGraph, rank: int, payload: StepSchedule, *,
                   pcie=None, nvme=None, adam_rate=None) -> None:
    """Add one captured runtime boundary to ``g`` as rank ``rank``'s nodes."""
    sched = payload
    if pcie is not None or nvme is not None or adam_rate is not None:
        config = sched.config
        if adam_rate is not None:
            config = replace(config, cpu_adam_elements_per_s=adam_rate)
        pcie_link, nvme_link = sched.links
        sched = evaluate_step(
            sched.inputs, config,
            TierStream(pcie_link if pcie is None else pcie, directions=PCIE_LANES),
            TierStream(nvme_link if nvme is None else nvme, directions=NVME_LANES),
        )
    base = len(g.nodes)
    chain = []
    for op_kind, label, track, start, end, nbytes, phase, deps in sched.ops:
        is_xfer = op_kind == "xfer"
        node = g.add(
            rank=rank, kind=op_kind, label=label, track=track, dur_s=end - start,
            deps=[base + d for d in deps], op=label if is_xfer else None,
            nbytes=nbytes, phase=phase, link=XFER_LINK[label] if is_xfer else None,
            fixed=True, start_s=start, end_s=end,
        )
        if op_kind == "compute" or not chain:
            chain.append(node.nid)
    g.rank_chain[rank] = chain  # step-begin, then the compute spine
    g.rank_end[rank] = node.nid  # step-end is the schedule's last op
    g.observed_step_s[rank] = payload.step_s
