"""Generated invariants of the tier schedule (``repro.infinity.schedule``).

A small fixed sample of seeded draws over placement x DPU x prefetch depth
x tiling x piece/gather/chunk counts (the ``repro.chaos`` generator idiom:
one ``random.Random(seed)`` per case, so a failure names its seed). Each
draw is evaluated on unledgered streams and checked for the properties
every consumer relies on: lanes serialize, ops respect their dependency
edges, the milestones are ordered, and the ops alone — as a ``StepGraph``
scheduled purely from dependencies — reproduce the step time.
"""

import random
from dataclasses import replace

import pytest

from repro.hardware.specs import NVME_RAID, PCIE_3_X16
from repro.infinity import InfinityConfig
from repro.infinity.schedule import (
    NVME_LANES,
    OPT_STATE_BYTES_PER_ELEM,
    PCIE_LANES,
    StepInputs,
    evaluate_step,
)
from repro.infinity.tiers import TIER_NAMES, TierStream
from repro.perfscope.graph import StepGraph, add_fleet_end
from repro.perfscope.runtime_replay import replay_runtime

pytestmark = pytest.mark.infinity

N_DRAWS = 50


def draw_case(seed: int) -> tuple[StepInputs, InfinityConfig]:
    """One legal (inputs, config) pair; ``InfinityConfig`` is the legality
    oracle, so the draw covers exactly what a user can configure."""
    rng = random.Random(seed)
    while True:
        tiers = dict(
            optimizer_tier=rng.choice(TIER_NAMES), grad_tier=rng.choice(TIER_NAMES),
            param_tier=rng.choice(TIER_NAMES), delayed_param_update=rng.random() < 0.5,
        )
        try:
            config = InfinityConfig(**tiers)
        except ValueError:
            continue
        break
    numel = rng.randint(1, 1 << 20)
    shard_bytes = 2 * numel
    n_units = rng.randint(1, 6) if tiers["param_tier"] != "device" else 0
    forward = [(rng.randint(1, shard_bytes), rng.randint(1, 4)) for _ in range(n_units)]
    n_pieces = rng.randint(1, 6) if tiers["grad_tier"] != "device" else 0
    host_adam = tiers["optimizer_tier"] != "device"
    skipped = rng.random() < 0.1  # overflow-skip boundary: no update, no refresh
    inputs = StepInputs(
        fwd_s=rng.uniform(1e-4, 1e-2),
        bwd_s=rng.uniform(1e-4, 1e-2),
        gathers={"forward": forward, "backward": forward[::-1]},
        grad_pieces=[rng.randint(1, shard_bytes) for _ in range(n_pieces)],
        boundary_grad_bytes=shard_bytes if host_adam and not n_pieces else 0,
        adam_numel=0 if skipped else numel,
        refresh_bytes=0 if skipped else shard_bytes,
        carry_in_s=rng.uniform(0.0, 2e-2) if tiers["delayed_param_update"] else 0.0,
    )
    n_chunks = rng.randint(1, 5)
    config = replace(
        config,
        cpu_adam_elements_per_s=rng.uniform(1e8, 1e10),
        prefetch_depth=rng.choice((1, 2, 3)),
        opt_chunk_bytes=2 * OPT_STATE_BYTES_PER_ELEM * -(-numel // n_chunks),
    )
    return inputs, config


def evaluate(inputs, config):
    return evaluate_step(
        inputs, config, TierStream(PCIE_3_X16, directions=PCIE_LANES),
        TierStream(NVME_RAID, directions=NVME_LANES),
    )


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_schedule_invariants(seed):
    inputs, config = draw_case(seed)
    sched = evaluate(inputs, config)
    ops = sched.ops

    # Every op starts exactly when its latest dependency ends (so never
    # before any of them), and edges only point backwards.
    for i, (_kind, _label, _track, start, end, _nbytes, _phase, deps) in enumerate(ops):
        assert end >= start >= 0.0
        assert all(d < i for d in deps)
        if deps:
            assert start == max(ops[d][4] for d in deps)

    # No two transfers on one lane, and no two host-Adam chunks, overlap.
    busy: dict[str, list[tuple[float, float]]] = {}
    for kind, _label, track, start, end, *_ in ops:
        if kind in ("xfer", "host"):
            busy.setdefault(track, []).append((start, end))
    for track, spans in busy.items():
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end, f"overlap on {track}"

    # Milestone order.
    assert sched.step_s >= sched.compute_end >= inputs.fwd_s + inputs.bwd_s
    assert sched.refresh_done >= sched.update_done >= sched.grads_ready >= sched.compute_end
    if not config.delayed_param_update:
        assert sched.carry_out == 0.0 and sched.step_s == max(
            sched.compute_end, sched.refresh_done
        )

    # The ops alone carry the timeline: as graph nodes they land on step_s
    # exactly, and with their times discarded, scheduling purely from the
    # dependency edges and durations reproduces it.
    g = StepGraph(0)
    replay_runtime(g, 0, sched)
    add_fleet_end(g)
    g.schedule()
    assert g.rank_step_s(0) == g.critical_path_s == sched.step_s
    for node in g.nodes:
        node.fixed = False
    g.schedule(observed_floors=False)
    assert g.rank_step_s(0) == pytest.approx(sched.step_s, rel=1e-12)

    # Re-pricing with the links it already had is the same schedule.
    assert evaluate(inputs, config).ops == ops
    again = StepGraph(0)
    replay_runtime(again, 0, sched, pcie=PCIE_3_X16, nvme=NVME_RAID)
    assert [(n.start_s, n.end_s, n.deps) for n in again.nodes] == [
        (o[3], o[4], list(o[7])) for o in ops
    ]


def test_draws_cover_the_option_space():
    """The fixed sample reaches every tier on every state class, DPU on
    and off, tiling, and multi-chunk paging."""
    cases = [draw_case(seed) for seed in range(N_DRAWS)]
    configs = [c for _, c in cases]
    for field in ("optimizer_tier", "grad_tier", "param_tier"):
        assert {getattr(c, field) for c in configs} == set(TIER_NAMES)
    assert {c.delayed_param_update for c in configs} == {False, True}
    assert {c.prefetch_depth for c in configs} == {1, 2, 3}
    assert any(t > 1 for i, _ in cases for _, t in i.gathers["forward"])
    assert any(
        sum(1 for o in evaluate(i, c).ops if o[0] == "host") > 1 for i, c in cases
    )
