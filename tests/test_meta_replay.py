"""A member of a meta ``Cluster``'s rank class replays its leader's step.

Ranks that build the same meta engine over the world group run the same
step: the lowest one, the leader, runs it and every other member makes it
in one ``Device.apply`` plus the leader's ledger events and rendezvous
tags. What every rank allocates, records and returns must be what it
would have done running the step itself; the goldens below were computed
before members replayed anything.
"""

from __future__ import annotations

import collections
import hashlib
import json
import sys
import threading
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.comm.fabric import FabricAbortedError
from repro.configs import TABLE5_FIGURE2
from repro.experiments import fig2, fig6
from repro.experiments.common import meta_engine
from repro.hardware.specs import V100_32GB, GPUSpec
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.units import GB
from repro.zero.config import PAPER_CONFIGS
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh
from tests.streams import _DeviceNotes, _Stream, ledger_digest

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
WORLD, WARM, STEADY = 8, 2, 4


def _meta_batch(device):
    return (Tensor.meta((2, 16), np.int64, device=device),
            Tensor.meta((2, 16), np.int64, device=device))


def _engine(ctx, stage: int, md: bool = False, model: GPTConfig = CFG, accumulate: int = 1):
    _, engine = build_model_and_engine(
        ctx, model, ZeROConfig(stage=stage, memory_defrag=md), dp_group=ctx.world,
        seed=0, meta=True, md_region_bytes=(1 << 20) if md else None,
        engine_config=EngineConfig(gradient_accumulation_steps=accumulate),
    )
    return engine


def world_job(stage: int, md: bool, world: int = WORLD, model: GPTConfig = CFG,
              accumulate: int = 1) -> list[dict]:
    """Per rank of a ``world``-rank meta world: its device's totals and
    cache counters, its ledger's digest and its steady steps' results,
    after ``WARM`` warm-up and ``STEADY`` steady steps. Every rank has
    built its engine, and its leader has led a step, before a member steps
    on (a harness barrier, not the fabric's): a member waits for its
    leader's step only once the leader has led one, and may otherwise run
    all its steps before the leader's first."""
    cluster = Cluster(world, gpu=GPU, timeout_s=60.0)
    gate = threading.Barrier(world)

    def fn(ctx):
        engine = _engine(ctx, stage, md, model, accumulate)
        ids, tgt = _meta_batch(ctx.device)
        for _ in range(WARM):
            gate.wait(30.0)
            engine.train_step(ids, tgt)
        results = [list(astuple(engine.train_step(ids, tgt))) for _ in range(STEADY)]
        device, stats = ctx.device, ctx.device.cache.stats()
        return {
            "max_allocated": device.max_allocated_bytes,
            "allocated": device.allocated_bytes,
            "reserved": device.reserved_bytes,
            "hits": stats.n_cache_hits,
            "misses": stats.n_cache_misses,
            "flushes": stats.n_flushes,
            "results": results,
        }

    ranks = cluster.run(fn)
    for rank, ledger in zip(ranks, cluster.ledgers):
        rank["ledger"] = ledger_digest([ledger])
    return ranks


def _digest(ranks: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ranks, sort_keys=True).encode()).hexdigest()


#: (stage, MD) -> (digest of every rank's record, rank 0's peak allocated),
#: computed before a member replayed its leader's step
WORLD_GOLDEN = {
    (1, False): ("61a8c58c395732b4e2589eddeeaabdee119f4cedca0facf0c1413876c01917cf", 17028608),
    (2, False): ("1c51b4e0c35146a5948e9cdd534eed173314b9b797227c7357e575e678ad2b03", 17036288),
    (3, False): ("3aa3eaae51272fa8538be673bb72eea8bd67482aaa2f1732112212c49bae4b4e", 16971264),
    (2, True): ("487094a9c22e47683f9699aea474a9f9b1366c74f911e29e80ed3875d3bc3c1d", 17024512),
}


@pytest.mark.parametrize("stage, md", sorted(WORLD_GOLDEN))
def test_every_rank_of_a_meta_world_matches_the_parent_commit(stage, md):
    ranks = world_job(stage, md)
    assert len({json.dumps(r, sort_keys=True) for r in ranks}) == 1  # the ranks are one class
    assert (_digest(ranks), ranks[0]["max_allocated"]) == WORLD_GOLDEN[stage, md]


# -- a virtual rank stands for its world ----------------------------------------


def _md_bytes(zero) -> int | None:
    """The MD region ``meta_memory_step`` gives a config that defragments."""
    return int(2 * GB) if zero.memory_defrag else None


def _virtual_rank(model, zero, n_gpus: int, mp: int, batch: int, gpu) -> tuple:
    """Rank 0 of the world on one thread: its ledger as (op, bytes, phase)
    and its peak, after two steps."""
    ctx = virtual_rank_context(n_gpus, gpu=gpu)
    engine, ids, tgt = meta_engine(
        ctx, model, zero, mp=mp, batch=batch, seq_len=SEQ, md_region_bytes=_md_bytes(zero)
    )
    for _ in range(2):
        engine.train_step(ids, tgt)
    return [(e.op, e.message_bytes, e.phase) for e in ctx.ledger.events], ctx.device.max_allocated_bytes


def _threaded_world(model, zero, n_gpus: int, mp: int, batch: int, gpu) -> list[tuple]:
    """The same two steps on every rank of a threaded meta ``Cluster``."""
    mesh = Mesh.of_world(n_gpus, mp)

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, model, zero, dp_group=ctx.group(mesh.dp_group(ctx.rank)),
            mp_group=ctx.group(mesh.mp_group(ctx.rank)) if mp > 1 else None, meta=True,
            md_region_bytes=_md_bytes(zero),
        )
        ids = Tensor.meta((batch, SEQ), np.int64, device=ctx.device)
        tgt = Tensor.meta((batch, SEQ), np.int64, device=ctx.device)
        for _ in range(2):
            engine.train_step(ids, tgt)
        return [(e.op, e.message_bytes, e.phase) for e in ctx.ledger.events], ctx.device.max_allocated_bytes

    return Cluster(n_gpus, gpu=gpu, timeout_s=120.0).run(fn)


SEQ = 1024
#: Figure 2's roomy device: that experiment measures time, not capacity
FIG2_GPU = GPUSpec("fig2-virtual", 64 * int(GB), 125e12)
#: Figure 2's points at one layer: ZeRO at MP 1 and 4, the baseline at MP 8
FIG2_POINTS = [TABLE5_FIGURE2[i] for i in (0, 2, 3)]


@pytest.mark.parametrize("point", FIG2_POINTS, ids=lambda p: f"{p.label}-{p.system}-mp{p.mp}")
def test_every_rank_of_a_figure_2_world_is_its_virtual_rank(point):
    """Figure 2 prices one virtual rank's ledger for the whole world; every
    rank of the full threaded world records the same volumes and peaks
    the same."""
    model, gpu = replace(point.model, n_layers=1), FIG2_GPU
    virtual = _virtual_rank(model, fig2.zero_config(point), point.n_gpus, point.mp, point.batch, gpu)
    ranks = _threaded_world(model, fig2.zero_config(point), point.n_gpus, point.mp, point.batch, gpu)
    assert [r for r, rank in enumerate(ranks) if rank != virtual] == []


@pytest.mark.parametrize("name", sorted(PAPER_CONFIGS))
def test_every_rank_of_a_figure_6_world_is_its_virtual_rank(name):
    """Figure 6 solves each config's largest model on one virtual rank of
    128 GPUs at MP 16; every rank of the threaded world (one layer deep)
    peaks and records as that rank does."""
    model = GPTConfig(n_layers=1, hidden=fig6.HIDDEN, n_heads=fig6.HEADS)
    args = (model, PAPER_CONFIGS[name], fig6.N_GPUS, fig6.MP, fig6.BATCH, V100_32GB)
    virtual = _virtual_rank(*args)
    ranks = _threaded_world(*args)
    assert [r for r, rank in enumerate(ranks) if rank != virtual] == []


# -- members replay -------------------------------------------------------------------


def _replays(monkeypatch) -> collections.Counter:
    """Steps each rank made from its leader's record, from here on."""
    replayed = collections.Counter()
    set_counters = BaseEngine._set_counters

    def counted(engine, counters):
        replayed[engine.ctx.rank] += 1
        set_counters(engine, counters)

    monkeypatch.setattr(BaseEngine, "_set_counters", counted)
    return replayed


def test_stage_3_members_replay_their_leaders_steady_steps(monkeypatch):
    """Stage 3's steady step is closed and every allocation in it an exact
    size-class hit, so once the leader has led a step each member makes
    every later one from the leader's record. (Stages 1 and 2 of this
    model reuse a larger cached block for one request each step, which
    no transition can make: their members run their own steps, and the
    goldens above pin both paths.)"""
    replayed = _replays(monkeypatch)
    ranks = world_job(3, False)
    assert (_digest(ranks), ranks[0]["max_allocated"]) == WORLD_GOLDEN[3, False]
    assert replayed == {r: WARM + STEADY - 1 for r in range(1, WORLD)}


@pytest.mark.timeout_guard(120)
def test_replay_does_not_depend_on_the_host_scheduler(monkeypatch):
    """Sixteen ranks on two cores, switching threads every microsecond or
    every 50 ms: every member replays the same steps, and every rank ends
    with the same device, ledger and results either way."""
    replayed = _replays(monkeypatch)
    runs = []
    previous = sys.getswitchinterval()
    for interval in (1e-6, 0.05):
        replayed.clear()
        sys.setswitchinterval(interval)
        try:
            ranks = world_job(3, False, world=16)
        finally:
            sys.setswitchinterval(previous)
        assert replayed == {r: WARM + STEADY - 1 for r in range(1, 16)}, interval
        runs.append({json.dumps(r, sort_keys=True) for r in ranks})
    assert len(runs[0]) == 1 and runs[0] == runs[1]


WIDE = GPTConfig(n_layers=3, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
#: (stage, micro-batches per step) -> (digest, rank 0's peak) of ``world_job``
#: on a wider model (stage 3 on ``CFG``), where every stage's steady steps
#: are exact size-class hits; computed before a member replayed anything
REPLAY_GOLDEN = {
    (0, 1): ("ca52b5dc259e6ad830cdab299142d7b48b3dbaed3988fe251464ecaec74c800f", 19608576),
    (1, 1): ("94f909d45c87cccaf97f78dc907f50c9383d14256db64c9621e9fdc9de395782", 17839104),
    (2, 1): ("8f3ae0b0cdd1ff6ce76af5f8f712004fc8ee324f4e273cb23076fa1caa3563b5", 17881600),
    (2, 2): ("16a9e0e12ff4f427770c07103780b8b89a4650775693437829fa3e8ec18fd696", 17881600),
    (3, 2): ("7f285be9d8e5a0549363d39412b8fba834ca4383c33201df6edb6e56b68ed71c", 16971264),
}


@pytest.mark.parametrize("stage, accumulate", sorted(REPLAY_GOLDEN))
def test_replayed_steps_match_the_parent_commit_at_every_stage(monkeypatch, stage, accumulate):
    """Where every member replays, at each stage and under gradient
    accumulation, every rank still allocates, records and returns what
    it did before members replayed anything."""
    replayed = _replays(monkeypatch)
    ranks = world_job(stage, False, model=WIDE if stage < 3 else CFG, accumulate=accumulate)
    assert (_digest(ranks), ranks[0]["max_allocated"]) == REPLAY_GOLDEN[stage, accumulate]
    assert sorted(replayed) == list(range(1, WORLD)) and min(replayed.values()) > 0


def test_a_heard_member_runs_the_leaders_step_itself(monkeypatch):
    """After members have replayed k steps, a no-op door subscriber on one
    of them makes it run its next step itself; the door stream it emits
    is the leader's for the same step, bitwise, so replaying kept the
    member's state up with the leader's."""
    world, k = 4, 3
    replayed = _replays(monkeypatch)
    streams = {0: _Stream(), 2: _Stream()}
    gate = threading.Barrier(world)

    def fn(ctx):
        engine = _engine(ctx, 3)
        ids, tgt = _meta_batch(ctx.device)
        for step in range(k + 2):
            if step < 2:
                gate.wait(30.0)
            engine.train_step(ids, tgt)
        gate.wait(30.0)
        if ctx.rank in streams:
            ctx.device.subscribe(_DeviceNotes(streams[ctx.rank], ctx.device))
        gate.wait(30.0)
        engine.train_step(ids, tgt)
        return ctx.device.max_allocated_bytes, ctx.device.allocated_bytes, ctx.device.reserved_bytes

    totals = Cluster(world, gpu=GPU, timeout_s=60.0).run(fn)
    assert replayed == {1: k + 2, 2: k + 1, 3: k + 2}  # rank 2 heard its last step
    assert streams[2].events > 0
    assert (streams[2].digest, streams[2].events) == (streams[0].digest, streams[0].events)
    assert len(set(totals)) == 1


# -- no hangs -----------------------------------------------------------------------


class LeaderFailure(RuntimeError):
    pass


def _stranded_members(monkeypatch, leader_step) -> tuple[list, float]:
    """A 4-rank stage-3 class whose members have replayed two steps; then
    ``leader_step(engine, ids, tgt)`` runs on the leader instead of its
    third step. Returns what each member raised, with how long it waited,
    and checks ``Cluster.run`` re-raised the leader's own error."""
    world, timeout = 4, 2.0
    gate = threading.Barrier(world)
    raised: list = [None] * world

    def fn(ctx):
        engine = _engine(ctx, 3)
        ids, tgt = _meta_batch(ctx.device)
        for step in range(3):
            if step < 2:
                gate.wait(30.0)
            engine.train_step(ids, tgt)
        gate.wait(30.0)
        if ctx.rank == 0:
            leader_step(engine, ids, tgt, raised)
            return
        t0 = time.monotonic()
        try:
            engine.train_step(ids, tgt)
        except BaseException as exc:
            raised[ctx.rank] = (type(exc), time.monotonic() - t0)
            raise

    replayed = _replays(monkeypatch)
    with pytest.raises(LeaderFailure):
        Cluster(world, gpu=GPU, timeout_s=timeout).run(fn)
    assert replayed == {r: 2 for r in range(1, world)}
    return raised[1:], timeout


@pytest.mark.timeout_guard(60)
def test_a_leader_that_fails_mid_step_strands_no_member(monkeypatch):
    """The leader raises inside its step's backward: every member waiting
    for that step's record raises ``FabricAbortedError`` at once, and the
    run raises the leader's error."""
    from repro.zero.stage3 import ZeroStage3Engine

    after_unit = ZeroStage3Engine.after_unit

    def failing(engine, unit):
        if engine.ctx.rank == 0 and engine.phase == "backward" and engine.step_count == 4:
            raise LeaderFailure("the leader failed mid-step")
        after_unit(engine, unit)

    monkeypatch.setattr(ZeroStage3Engine, "after_unit", failing)
    members, timeout = _stranded_members(
        monkeypatch, lambda engine, ids, tgt, raised: engine.train_step(ids, tgt)
    )
    assert [kind for kind, _ in members] == [FabricAbortedError] * 3
    assert max(waited for _, waited in members) < timeout


@pytest.mark.timeout_guard(60)
def test_a_leader_that_never_steps_strands_no_member(monkeypatch):
    """The leader stops stepping: every member waiting for its next step's
    record raises ``FabricAbortedError`` once the fabric's timeout has
    passed, while the leader is still running, and the run raises the
    leader's own error."""

    def never_steps(engine, ids, tgt, raised):
        deadline = time.monotonic() + 30.0
        while None in raised[1:] and time.monotonic() < deadline:
            time.sleep(0.01)
        raise LeaderFailure("the leader never stepped")

    members, timeout = _stranded_members(monkeypatch, never_steps)
    assert [kind for kind, _ in members] == [FabricAbortedError] * 3
    assert all(timeout <= waited < 3 * timeout for _, waited in members)
