"""Elastic recovery: rank failure -> smaller world -> re-shard -> bitwise resume.

The acceptance property: an injected permanent rank failure mid-run is
recovered by the Supervisor — the world re-forms at a smaller DP degree,
stage-1/2/3 state re-shards from the last durable checkpoint, and the
post-recovery trajectory matches an uninterrupted run resumed from the
same checkpoint bitwise.
"""

import numpy as np
import pytest

from repro import (
    Cluster,
    FaultPlan,
    GPTConfig,
    RestartPolicy,
    RetryPolicy,
    Supervisor,
    ZeROConfig,
)
from repro.comm.faults import RankKilledError
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

pytestmark = pytest.mark.faults

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
TOTAL_STEPS = 6
CKPT_EVERY = 2


def build(ctx, stage):
    zero = ZeROConfig(stage=stage, checkpoint_activations=False, memory_defrag=False)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
    )


def make_train_fn(root, stage):
    """A re-entrant training function: resume from the latest durable
    checkpoint, train to TOTAL_STEPS, checkpoint every CKPT_EVERY steps."""

    def train_fn(ctx):
        model, engine = build(ctx, stage)
        latest = latest_checkpoint(root)
        if latest is not None:
            load_checkpoint_resharded(engine, latest)
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
            if engine.step_count % CKPT_EVERY == 0:
                save_checkpoint(engine, root / f"step{engine.step_count}")
        return losses, engine.opt_state.master.data.copy()

    return train_fn


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_rank_failure_recovered_bitwise(stage, tmp_path):
    """Kill one of three ranks at step 4; the supervisor re-forms a 2-rank
    world from the step-2 checkpoint and the recovered trajectory equals an
    uninterrupted 2-rank resume from that same checkpoint, bitwise."""
    root = tmp_path / "ckpts"
    plan = FaultPlan().kill_rank(1, at_step=4)
    sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0)
    report = sup.run(make_train_fn(root, stage))

    assert report.restarts == 1
    assert report.final_world_size == 2
    assert len(report.events) == 1
    assert report.events[0].killed_ranks == (1,)
    assert report.events[0].world_before == 3 and report.events[0].world_after == 2
    assert plan.killed_ranks == [1]

    # Reference: a fresh 2-rank world resuming from the same (3-rank,
    # step-2) checkpoint, never interrupted.
    def ref_fn(ctx):
        model, engine = build(ctx, stage)
        load_checkpoint_resharded(engine, root / "step2")
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses, engine.opt_state.master.data.copy()

    ref = Cluster(2, gpu=GPU, timeout_s=15.0).run(ref_fn)
    for rank in range(2):
        assert report.results[rank][0] == ref[rank][0]  # losses bitwise
        np.testing.assert_array_equal(report.results[rank][1], ref[rank][1])


def test_transient_escalation_restarts_same_world(tmp_path):
    """A transient fault that exhausts its retry budget fails the attempt;
    the supervisor relaunches at the *same* world size (nobody died) and
    the retry clears."""
    root = tmp_path / "ckpts"
    plan = FaultPlan().fail_collective(rank=0, op="reduce", nth=1, times=3)
    sup = Supervisor(
        2, gpu=GPU, fault_plan=plan, timeout_s=15.0,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
    )
    report = sup.run(make_train_fn(root, stage=2))
    assert report.restarts == 1
    assert report.final_world_size == 2
    assert report.events[0].killed_ranks == ()
    # The completed run trained all the way through.
    losses, _ = report.results[0]
    assert len(losses) == TOTAL_STEPS


def test_supervisor_gives_up_after_max_restarts(tmp_path):
    root = tmp_path / "ckpts"
    plan = FaultPlan().kill_rank(0, at_step=1)
    sup = Supervisor(
        2, gpu=GPU, fault_plan=plan, timeout_s=15.0,
        policy=RestartPolicy(max_restarts=0),
    )
    with pytest.raises(RankKilledError):
        sup.run(make_train_fn(root, stage=2))


def test_supervisor_respects_min_world_size(tmp_path):
    """With no survivor left the supervisor gives up however many
    restarts remain."""
    root = tmp_path / "ckpts"
    plan = FaultPlan().kill_rank(0, at_step=1).kill_rank(1, at_step=1)
    sup = Supervisor(
        2, gpu=GPU, fault_plan=plan, timeout_s=15.0,
        policy=RestartPolicy(max_restarts=3),
    )
    with pytest.raises(RankKilledError) as info:
        sup.run(make_train_fn(root, stage=1))
    assert "no rank survived" in "".join(getattr(info.value, "__notes__", []))


def test_programming_errors_propagate_without_restart(tmp_path):
    sup = Supervisor(2, gpu=GPU, timeout_s=15.0)
    calls = []

    def bad_fn(ctx):
        calls.append(ctx.rank)
        raise KeyError("not a comm failure")

    with pytest.raises(KeyError):
        sup.run(bad_fn)
    assert sorted(calls) == [0, 1]  # one attempt, no relaunch


def test_two_sequential_failures_shrink_twice(tmp_path):
    """4 ranks -> kill one at step 2 -> 3 ranks -> kill one at step 4 ->
    2 ranks finish the job; every transition re-shards."""
    import gc
    import weakref

    root = tmp_path / "ckpts"
    plan = FaultPlan().kill_rank(3, at_step=2).kill_rank(2, at_step=4)
    sup = Supervisor(4, gpu=GPU, fault_plan=plan, timeout_s=15.0)
    train = make_train_fn(root, stage=2)
    fabrics, alive_at_start = [], []

    def train_fn(ctx):
        if ctx.rank == 0:
            gc.collect()  # free whatever of the dead attempts can be freed
            alive_at_start.append([ref() is not None for ref in fabrics])
            fabrics.append(weakref.ref(ctx.fabric))
        return train(ctx)

    report = sup.run(train_fn)
    assert report.restarts == 2
    assert report.final_world_size == 2
    assert [e.world_after for e in report.events] == [3, 2]
    losses, _ = report.results[0]
    assert losses  # the surviving world completed the remaining steps
    # ``ctx.fabric`` identifies the attempt to the training function, so a
    # dead attempt's fabric outlives it (its address cannot be handed to a
    # later attempt's) — until the run is over.
    assert alive_at_start == [[], [True], [True, True]]
    del report
    gc.collect()
    assert [ref() for ref in fabrics] == [None] * 3
