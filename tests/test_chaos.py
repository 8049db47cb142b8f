"""Chaos soak: seeded mixed-fault campaigns against the Supervisor.

Acceptance (ISSUE 9): the Supervisor survives ten randomized campaigns
mixing rank kills, silent scribbles, checkpoint rot, transient
collective faults, and gray-failure perf rules — and *surviving* is not
the bar: with buddy redundancy every fault is either absorbed or
fast-recovered, so the survivors' final state must be bitwise identical
to a fault-free run that re-shards at the campaign's planned downsize
schedule. Any silent divergence (a lost step, a resurrected stale
shard, a collapsed DPU carry) fails the oracle.
"""

from collections import Counter

import numpy as np
import pytest

from repro import (
    Cluster,
    GPTConfig,
    RedundancyConfig,
    RestartKind,
    RestartPolicy,
    RetryPolicy,
    Supervisor,
    ZeROConfig,
    resume_from_buddies,
)
from repro.chaos import ChaosCampaign, generate_campaign
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

pytestmark = [pytest.mark.chaos, pytest.mark.faults]

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
WORLD = 4
TOTAL_STEPS = 8
CKPT_EVERY = 2


# Each seed's injected ``FaultEvent``s ``(kind, rank, op, detail)`` per
# rank, in that rank's firing order (pinned at 5fc718f). Only per-rank order
# is pinned: ``FaultPlan.events`` orders cross-rank events by arrival, and
# seeds 0, 3 and 9 reorder their four ranks' ``ckpt-rot`` events between runs.
EVENTS_GOLDEN = {
    0: {
        0: [
            ("ckpt-rot", 0, "checkpoint", "rank0.npz, 1 bit(s), save 1"),
            ("scribble", 0, "step", "m at step 5, 1 bit(s)"),
        ],
        1: [("ckpt-rot", 1, "checkpoint", "rank1.npz, 1 bit(s), save 1")],
        2: [
            ("transient", 2, "barrier", "match 8"),
            ("ckpt-rot", 2, "checkpoint", "rank2.npz, 1 bit(s), save 1"),
        ],
        3: [
            ("ckpt-rot", 3, "checkpoint", "rank3.npz, 1 bit(s), save 1"),
            ("kill", 3, "step", "at step 3"),
        ],
    },
    1: {
        0: [
            ("scribble", 0, "step", "master at step 3, 1 bit(s)"),
            ("scribble", 0, "step", "m at step 5, 1 bit(s)"),
        ],
        3: [("transient", 3, "all_gather", "match 7")],
    },
    2: {},
    3: {
        0: [
            ("transient", 0, "reduce", "match 10"),
            ("ckpt-rot", 0, "checkpoint", "rank0.npz, 1 bit(s), save 1"),
            ("scribble", 0, "step", "m at step 4, 1 bit(s)"),
            ("scribble", 0, "step", "v at step 7, 1 bit(s)"),
        ],
        1: [("ckpt-rot", 1, "checkpoint", "rank1.npz, 1 bit(s), save 1")],
        2: [("ckpt-rot", 2, "checkpoint", "rank2.npz, 1 bit(s), save 1")],
        3: [("ckpt-rot", 3, "checkpoint", "rank3.npz, 1 bit(s), save 1")],
    },
    4: {
        0: [("scribble", 0, "step", "v at step 3, 1 bit(s)")],
        3: [("transient", 3, "reduce", "match 3")],
    },
    5: {
        0: [("scribble", 0, "step", "v at step 3, 1 bit(s)")],
        1: [("kill", 1, "step", "at step 8")],
        2: [("kill", 2, "step", "at step 5")],
    },
    6: {
        1: [
            ("kill", 1, "step", "at step 5"),
            ("kill", 1, "step", "at step 6"),
        ],
    },
    7: {
        3: [("kill", 3, "step", "at step 6")],
    },
    8: {
        0: [("scribble", 0, "step", "master at step 6, 1 bit(s)")],
    },
    9: {
        0: [
            ("ckpt-rot", 0, "checkpoint", "rank0.npz, 1 bit(s), save 1"),
            ("scribble", 0, "step", "v at step 4, 1 bit(s)"),
            ("scribble", 0, "step", "master at step 8, 1 bit(s)"),
        ],
        1: [
            ("ckpt-rot", 1, "checkpoint", "rank1.npz, 1 bit(s), save 1"),
            ("kill", 1, "step", "at step 5"),
        ],
        2: [("ckpt-rot", 2, "checkpoint", "rank2.npz, 1 bit(s), save 1")],
        3: [
            ("transient", 3, "reduce", "match 10"),
            ("ckpt-rot", 3, "checkpoint", "rank3.npz, 1 bit(s), save 1"),
        ],
    },
}

def build(ctx):
    zero = ZeROConfig(stage=2, checkpoint_activations=False,
                      memory_defrag=False, audit_cadence=1)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
    )


def make_train_fn(root):
    """Lock-step supervised training: buddies first, ring as fallback,
    checkpointing every CKPT_EVERY steps (rot rules need files to rot)."""

    def train_fn(ctx):
        model, engine = build(ctx)
        if not resume_from_buddies(engine):
            latest = latest_checkpoint(root)
            if latest is not None:
                load_checkpoint_resharded(engine, latest)
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
            if engine.step_count % CKPT_EVERY == 0:
                save_checkpoint(engine, root / f"step{engine.step_count}")
            ctx.barrier()
        return losses, engine.opt_state.master.data.copy()

    return train_fn


def reference_final_state(campaign: ChaosCampaign, root):
    """The campaign's oracle: fault-free planned downsizes at exactly the
    schedule the kills force, resumed through checkpoint re-sharding."""

    def segment(world, load_from, until, save_to):
        def fn(ctx):
            model, engine = build(ctx)
            if load_from is not None:
                load_checkpoint_resharded(engine, load_from)
            losses = []
            for step in range(engine.step_count, until):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                losses.append(engine.train_step(ids, tgt).loss)
            if save_to is not None:
                save_checkpoint(engine, save_to)
            return losses, engine.opt_state.master.data.copy()

        return Cluster(world, gpu=GPU, timeout_s=15.0).run(fn)

    world = campaign.world
    load_from = None
    for i, (step, world_after) in enumerate(campaign.downsize_schedule()):
        save_to = root / f"ref{i}"
        segment(world, load_from, step, save_to)
        load_from, world = save_to, world_after
    return segment(world, load_from, campaign.total_steps, None)


@pytest.mark.parametrize("seed", range(10))
def test_campaign_survived_and_bitwise_identical(seed, tmp_path):
    campaign = generate_campaign(seed, world=WORLD, total_steps=TOTAL_STEPS)
    plan = campaign.build_plan()
    sup = Supervisor(
        campaign.world, gpu=GPU, fault_plan=plan, timeout_s=15.0,
        retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
        policy=RestartPolicy(max_restarts=8, quarantine_after=99),
        redundancy=RedundancyConfig(),
    )
    report = sup.run(make_train_fn(tmp_path / "ckpts"))

    fired = [(e.kind, e.rank, e.op, e.detail) for e in plan.events]
    for rank in range(campaign.world):
        assert [e for e in fired if e[1] == rank] == EVENTS_GOLDEN[seed].get(rank, [])
    want = [e for events in EVENTS_GOLDEN[seed].values() for e in events]
    assert Counter(fired) == Counter(want)

    assert report.restarts == campaign.expected_restarts, campaign.describe()
    assert report.final_world_size == campaign.final_world
    # Every restart this generator can provoke is buddy-servable.
    assert all(e.kind == RestartKind.FAST_RECOVERY for e in report.events), (
        campaign.describe(), [e.kind for e in report.events],
    )

    ref = reference_final_state(campaign, tmp_path)
    for rank in range(campaign.final_world):
        assert report.results[rank][0][-1] == ref[rank][0][-1], campaign.describe()
        np.testing.assert_array_equal(report.results[rank][1], ref[rank][1])


def test_generator_is_deterministic_and_survivable():
    """Same seed, same campaign; drawn compositions respect the
    survivability envelope the module promises."""
    for seed in range(25):
        a = generate_campaign(seed)
        assert a == generate_campaign(seed)
        kill_steps = [s for _, s in a.kills]
        assert kill_steps == sorted(kill_steps)
        assert len(set(kill_steps)) == len(kill_steps)
        scribble_steps = [s for _, s, _ in a.scribbles]
        assert not set(kill_steps) & set(scribble_steps)
        assert all(r == 0 for r, _, _ in a.scribbles)
        assert all(r >= 1 for r, _ in a.kills)
        assert a.final_world >= 2
        assert all(3 <= s <= a.total_steps for s in kill_steps + scribble_steps)
    # The sweep actually mixes families (not all-empty draws).
    drawn = [generate_campaign(s) for s in range(10)]
    assert any(c.kills for c in drawn)
    assert any(c.scribbles for c in drawn)
    assert any(c.perf_rules for c in drawn)
