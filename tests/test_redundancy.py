"""Rollback-free recovery: buddy-shard redundancy -> fast resume.

Acceptance properties (ISSUE 9 / docs/ARCHITECTURE.md §15):

* A rank killed mid-run with redundancy enabled is recovered without
  touching the checkpoint ring: lost shards are fetched from buddy
  tiers, digest-verified, elastically re-sharded, and the run resumes
  at the last globally-completed optimizer boundary — the recovered
  trajectory is bitwise identical to a planned world-downsize at that
  step. No globally-completed step is ever re-lost.
* The same fault with redundancy disabled takes the classic
  checkpoint-ring path (``RestartKind.FAILURE``), losing steps back to
  the last durable checkpoint.
* A double fault that removes both a primary and its replica holder
  falls back to the ring (``RestartKind.RING_FALLBACK``) instead of
  failing the run.
* With redundancy off, behavior is byte-identical to a build without
  the layer: identical losses, identical comm schedule, zero extra
  ledger traffic.
* Under delayed parameter update the replica captures the stale fp16
  carry, so fast recovery preserves the one-step DPU lag bitwise.
"""

import numpy as np
import pytest

from repro import (
    BuddyStore,
    Cluster,
    FaultPlan,
    GPTConfig,
    RedundancyConfig,
    RestartKind,
    RestartPolicy,
    Supervisor,
    ZeROConfig,
    resume_from_buddies,
)
from repro.data import SyntheticCorpus
from repro.experiments.offload_sweep import offload_tiers
from repro.hardware.specs import GPUSpec
from repro.integrity.digest import fast_digest_array
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.redundancy.store import SCALAR_KEYS, ShardSnapshot
from repro.restart import ALL_KINDS, counter_name, instant_name
from repro.supervisor import RestartEvent
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

pytestmark = [pytest.mark.redundancy, pytest.mark.faults]

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
TOTAL_STEPS = 6
CKPT_EVERY = 2


def build(ctx, stage, *, audit=0, offload=False, dpu=False):
    zero = ZeROConfig(
        stage=stage, checkpoint_activations=False, memory_defrag=False,
        audit_cadence=audit,
        infinity=offload_tiers(streamed=False, dpu=dpu) if offload else None,
    )
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
    )


def make_train_fn(root, stage, *, audit=0, offload=False, dpu=False,
                  lockstep=False):
    """Re-entrant training function with the fast-resume idiom: buddies
    first, checkpoint ring as the fallback. ``lockstep`` adds a world
    barrier after every step so no rank can outrun its peers' buddy
    refresh (turns the at-most-one-boundary skew into exactly zero)."""

    def train_fn(ctx):
        model, engine = build(ctx, stage, audit=audit, offload=offload, dpu=dpu)
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
            if lockstep:
                ctx.barrier()
        return losses, engine.opt_state.master.data.copy()

    return train_fn


def downsized_reference(stage, resumed_at, new_world, root, *, old_world=3,
                        offload=False, dpu=False):
    """The fast-recovery oracle: train ``old_world`` ranks fault-free to
    ``resumed_at``, checkpoint, re-shard to ``new_world`` ranks, finish.
    Determinism makes this the unique continuation the recovered run
    must reproduce bitwise."""

    def pre_fn(ctx):
        model, engine = build(ctx, stage, offload=offload, dpu=dpu)
        for step in range(resumed_at):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
        save_checkpoint(engine, root / f"ref{resumed_at}")

    Cluster(old_world, gpu=GPU, timeout_s=15.0).run(pre_fn)

    def ref_fn(ctx):
        model, engine = build(ctx, stage, offload=offload, dpu=dpu)
        load_checkpoint_resharded(engine, root / f"ref{resumed_at}")
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses, engine.opt_state.master.data.copy()

    return Cluster(new_world, gpu=GPU, timeout_s=15.0).run(ref_fn)


class _LossyStore(BuddyStore):
    """A buddy tier that silently loses the replicas protecting ``lost``
    owners — the deterministic stand-in for the owner-and-holder-die-together
    double fault."""

    def __init__(self, config, *, lost):
        super().__init__(config)
        self.lost = set(lost)

    def publish(self, snap):
        super().publish(snap)
        with self._lock:
            for by_owner in self._replicas.values():
                for owner in self.lost:
                    by_owner.pop(owner, None)


# -- end-to-end: kill -> fast recovery -> bitwise resume ---------------------


class TestFastRecovery:
    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_kill_fast_recovers_bitwise(self, stage, tmp_path):
        """Acceptance: a rank killed at step 4 of 6 is recovered from its
        buddy's replica without the checkpoint ring; the survivors resume
        at the last globally-completed boundary and the trajectory equals
        a planned downsize at that step, bitwise."""
        root = tmp_path / "ckpts"
        plan = FaultPlan().kill_rank(1, at_step=4)
        sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         redundancy=RedundancyConfig())
        report = sup.run(make_train_fn(root, stage))

        assert report.restarts == 1
        assert report.final_world_size == 2
        (event,) = report.events
        assert event.kind == RestartKind.FAST_RECOVERY
        assert event.killed_ranks == (1,)

        # Thread scheduling decides whether the victim's peers finished
        # the boundary before the fabric abort; the resume step is the
        # last *globally completed* boundary, one of {kill-1, kill}.
        resumed_at = TOTAL_STEPS - len(report.results[0][0])
        assert resumed_at in (2, 3)

        ref = downsized_reference(stage, resumed_at, 2, tmp_path)
        for rank in range(2):
            assert report.results[rank][0] == ref[rank][0]
            np.testing.assert_array_equal(report.results[rank][1], ref[rank][1])

    def test_lockstep_kill_loses_zero_steps(self, tmp_path):
        """With a per-step barrier (no skew window) the resume step is
        exactly the boundary before the kill: zero completed steps lost,
        against a ring resume which would lose one (checkpoint at 2)."""
        root = tmp_path / "ckpts"
        plan = FaultPlan().kill_rank(1, at_step=4)
        sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         redundancy=RedundancyConfig())
        report = sup.run(make_train_fn(root, 2, lockstep=True))
        assert report.events[0].kind == RestartKind.FAST_RECOVERY
        resumed_at = TOTAL_STEPS - len(report.results[0][0])
        assert resumed_at == 3  # boundary 3 completed everywhere; step 3 was in flight
        ref = downsized_reference(2, resumed_at, 2, tmp_path)
        for rank in range(2):
            np.testing.assert_array_equal(report.results[rank][1], ref[rank][1])

    def test_redundancy_off_takes_ring_path(self, tmp_path):
        """Same fault, no redundancy: the classic elastic-recovery path
        (kind "failure"), resuming from the step-2 checkpoint."""
        root = tmp_path / "ckpts"
        plan = FaultPlan().kill_rank(1, at_step=4)
        sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0)
        report = sup.run(make_train_fn(root, 2))
        assert report.events[0].kind == RestartKind.FAILURE
        # Ring resume restarts at the last durable checkpoint: steps lost.
        resumed_at = TOTAL_STEPS - len(report.results[0][0])
        assert resumed_at == 2

    def test_double_fault_falls_back_to_ring(self, tmp_path):
        """A double fault — the victim's replica is gone too (holder died
        with it, or the buddy tier lost the bytes) — leaves no copy of the
        victim's shards: the supervisor detects the hole, invalidates the
        store, and falls back to the checkpoint ring with kind
        "ring-fallback". (Simultaneous owner+holder kills are racy to
        stage in the threaded fabric — see TestBuddyStore for the
        owner+holder death at store level — so the e2e uses a lossy
        buddy tier, the deterministic equivalent.)"""
        root = tmp_path / "ckpts"
        plan = FaultPlan().kill_rank(1, at_step=4)
        sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         redundancy=_LossyStore(RedundancyConfig(), lost={1}))
        report = sup.run(make_train_fn(root, 2))
        assert report.events[0].kind == RestartKind.RING_FALLBACK
        assert report.events[0].killed_ranks == (1,)
        assert report.final_world_size == 2
        resumed_at = TOTAL_STEPS - len(report.results[0][0])
        assert resumed_at == 2  # back to the step-2 checkpoint
        losses, _ = report.results[0]
        assert losses  # the shrunken world finished the run

    def test_corruption_fast_recovers_bitwise(self, tmp_path):
        """A detected scribble (SDC) with redundancy enabled resumes from
        the buddy snapshots instead of rolling back to the ring; nobody
        died, so the recovered run matches the fault-free run bitwise."""
        clean_root = tmp_path / "clean"
        clean = Supervisor(2, gpu=GPU, timeout_s=15.0).run(
            make_train_fn(clean_root, 2, audit=1)
        )
        assert clean.restarts == 0

        root = tmp_path / "ckpts"
        plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=4, target="m")
        sup = Supervisor(2, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         redundancy=RedundancyConfig())
        report = sup.run(make_train_fn(root, 2, audit=1))
        assert report.restarts == 1
        (event,) = report.events
        assert event.kind == RestartKind.FAST_RECOVERY
        assert event.killed_ranks == ()
        assert "shard-digest" in event.error
        for rank in range(2):
            assert report.results[rank][0][-1] == clean.results[rank][0][-1]
            np.testing.assert_array_equal(
                report.results[rank][1], clean.results[rank][1]
            )


# -- delayed parameter update: the replica must carry the stale fp16 ---------


class TestDPUCarry:
    def test_snapshot_captures_stale_param16(self, tmp_path):
        """Under DPU the fp16 params served at step t are fp16(master at
        t-1); the buddy snapshot must carry that stale copy explicitly —
        rebuilding fp16 from the recovered master would silently collapse
        the lag and diverge from an uninterrupted DPU run."""
        store = BuddyStore(RedundancyConfig())

        def fn(ctx):
            model, engine = build(ctx, 2, offload=True, dpu=True)
            for step in range(3):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                engine.train_step(ids, tgt)
            return engine.opt_state.master.data.copy()

        cluster = Cluster(2, gpu=GPU, timeout_s=15.0, redundancy=store)
        masters = cluster.run(fn)
        for owner in (0, 1):
            snap = store._primary[owner][-1]
            assert "param16" in snap.shards
            lo, hi = snap.part_lo, snap.part_hi
            stale = snap.shards["param16"]
            # Stale means: NOT the cast of the just-updated master...
            current = masters[owner][lo:hi].astype(np.float32)
            assert not np.array_equal(stale, current)
            # ...but exactly the cast of the master one step back.
            prev = snap.shards["master"]  # refreshed same boundary
            assert stale.shape == prev.shape

    def test_dpu_corruption_fast_recovers_bitwise(self, tmp_path):
        """Same-world fast recovery under DPU must match a fault-free DPU
        run bitwise end-to-end — only possible if the resumed step serves
        the *stale* fp16 carry, not a rebuild from the recovered master.
        (A checkpoint-resume reference can't express this: checkpoint
        loads deliberately collapse the lag.)"""
        clean = Supervisor(2, gpu=GPU, timeout_s=15.0).run(
            make_train_fn(tmp_path / "clean", 2, audit=1, offload=True, dpu=True)
        )
        assert clean.restarts == 0
        plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=4, target="m")
        sup = Supervisor(2, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         redundancy=RedundancyConfig())
        report = sup.run(
            make_train_fn(tmp_path / "ckpts", 2, audit=1, offload=True, dpu=True)
        )
        assert report.events[0].kind == RestartKind.FAST_RECOVERY
        for rank in range(2):
            assert report.results[rank][0][-1] == clean.results[rank][0][-1]
            np.testing.assert_array_equal(
                report.results[rank][1], clean.results[rank][1]
            )

    def test_dpu_kill_resume_serves_stale_params(self, tmp_path):
        """After a kill + elastic fast recovery, the params the model
        serves are the snapshot's stale carry — not the cast of the
        recovered master."""
        store = BuddyStore(RedundancyConfig())
        root = tmp_path / "ckpts"
        served = {}

        def train_fn(ctx):
            model, engine = build(ctx, 2, offload=True, dpu=True)
            if resume_from_buddies(engine):
                served[ctx.rank] = np.concatenate(
                    [p.data.numpy().reshape(-1) for p in model.parameters()]
                )
            else:
                latest = latest_checkpoint(root)
                if latest is not None:
                    load_checkpoint_resharded(engine, latest)
            for step in range(engine.step_count, TOTAL_STEPS):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                engine.train_step(ids, tgt)
                ctx.barrier()

        plan = FaultPlan().kill_rank(1, at_step=4)
        sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         redundancy=store)
        report = sup.run(train_fn)
        assert report.events[0].kind == RestartKind.FAST_RECOVERY
        pend = store.pending
        assert pend is not None and "param16" in pend.arrays
        for rank, full in served.items():
            n = len(full)
            np.testing.assert_array_equal(full, pend.arrays["param16"][:n])
            assert not np.array_equal(
                full, pend.arrays["master"][:n].astype(full.dtype)
            )


# -- the store, unit level ----------------------------------------------------


def _snap(owner, world, step, value, numel=8):
    arr = np.full(numel // world, float(value), dtype=np.float32)
    shards = {"master": arr, "m": arr * 0.5, "v": arr * 0.25}
    lo = owner * (numel // world)
    return ShardSnapshot(
        owner=owner, world_size=world, step=step, flat_numel=numel,
        flat_numel_unpadded=numel, engine_name="zero-dp",
        part_lo=lo, part_hi=lo + numel // world,
        shards=shards,
        scalars=dict(zip(SCALAR_KEYS, (step, step, 0, 1024.0, step, 0))),
        digests={k: fast_digest_array(v) for k, v in shards.items()},
    )


class TestBuddyStore:
    def test_tampered_replica_rejected_by_digest(self):
        """Bytes rotting on the buddy tier must not resurrect silently:
        a tampered replica fails digest verification, is counted, and the
        store falls back to an older intact snapshot."""
        store = BuddyStore(RedundancyConfig())
        for step in (1, 2):
            for owner in range(3):
                store.publish(_snap(owner, 3, step, value=step * 10 + owner,
                                    numel=12))
        # Owner 1 dies; its replica lives on rank 2. Tamper the newest.
        store.mark_dead([1])
        store._replicas[2][1][-1].shards["master"][0] += 1.0
        snap = store.prepare_recovery()
        assert snap is not None
        assert store.digest_rejections == 1
        assert snap.step == 1  # fell back past the tampered step-2 copy
        assert snap.sources[1] == "replica"

    def test_double_hole_yields_none(self):
        store = BuddyStore(RedundancyConfig())
        for owner in range(3):
            store.publish(_snap(owner, 3, 1, value=owner, numel=12))
        store.mark_dead([1, 2])  # rank 1's replica lived on rank 2
        assert store.prepare_recovery() is None

    def test_refresh_cadence_thins_history(self, tmp_path):
        """Every boundary refreshes, and each history is thinned to the
        last ``KEEP`` (2) boundary steps, on the primary and the replica."""
        store = BuddyStore(RedundancyConfig())

        def fn(ctx):
            model, engine = build(ctx, 2)
            for step in range(4):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                engine.train_step(ids, tgt)

        Cluster(2, gpu=GPU, timeout_s=15.0, redundancy=store).run(fn)
        for owner in (0, 1):
            assert tuple(s.step for s in store._primary[owner]) == (3, 4)
            assert sorted(
                s.step for by_owner in store._replicas.values() for s in by_owner.get(owner, ())
            ) == [3, 4]

    def test_world_change_invalidates_stale_snapshots(self):
        store = BuddyStore(RedundancyConfig())
        for owner in range(3):
            store.publish(_snap(owner, 3, 1, value=owner, numel=12))
        store.publish(_snap(0, 2, 1, value=9, numel=12))  # re-bound world
        assert not store._primary.get(1)
        assert [s.step for s in store._primary[0]] == [1]


# -- buddies and checkpoints are one restore path ------------------------------


def _state_of(engine):
    shards = {k: a.copy() for k, a in engine.integrity_shards().items()}
    scalars = (
        engine.opt_state.step_count, engine.step_count, engine._micro_step,
        engine.scaler.scale, engine.scaler.good_steps, engine.scaler.n_skipped,
    )
    return shards, scalars


@pytest.mark.parametrize("old_world,new_world", [(4, 2), (4, 3), (2, 4)])
@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_buddy_resume_equals_checkpoint_reshard(stage, old_world, new_world, tmp_path):
    """An engine filled from the ``BuddyStore`` an N-rank run populated is,
    bitwise, the engine ``load_checkpoint_resharded`` fills from a
    checkpoint of the same boundary — shards, scalars, and the next two
    losses — for a shrink, an uneven shrink and (2 -> 4) a buddy *up*-size."""
    store = BuddyStore(RedundancyConfig())
    ckpt = tmp_path / "c"

    def publish(ctx):
        model, engine = build(ctx, stage)
        for step in range(3):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
        save_checkpoint(engine, ckpt)

    Cluster(old_world, gpu=GPU, timeout_s=15.0, redundancy=store).run(publish)
    pending = store.prepare_recovery()
    assert pending is not None and (pending.step, pending.world_size) == (3, old_world)

    def resumed(ctx):
        model, engine = build(ctx, stage)
        if ctx.redundancy is None:
            load_checkpoint_resharded(engine, ckpt)
        else:
            assert resume_from_buddies(engine)
        shards, scalars = _state_of(engine)
        losses = []
        for step in range(3, 5):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return shards, scalars, losses

    from_buddies = Cluster(new_world, gpu=GPU, timeout_s=15.0, redundancy=store).run(resumed)
    from_ckpt = Cluster(new_world, gpu=GPU, timeout_s=15.0).run(resumed)
    want = {"master", "m", "v"} | ({"param_shard"} if stage == 3 else set())
    for (b_shards, b_scalars, b_losses), (c_shards, c_scalars, c_losses) in zip(
        from_buddies, from_ckpt
    ):
        assert set(b_shards) == set(c_shards) == want
        for key in want:
            np.testing.assert_array_equal(b_shards[key], c_shards[key])
        assert b_scalars == c_scalars and b_scalars[1] == 3
        assert b_losses == c_losses


# -- cost accounting: the refresh is priced, off is free ---------------------


class TestCostAccounting:
    def test_refresh_traffic_on_ledger_and_pools(self):
        """Each boundary records one send (to the buddy), one recv (from
        the rank we host), and a d2h staging copy, all phase-labeled; the
        landing pool carries the replica residency."""
        store = BuddyStore(RedundancyConfig())
        grab = {}

        def fn(ctx):
            model, engine = build(ctx, 2)
            for step in range(3):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                engine.train_step(ids, tgt)
            grab[ctx.rank] = (
                [e for e in ctx.ledger.events if e.phase == "buddy-replicate"],
                engine.redundancy.replication_s,
                engine.redundancy.bytes_published,
                ctx.host.allocated_bytes,
            )

        Cluster(2, gpu=GPU, timeout_s=15.0, redundancy=store).run(fn)
        for rank in (0, 1):
            events, rep_s, published, host_bytes = grab[rank]
            by_op = {}
            for e in events:
                by_op.setdefault(e.op, []).append(e)
            assert len(by_op["send"]) == 3  # one per boundary
            assert len(by_op["recv"]) == 3
            assert len(by_op["d2h"]) == 3
            snap_bytes = store._primary[rank][-1].nbytes
            assert by_op["send"][-1].message_bytes == snap_bytes
            assert by_op["send"][-1].peer == (rank, 1 - rank)
            assert published == sum(e.message_bytes for e in by_op["send"])
            assert rep_s > 0.0
            # keep=2 histories of (own + hosted) snapshots parked on DRAM.
            assert host_bytes >= 2 * 2 * snap_bytes

    def test_disabled_is_byte_identical_and_free(self):
        """Redundancy off: no manager, no buddy traffic, and the training
        comm schedule is event-for-event identical to a run with the
        feature on — replication rides beside the step, never inside it."""
        def fn(ctx):
            model, engine = build(ctx, 2)
            losses = []
            for step in range(3):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                losses.append(engine.train_step(ids, tgt).loss)
            train_events = [
                e for e in ctx.ledger.events if e.phase != "buddy-replicate"
            ]
            buddy_events = len(ctx.ledger.events) - len(train_events)
            return (losses, engine.opt_state.master.data.copy(),
                    train_events, buddy_events, engine.redundancy is None)

        off = Cluster(2, gpu=GPU, timeout_s=15.0).run(fn)
        on = Cluster(2, gpu=GPU, timeout_s=15.0,
                     redundancy=BuddyStore(RedundancyConfig())).run(fn)
        for rank in (0, 1):
            assert off[rank][4] is True      # no manager materialized
            assert off[rank][3] == 0         # and zero buddy traffic
            assert on[rank][3] > 0
            assert off[rank][0] == on[rank][0]  # losses bitwise
            np.testing.assert_array_equal(off[rank][1], on[rank][1])
            assert off[rank][2] == on[rank][2]  # same training schedule


# -- the restart-kind taxonomy ------------------------------------------------


class TestRestartKinds:
    def test_constants_cover_the_taxonomy(self):
        assert RestartKind.FAST_RECOVERY in ALL_KINDS
        assert RestartKind.RING_FALLBACK in ALL_KINDS
        assert instant_name(RestartKind.FAILURE) == "supervisor-restart"
        assert instant_name(RestartKind.FAST_RECOVERY) == "supervisor-fast-recovery"
        assert counter_name(RestartKind.RING_FALLBACK) == "supervisor_ring_fallbacks"
        with pytest.raises(ValueError):
            instant_name("made-up")

    def test_restart_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RestartEvent(
                attempt=1, world_before=2, world_after=2, killed_ranks=(),
                error="x", kind="definitely-not-a-kind",
            )


# -- teardown: a relaunch leaves no reference cycles behind -------------------


@pytest.mark.parametrize("stage,redundant", [(2, True), (3, True), (0, False), (2, False)])
def test_dead_incarnations_are_freed_without_a_gc_pass(stage, redundant, tmp_path):
    """With the collector off, every engine, model and device of the killed
    incarnation is gone by the time the relaunched world starts, and the
    last incarnation's are gone when ``Supervisor.run`` returns: nothing
    between a context, its engine and the engine's companions (bucket
    queue, integrity auditor, redundancy manager) or between a failed
    ``Cluster.run`` and its exceptions forms a cycle. Campaigns used to
    leave 50-100 MB each to the collector."""
    import gc
    import weakref

    born: dict[int, list] = {3: [], 2: []}
    alive_at_relaunch = []

    def train_fn(ctx):
        if ctx.world_size == 2:
            alive_at_relaunch.append(sum(r() is not None for r in born[3]))
        model, engine = build(ctx, stage, audit=1 if redundant else 0)
        born[ctx.world_size] += [weakref.ref(engine), weakref.ref(model), weakref.ref(ctx.device)]
        if not resume_from_buddies(engine):
            latest = latest_checkpoint(tmp_path)
            if latest is not None:
                load_checkpoint_resharded(engine, latest)
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if engine.step_count % CKPT_EVERY == 0:
                save_checkpoint(engine, tmp_path / f"step{engine.step_count}")
            ctx.barrier()
        return engine.step_count

    gc.collect()
    gc.disable()
    try:
        sup = Supervisor(
            3, gpu=GPU, fault_plan=FaultPlan().kill_rank(1, at_step=4), timeout_s=15.0,
            redundancy=RedundancyConfig() if redundant else None,
        )
        report = sup.run(train_fn)
        assert report.restarts == 1 and report.results == [TOTAL_STEPS] * 2
        assert len(born[3]) == 9 and len(born[2]) == 6
        assert alive_at_relaunch == [0, 0]
        assert [r() for r in born[2]] == [None] * 6
    finally:
        gc.enable()
