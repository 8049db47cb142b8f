"""Silent-data-corruption defense: injection -> detection -> rollback.

Acceptance properties (ISSUE 4 / docs/ARCHITECTURE.md §10):

* A seeded scribble in a stage-2 optimizer shard is detected by the
  digest/cross-rank audit within the audit cadence, the Supervisor rolls
  back to the last *verified* checkpoint, and the resumed run's final
  params are bitwise identical to a fault-free run of the same seed.
* Injected checkpoint bit rot is rejected at load (checksum mismatch)
  and the retention ring falls back to the previous verified checkpoint
  instead of failing the run.
* With integrity disabled (the default ``audit_cadence=0``), behavior is
  byte-identical to a build without the layer: no auditor object, no
  audit collectives, identical losses and final state.
* The detection taxonomy holds: post-reduce flips diverge one replica
  (cross-rank audit's job); pre-reduce flips keep replicas bitwise
  identical while silently corrupting them all (only the sentinels can
  see those); scribbles on owned shards trip the digest guard before the
  optimizer can launder them into a legitimate-looking update.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    Cluster,
    CorruptionDetectedError,
    FaultPlan,
    GPTConfig,
    RestartPolicy,
    Supervisor,
    VerifiedCheckpointRing,
    ZeROConfig,
)
from repro.comm.fabric import Fabric
from repro.comm.group import ProcessGroup
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.experiments.offload_sweep import offload_tiers
from repro.integrity import SpikeWindow
from repro.integrity.digest import (
    digest_array,
    digest_scalars,
    fast_digest_array,
)
from repro.optim.adam import AdamHyperparams
from repro.restart import RestartKind
from repro.parallel.engine import EngineConfig
from repro.zero.checkpoint_io import (
    is_complete_checkpoint,
    latest_checkpoint,
    load_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

pytestmark = [pytest.mark.sdc, pytest.mark.faults]

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
WORLD = 2


def build(ctx, stage, *, audit=0, dtype=np.float32):
    zero = ZeROConfig(stage=stage, checkpoint_activations=False,
                      memory_defrag=False, audit_cadence=audit)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=dtype, seed=3,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
    )


def train(engine, ctx, start, steps):
    losses = []
    for step in range(start, start + steps):
        ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
        losses.append(engine.train_step(ids, tgt).loss)
    return losses


# -- digests -----------------------------------------------------------------


class TestDigests:
    def test_deterministic_and_sensitive_to_one_element(self):
        a = np.arange(64, dtype=np.float32)
        assert digest_array(a) == digest_array(a.copy())
        b = a.copy()
        b[17] = np.nextafter(b[17], np.float32(np.inf))  # one-ulp difference
        assert digest_array(a) != digest_array(b)

    def test_distinguishes_dtype_and_shape(self):
        a32 = np.zeros(8, dtype=np.float32)
        assert digest_array(a32) != digest_array(np.zeros(8, dtype=np.float16))
        assert digest_array(a32) != digest_array(np.zeros((2, 4), dtype=np.float32))

    def test_scalar_digest_covers_every_field(self):
        base = digest_scalars(3, 0, 3, 1024.0, 2, 0)
        assert base == digest_scalars(3, 0, 3, 1024.0, 2, 0)
        assert base != digest_scalars(3, 0, 3, 512.0, 2, 0)
        assert base != digest_scalars(4, 0, 3, 1024.0, 2, 0)

    def test_fast_digest_single_bit_sensitivity(self):
        """The guard's fast hash must catch any single flipped bit — the
        hardware threat model — in any byte, including a non-word tail."""
        rng = np.random.default_rng(2)
        for size in (64, 67):  # word-aligned and ragged-tail buffers
            a = rng.standard_normal(size).astype(np.float32)
            base = fast_digest_array(a)
            assert base == fast_digest_array(a.copy())
            assert 0 <= base < 2**32
            for byte in (0, size * 2 + 1, size * 4 - 1):
                b = a.copy()
                b.view(np.uint8)[byte] ^= 0x04
                assert fast_digest_array(b) != base, byte

    def test_fast_digest_distinguishes_dtype_and_shape(self):
        a = np.zeros(8, dtype=np.float32)
        assert fast_digest_array(a) != fast_digest_array(np.zeros(8, np.float16))
        assert fast_digest_array(a) != fast_digest_array(np.zeros((2, 4), np.float32))


# -- anomaly sentinels -------------------------------------------------------


class TestSpikeWindow:
    def test_normal_values_pass(self):
        w = SpikeWindow("loss", min_history=2, spike_factor=10.0)
        assert all(w.observe(v) is None for v in (2.0, 2.1, 1.9, 2.05))

    def test_non_finite_flagged_immediately(self):
        w = SpikeWindow("loss")
        assert w.observe(float("nan")) is not None
        assert w.observe(float("inf")) is not None
        assert w.observe(float("-inf")) is not None

    def test_spike_needs_history(self):
        w = SpikeWindow("grad-norm", min_history=4, spike_factor=10.0)
        assert w.observe(1e9) is None  # no baseline yet -> benign
        for v in (1.0, 1.1, 0.9, 1.0):
            assert w.observe(v) is None
        assert w.observe(1e9) is not None

    def test_anomaly_does_not_pollute_the_window(self):
        w = SpikeWindow("loss", min_history=2, spike_factor=10.0)
        for v in (1.0, 1.0, 1.0):
            w.observe(v)
        assert w.observe(1e6) is not None
        # The spike was not admitted as history: normal values still pass,
        # an equal follow-up spike still trips.
        assert w.observe(1.0) is None
        assert w.observe(1e6) is not None


# -- injection (FaultPlan corruption rules) ----------------------------------


def _carrying_group(plan):
    """A two-rank group the plan answers for, as ``Cluster`` subscribes it."""
    group = ProcessGroup(Fabric(2), (0, 1))
    for rank in group.ranks:
        group.subscribe(plan, rank)
    return group


def _engine_stub(rank, step, shards=None):
    """What the plan's ``step_begin`` / ``checkpoint_written`` read of an engine."""
    return SimpleNamespace(
        ctx=SimpleNamespace(rank=rank), step_count=step, is_meta=False, tracer=None,
        integrity_shards=lambda: shards,
    )


class TestInjection:
    def test_flip_is_seeded_and_copy_on_write(self):
        arr = np.arange(32, dtype=np.float32)
        outs = []
        for _ in range(2):
            plan = FaultPlan(seed=5).flip_bits(rank=0, op="all_reduce")
            out = _carrying_group(plan)._ask("_carrying", 0, arr, "all_reduce", "post")
            assert out is not arr
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])  # same seed, same flip
        np.testing.assert_array_equal(arr, np.arange(32, dtype=np.float32))
        assert digest_array(outs[0]) != digest_array(arr)

    def test_flip_fires_bounded_times_and_matches_rule(self):
        plan = FaultPlan(seed=5).flip_bits(rank=1, op="all_gather", nth=2, times=1)
        group, arr = _carrying_group(plan), np.ones(4, dtype=np.float32)

        def carry(rank, op, when):
            return group._ask("_carrying", rank, arr, op, when)

        assert carry(0, "all_gather", "post") is arr  # rank
        assert carry(1, "all_reduce", "post") is arr  # op
        assert carry(1, "all_gather", "pre") is arr   # when
        assert carry(1, "all_gather", "post") is arr  # match 1
        assert carry(1, "all_gather", "post") is not arr
        assert carry(1, "all_gather", "post") is arr  # spent
        assert [e.kind for e in plan.events] == ["bitflip"]

    def test_scribble_rule_consumed_once(self):
        plan = FaultPlan(seed=5).scribble_tensor(rank=1, at_step=3, target="m")
        shards = {k: np.zeros(8, np.float32) for k in ("master", "m", "v")}
        plan.step_begin(_engine_stub(0, 3, shards), True)
        plan.step_begin(_engine_stub(1, 2, shards), True)
        assert plan.events == []
        plan.step_begin(_engine_stub(1, 3, shards), True)
        flipped = {k: int(np.unpackbits(a.view(np.uint8)).sum()) for k, a in shards.items()}
        assert flipped == {"master": 0, "m": 1, "v": 0}  # target m, one bit
        after = shards["m"].copy()
        plan.step_begin(_engine_stub(1, 4, shards), True)  # stays consumed (restarts too)
        np.testing.assert_array_equal(shards["m"], after)
        assert [e.kind for e in plan.events] == ["scribble"]

    def test_rot_flips_file_bits_in_place(self, tmp_path):
        path = tmp_path / "rank0.npz"
        payload = bytes(range(256)) * 8
        path.write_bytes(payload)
        plan = FaultPlan(seed=5).rot_checkpoint(rank=0, bits=3)
        plan.checkpoint_written(_engine_stub(0, 1), path)
        rotted = path.read_bytes()
        assert len(rotted) == len(payload) and rotted != payload
        plan.checkpoint_written(_engine_stub(0, 2), path)
        assert path.read_bytes() == rotted  # bounded
        assert [e.kind for e in plan.events] == ["ckpt-rot"]

    def test_builder_validation(self):
        with pytest.raises(ValueError, match="pre"):
            FaultPlan().flip_bits(when="mid")
        with pytest.raises(ValueError, match="target"):
            FaultPlan().scribble_tensor(rank=0, at_step=1, target="weights")
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan().rot_checkpoint(nth=0)


# -- detection ---------------------------------------------------------------


class TestDetection:
    @pytest.mark.parametrize("stage,target", [(2, "master"), (1, "v"), (3, "param_shard")])
    def test_scribble_trips_shard_digest_guard(self, stage, target):
        """A bit flip in an owned shard is caught at the next optimizer
        boundary, before the optimizer consumes the shard."""
        plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=3, target=target)

        def fn(ctx):
            model, engine = build(ctx, stage, audit=4)
            train(engine, ctx, 0, 5)

        with pytest.raises(CorruptionDetectedError) as info:
            Cluster(WORLD, gpu=GPU, timeout_s=15.0, fault_plan=plan).run(fn)
        assert info.value.kind == "shard-digest"
        assert info.value.rank == 1
        assert info.value.step == 3

    def test_matches_recorded_vouches_for_another_readers_digests(self):
        """The buddy refresh compares its copies' fingerprints with the
        guard's through ``matches_recorded``: equal digests pass, a shard
        that changed since the fingerprint raises."""
        def fn(ctx):
            model, engine = build(ctx, 2, audit=4)
            train(engine, ctx, 0, 1)
            mine = {k: fast_digest_array(a) for k, a in engine.integrity_shards().items()}
            engine.integrity.matches_recorded(mine)
            engine.integrity.matches_recorded({**mine, "param16": 7})  # not a guarded shard
            with pytest.raises(RuntimeError, match="changed between the integrity fingerprint"):
                engine.integrity.matches_recorded({**mine, "m": mine["m"] ^ 1})
            return True

        assert all(Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn))

    @pytest.mark.offload
    def test_scribble_on_host_resident_shard_is_detected(self):
        """ZeRO-Offload keeps the Adam moments in host DRAM, but the
        digest guard sees the same flat arrays through ``.data`` — a
        scribble on the host-resident ``v`` shard is caught identically."""
        plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=3, target="v")

        def fn(ctx):
            zero = ZeROConfig(stage=2, checkpoint_activations=False,
                              memory_defrag=False, audit_cadence=2,
                              infinity=offload_tiers(streamed=True))
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
                engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
            )
            train(engine, ctx, 0, 5)

        with pytest.raises(CorruptionDetectedError) as info:
            Cluster(WORLD, gpu=GPU, timeout_s=15.0, fault_plan=plan).run(fn)
        assert info.value.kind == "shard-digest"
        assert info.value.rank == 1
        assert info.value.step == 3

    def test_post_reduce_flip_trips_cross_rank_audit(self):
        """A post-reduce flip diverges one rank's replica of state ZeRO
        replicates; the periodic digest all-gather catches it."""
        plan = FaultPlan(seed=11).flip_bits(rank=1, op="all_gather", when="post")

        def fn(ctx):
            model, engine = build(ctx, 2, audit=1)
            train(engine, ctx, 0, 5)

        with pytest.raises(CorruptionDetectedError) as info:
            Cluster(WORLD, gpu=GPU, timeout_s=15.0, fault_plan=plan).run(fn)
        assert info.value.kind == "cross-rank"

    def test_pre_reduce_flip_is_invisible_to_replica_comparison(self):
        """A pre-reduce flip corrupts the *contribution*, so every rank
        reduces the same wrong value: replicas stay bitwise identical (the
        audit passes by design — this is the sentinels' blind-spot case),
        but the trajectory silently diverges from the fault-free run."""
        def fn(ctx):
            model, engine = build(ctx, 0, audit=1)
            losses = train(engine, ctx, 0, 4)
            return losses, engine.layout.gather_params(np.float32)

        clean = Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn)
        plan = FaultPlan(seed=11).flip_bits(
            rank=0, op="all_reduce", when="pre", bits=4
        )
        out = Cluster(WORLD, gpu=GPU, timeout_s=15.0, fault_plan=plan).run(fn)
        assert plan.events and plan.events[0].kind == "bitflip"
        # Replicas agree with each other...
        np.testing.assert_array_equal(out[0][1], out[1][1])
        # ...but not with the truth.
        assert not np.array_equal(out[0][1], clean[0][1])

    def test_sentinels_flag_spikes_but_not_overflow_skips(self):
        """The sentinels observe applied steps only: a loss-scale overflow
        skip is the LossScaler's business, a spike on an applied step is
        corruption."""
        def fn(ctx):
            model, engine = build(ctx, 1, audit=1)
            train(engine, ctx, 0, 5)
            auditor = engine.integrity
            # Overflow path: a skipped step feeds the sentinels nothing.
            auditor.after_optimizer(6, applied=False, loss=float("inf"))
            auditor.note_grad_norm(1.0)
            with pytest.raises(CorruptionDetectedError) as info:
                auditor.after_optimizer(6, applied=True, loss=1e30)
            assert info.value.kind == "sentinel"
            with pytest.raises(CorruptionDetectedError):
                auditor.note_grad_norm(1e30)
            return True

        assert Cluster(1, gpu=GPU, timeout_s=15.0).run(fn) == [True]


# -- the invariant the cross-rank audit relies on ----------------------------


class TestReplicatedStateInvariant:
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_fp16_params_bitwise_identical_across_ranks(self, stage):
        """DDP and ZeRO stages 1-2 keep full fp16 parameters on every
        rank; after N fault-free steps they must agree bitwise — the
        property that makes digest comparison a valid corruption test."""
        def fn(ctx):
            model, engine = build(ctx, stage, audit=2, dtype=np.float16)
            train(engine, ctx, 0, 4)
            return np.concatenate(
                [p.data.numpy().ravel() for p in engine.layout.parameters]
            ).tobytes()

        blobs = Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn)
        assert blobs[0] == blobs[1]


# -- checkpoint checksums + the verified ring --------------------------------


class TestCheckpointIntegrity:
    def _save(self, tmp_path, directory="c", plan=None):
        def fn(ctx):
            model, engine = build(ctx, 2)
            train(engine, ctx, 0, 1)
            save_checkpoint(engine, tmp_path / directory)

        Cluster(WORLD, gpu=GPU, timeout_s=15.0, fault_plan=plan).run(fn)
        return tmp_path / directory

    def test_bit_rot_rejected_at_load(self, tmp_path):
        ckpt = self._save(tmp_path)
        blob = bytearray((ckpt / "rank1.npz").read_bytes())
        blob[len(blob) // 2] ^= 0x10
        (ckpt / "rank1.npz").write_bytes(bytes(blob))

        def reader(ctx):
            model, engine = build(ctx, 2)
            with pytest.raises(ValueError, match="corrupt|checksum"):
                load_checkpoint(engine, ckpt)
            return True

        assert Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(reader) == [True] * WORLD

    def test_injected_rot_rejected_at_load(self, tmp_path):
        plan = FaultPlan(seed=9).rot_checkpoint(rank=0)
        ckpt = self._save(tmp_path, plan=plan)
        assert [e.kind for e in plan.events] == ["ckpt-rot"]

        def reader(ctx):
            model, engine = build(ctx, 2)
            with pytest.raises(ValueError, match="corrupt|checksum"):
                load_checkpoint(engine, ckpt)
            return True

        assert Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(reader) == [True] * WORLD

    def test_latest_checkpoint_skips_rotted_newest(self, tmp_path):
        """Discovery must fall back past a bit-rotted newest checkpoint,
        exactly like it falls back past a torn one."""
        def fn(ctx):
            model, engine = build(ctx, 2)
            train(engine, ctx, 0, 1)
            save_checkpoint(engine, tmp_path / "step1")
            train(engine, ctx, 1, 1)
            save_checkpoint(engine, tmp_path / "step2")

        Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn)
        assert latest_checkpoint(tmp_path) == tmp_path / "step2"
        blob = bytearray((tmp_path / "step2" / "rank0.npz").read_bytes())
        blob[len(blob) // 2] ^= 0x01
        (tmp_path / "step2" / "rank0.npz").write_bytes(bytes(blob))
        assert not is_complete_checkpoint(tmp_path / "step2")
        assert latest_checkpoint(tmp_path) == tmp_path / "step1"

    def test_ring_saves_verify_and_prune(self, tmp_path):
        def fn(ctx):
            model, engine = build(ctx, 2, audit=2)
            ring = VerifiedCheckpointRing(tmp_path / "ring")
            outcomes = []
            for start in range(0, 8, 2):
                train(engine, ctx, start, 2)
                outcomes.append(ring.save(engine))
            return [str(p) for p in outcomes], [
                p.name for p in ring.verified_checkpoints()
            ]

        out = Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn)
        outcomes, kept = out[0]
        assert out[1] == out[0]  # SPMD: all ranks agree on every verdict
        assert all(o != "None" for o in outcomes)
        assert kept == ["step00000004", "step00000006", "step00000008"]  # KEEP=3 pruned step 2

    def test_ring_falls_back_past_injected_rot(self, tmp_path):
        """Acceptance: bit rot on a ring save is rejected at verification
        and the previous verified checkpoint stays the rollback target."""
        plan = FaultPlan(seed=9).rot_checkpoint(rank=0, nth=2)

        def fn(ctx):
            model, engine = build(ctx, 2, audit=2)
            ring = VerifiedCheckpointRing(tmp_path / "ring")
            outcomes = []
            for start in range(0, 4, 2):
                train(engine, ctx, start, 2)
                outcomes.append(ring.save(engine))
            return [o.name if o else None for o in outcomes], (
                ring.latest_verified().name
            )

        out = Cluster(WORLD, gpu=GPU, timeout_s=15.0, fault_plan=plan).run(fn)
        for outcomes, latest in out:
            assert outcomes == ["step00000002", None]  # second save rotted
            assert latest == "step00000002"
        assert [e.kind for e in plan.events] == ["ckpt-rot"]


# -- end-to-end: detect -> roll back -> converge bitwise ---------------------


TOTAL_STEPS = 6
CKPT_EVERY = 2


def make_supervised_fn(root, *, audit=1):
    """Re-entrant training function: resume from the newest *verified*
    checkpoint, save into the ring every CKPT_EVERY steps."""

    def train_fn(ctx):
        model, engine = build(ctx, 2, audit=audit)
        ring = VerifiedCheckpointRing(root)
        latest = ring.latest_verified()
        if latest is not None:
            load_checkpoint_resharded(engine, latest)
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
            if engine.step_count % CKPT_EVERY == 0:
                ring.save(engine)
        return losses, engine.layout.gather_params(np.float32)

    return train_fn


class TestSupervisorRollback:
    def test_scribble_detected_rolled_back_bitwise_identical(self, tmp_path):
        """Acceptance: a seeded bit flip in a stage-2 optimizer shard is
        detected within the cadence, the Supervisor rolls back to the last
        verified checkpoint, and the resumed run's final params match a
        fault-free run bitwise."""
        clean = Supervisor(WORLD, gpu=GPU, timeout_s=15.0).run(
            make_supervised_fn(tmp_path / "clean")
        )
        assert clean.restarts == 0

        plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=4, target="m")
        sup = Supervisor(WORLD, gpu=GPU, fault_plan=plan, timeout_s=15.0)
        report = sup.run(make_supervised_fn(tmp_path / "faulty"))

        assert report.restarts == 1
        assert report.final_world_size == WORLD
        (event,) = report.events
        assert event.kind == RestartKind.ROLLBACK
        assert event.world_before == event.world_after == WORLD
        assert event.killed_ranks == ()
        assert "shard-digest" in event.error
        # Bitwise-identical convergence after the rollback.
        for rank in range(WORLD):
            np.testing.assert_array_equal(
                report.results[rank][1], clean.results[rank][1]
            )
        assert report.results[0][0][-1] == clean.results[0][0][-1]

    def test_repeat_offender_is_quarantined(self, tmp_path):
        """Two detections attributed to the same rank escalate from
        rollback to quarantine: the world shrinks by one through the
        elastic re-shard path and the survivors finish the job."""
        plan = (FaultPlan(seed=3)
                .scribble_tensor(rank=1, at_step=3, target="master")
                .scribble_tensor(rank=1, at_step=5, target="v"))
        sup = Supervisor(
            WORLD, gpu=GPU, fault_plan=plan, timeout_s=15.0,
            policy=RestartPolicy(max_restarts=3, quarantine_after=2),
        )
        report = sup.run(make_supervised_fn(tmp_path / "q"))
        assert [e.kind for e in report.events] == [RestartKind.ROLLBACK, RestartKind.QUARANTINE]
        assert report.events[1].killed_ranks == (1,)
        assert report.final_world_size == WORLD - 1
        losses, _ = report.results[0]
        assert losses  # the shrunken world completed the run


# -- overflow vs retry interaction -------------------------------------------


class TestOverflowRetryInteraction:
    def test_retried_overflow_vote_does_not_double_count(self):
        """An overflow whose global vote (an all-reduce) is transiently
        retried must count as exactly one skipped step: scaler state and
        the trajectory match the fault-free run bitwise."""
        from repro import RetryPolicy

        def fn(ctx):
            model, engine = build(ctx, 2, dtype=np.float16)
            losses = train(engine, ctx, 0, 2)
            engine.scaler.scale = 1e6  # guarantees an fp16 overflow
            losses += train(engine, ctx, 2, 3)
            s = engine.scaler
            return losses, (s.scale, s.n_skipped, s.good_steps)

        ref = Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn)
        plan = FaultPlan(seed=5).fail_collective(op="all_reduce", nth=1, times=2)
        out = Cluster(
            WORLD, gpu=GPU, timeout_s=15.0, fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=4, base_backoff_s=0.001),
        ).run(fn)
        assert [e.kind for e in plan.events] == ["transient"] * 4  # 2 ranks x 2
        assert out == ref  # scaler state + losses bitwise, no double-count
        assert ref[0][1][1] >= 1  # the scenario really did skip steps


# -- zero overhead when disabled ---------------------------------------------


class TestZeroOverhead:
    def test_default_off_allocates_nothing_and_matches_audited_run(self):
        """audit_cadence=0 (default): no auditor object, no audit
        collectives; and because the audit is read-only, enabling it on a
        fault-free run must not perturb the trajectory either."""
        def fn_off(ctx):
            model, engine = build(ctx, 2)
            losses = train(engine, ctx, 0, 4)
            assert engine.integrity is None
            assert "integrity-audit" not in ctx.ledger.by_phase()
            return losses, engine.layout.gather_params(np.float32), ctx.ledger.by_phase()

        def fn_on(ctx):
            model, engine = build(ctx, 2, audit=2)
            losses = train(engine, ctx, 0, 4)
            assert engine.integrity is not None
            # Control message: never appears in the volume ledger.
            assert "integrity-audit" not in ctx.ledger.by_phase()
            return losses, engine.layout.gather_params(np.float32), ctx.ledger.by_phase()

        off = Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn_off)
        on = Cluster(WORLD, gpu=GPU, timeout_s=15.0).run(fn_on)
        for rank in range(WORLD):
            assert off[rank][0] == on[rank][0]  # losses bitwise
            np.testing.assert_array_equal(off[rank][1], on[rank][1])
            assert off[rank][2] == on[rank][2]  # comm volume identical

    def test_config_label_and_validation(self):
        assert "SDC@4" in ZeROConfig(stage=2, audit_cadence=4).label
        assert "SDC" not in ZeROConfig(stage=2).label
        with pytest.raises(ValueError, match="audit_cadence"):
            ZeROConfig(stage=2, audit_cadence=-1)
