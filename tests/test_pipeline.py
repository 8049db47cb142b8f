"""GPipe pipeline parallelism: a stage is any engine over a model that holds
only its units. Numerics vs serial, ZeRO over a stage, memory split,
schedule."""

import time
import tracemalloc

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.analysis.pp_model import (
    gpipe_device_bytes,
    microbatches_for_bubble,
    pipeline_bubble_fraction,
)
from repro.analysis.memory_model import ActivationModel
from repro.comm.fabric import Fabric
from repro.comm.group import ProcessGroup
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.infinity import InfinityConfig
from repro.nn.loss import CausalLMLoss
from repro.nn.module import ExecutionContext
from repro.nn.transformer import GPT2Model, split_units
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh
from repro.optim.flat import FlatLayout
from repro.optim.mixed_precision import FlatAdamState
from repro.tensor.tensor import Tensor

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=4, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)


def build_stage(ctx, micro, *, stage=0, dtype=np.float32, lr=1e-3, mesh=None, **zero):
    """This rank's pipeline stage: the world is one pipeline unless a
    ``mesh`` says otherwise; M = ``micro`` micro-batches per step."""
    mesh = mesh or Mesh(pp=ctx.world_size)
    rank = ctx.rank
    zero = ZeROConfig(stage=stage, checkpoint_activations=False, memory_defrag=False, **zero)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.group(mesh.dp_group(rank)),
        mp_group=ctx.group(mesh.mp_group(rank)), pp_group=ctx.group(mesh.pp_group(rank)),
        dtype=dtype, seed=0,
        engine_config=EngineConfig(
            adam=AdamHyperparams(lr=lr), gradient_accumulation_steps=micro, bucket_numel=1500,
        ),
    )


def train(engine, micro, steps, *, batch=4, rank=0):
    """``steps`` optimizer steps, each a batch cut into ``micro`` micro-batches
    fed one per call; returns every call's loss."""
    mb = batch // micro
    losses = []
    for step in range(steps):
        ids, tgt = CORPUS.sample_batch(batch, 16, rank=rank, step=step)
        for m in range(micro):
            losses.append(engine.train_step(ids[m * mb : (m + 1) * mb], tgt[m * mb : (m + 1) * mb]).loss)
    return losses


class TestSplitUnits:
    def test_balanced_contiguous(self):
        assert split_units(6, 2) == [(0, 3), (3, 6)]
        assert split_units(7, 2) == [(0, 4), (4, 7)]
        assert split_units(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_validation(self):
        with pytest.raises(ValueError):
            split_units(2, 3)
        with pytest.raises(ValueError):
            split_units(2, 0)


def serial_reference(steps=2, lr=1e-3):
    rng = np.random.default_rng(0)
    model = GPT2Model(CFG, dtype=np.float64, rng=rng)
    layout = FlatLayout(model.parameters())
    opt = FlatAdamState(layout.numel, hp=AdamHyperparams(lr=lr))
    opt.init_master(layout.gather_params(np.float32))
    loss_head = CausalLMLoss()
    losses = []
    for step in range(steps):
        ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=step)
        logits, cache = model.forward(Tensor.from_numpy(ids), ExecutionContext())
        loss, lcache = loss_head.forward(logits, Tensor.from_numpy(tgt))
        model.backward(cache, loss_head.backward(lcache))
        losses.append(float(loss.numpy()))
        master = opt.step(layout.gather_grads(np.float32))
        layout.scatter_params(master.astype(np.float64))
        model.zero_grad()
    return model, losses


class TestGPipeNumerics:
    @pytest.mark.parametrize("stages,micro", [(2, 1), (2, 2), (3, 4)])
    def test_matches_serial_training(self, stages, micro):
        serial_model, serial_losses = serial_reference()
        serial_params = {p.name: p.data.numpy().copy() for p in serial_model.parameters()}

        def fn(ctx):
            model, engine = build_stage(ctx, micro, dtype=np.float64)
            losses = train(engine, micro, 2)
            params = {p.name: p.data.numpy().copy() for p in model.parameters()}
            return losses, params

        results = Cluster(stages, gpu=GPU, timeout_s=60.0).run(fn)
        last_losses = results[-1][0]
        for step, want in enumerate(serial_losses):
            got = np.mean(last_losses[step * micro : (step + 1) * micro])
            assert got == pytest.approx(want, rel=1e-9)
        for _, params in results:
            for name, value in params.items():
                # fp32 master-state rounding bounds the achievable agreement.
                np.testing.assert_allclose(value, serial_params[name], rtol=1e-5, atol=1e-7)

    def test_non_last_stages_report_none(self):
        def fn(ctx):
            _, engine = build_stage(ctx, 2)
            ids, tgt = CORPUS.sample_batch(2, 16, rank=0, step=0)
            return engine.train_step(ids, tgt).loss

        out = Cluster(2, gpu=GPU, timeout_s=60.0).run(fn)
        assert out[0] is None and out[1] is not None

    def test_a_stage_fed_another_micro_batch_is_refused(self):
        """Every stage is fed the same micro-batch; a stage whose received
        activation does not match it refuses the step."""

        def fn(ctx):
            _, engine = build_stage(ctx, 2)
            ids, tgt = CORPUS.sample_batch(2 + ctx.rank, 16, rank=0, step=0)
            engine.train_step(ids, tgt)

        with pytest.raises(ValueError, match="same micro-batch"):
            Cluster(2, gpu=GPU, timeout_s=60.0).run(fn)


#: (dp, mp, pp) meshes at reduced depth (two layers: four units, two stages)
MESHES = [Mesh(1, 1, 2), Mesh(2, 1, 2), Mesh(1, 2, 2), Mesh(2, 2, 2)]
SMALL = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=64, max_seq_len=16)
SMALL_CORPUS = SyntheticCorpus(64, seed=9)


def run_mesh(mesh, stage, micro, *, steps=2, clip=None, checkpoint=True):
    """Per rank: every call's loss, this rank's [lo, hi) of the stage's flat
    space and its fp32 master over it."""

    def fn(ctx):
        rank = ctx.rank
        zero = ZeROConfig(stage=stage, checkpoint_activations=checkpoint, memory_defrag=False)
        _, engine = build_model_and_engine(
            ctx, SMALL, zero, dp_group=ctx.group(mesh.dp_group(rank)),
            mp_group=ctx.group(mesh.mp_group(rank)), pp_group=ctx.group(mesh.pp_group(rank)),
            dtype=np.float32, seed=5,
            engine_config=EngineConfig(
                adam=AdamHyperparams(lr=1e-3), bucket_numel=1500,
                gradient_accumulation_steps=micro, grad_clip_norm=clip,
            ),
        )
        dp_index = mesh.dp_group(rank).index(rank)
        losses = []
        for step in range(steps * micro):
            ids, tgt = SMALL_CORPUS.sample_batch(2, 16, rank=dp_index, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses, engine.checkpoint_partition(), engine.opt_state.master.numpy().copy()

    return Cluster(mesh.world, gpu=GPU, timeout_s=60.0).run(fn)


class TestZeROOnAStage:
    """ZeRO stages 1-3 partition a stage's flat space over ``dp`` unchanged."""

    @pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"d{m.dp}m{m.mp}p{m.pp}")
    @pytest.mark.parametrize("micro", [1, 2])
    def test_stages_equal_stage_0_on_the_mesh(self, mesh, micro):
        """Bitwise wherever the reduction schedules add in the same order:
        every stage with one micro-batch or one DP rank, and stage 1 (which
        reduces once at the boundary, as stage 0 does) always. Stages 2-3
        reduce every micro-batch, so across two DP ranks and two
        micro-batches they agree with stage 0 to the summation-order
        tolerance of ``test_stages_agree_under_accumulation``, as at pp = 1."""
        reference = run_mesh(mesh, 0, micro)
        for stage in (1, 2, 3):
            for (ref_losses, _, ref_master), (losses, (lo, hi), master) in zip(
                reference, run_mesh(mesh, stage, micro)
            ):
                if micro == 1 or mesh.dp == 1 or stage == 1:
                    assert losses == ref_losses
                    assert np.array_equal(master, ref_master[lo:hi])
                else:
                    assert (losses[0] is None) == (ref_losses[0] is None)
                    if losses[0] is not None:  # the last stage's
                        np.testing.assert_allclose(losses, ref_losses, rtol=2e-5)
                    np.testing.assert_allclose(master, ref_master[lo:hi], rtol=2e-5, atol=2e-6)

    def test_a_pipeline_mesh_matches_the_unsplit_model(self):
        """Stage 3 on (2, 1, 2) trains as stage 3 on (2, 1, 1) does: the
        last stage's losses agree within the PP tolerance."""
        split = run_mesh(Mesh(2, 1, 2), 3, 2)
        whole = run_mesh(Mesh(2, 1, 1), 3, 2)
        for dp_index in range(2):
            np.testing.assert_allclose(split[2 + dp_index][0], whole[dp_index][0], rtol=1e-5)

    def test_clipping_on_a_pipeline_mesh_matches_the_unsplit_model(self):
        """The clip norm sums over the stages: stage 0's and stage 1's
        parameters after clipped steps match the unsplit run's, which
        clips by the same global norm."""
        clip = 0.05
        split = run_mesh(Mesh(1, 1, 2), 0, 2, steps=3, clip=clip)
        whole = run_mesh(Mesh(1, 1, 1), 0, 2, steps=3, clip=clip)
        unclipped = run_mesh(Mesh(1, 1, 2), 0, 2, steps=3)
        stitched = np.concatenate([split[0][2], split[1][2]])
        np.testing.assert_allclose(stitched, whole[0][2], rtol=1e-5, atol=1e-7)
        assert not np.allclose(split[1][2], unclipped[1][2], rtol=1e-5, atol=1e-7)

    def test_tier_placement_is_refused_on_a_pipeline_mesh(self):
        def fn(ctx):
            with pytest.raises(ValueError, match="pp axis"):
                build_stage(ctx, 2, stage=2, infinity=InfinityConfig(optimizer_tier="host"))
            return True

        assert all(Cluster(2, gpu=GPU, timeout_s=60.0).run(fn))


class TestGPipeLifecycle:
    @pytest.mark.timeout_guard(30)
    def test_kill_at_step_fires_under_gpipe(self):
        """A pipeline stage walks the same step lifecycle as every engine,
        so the fault plan hears about its steps: a kill-at-step rule brings
        every stage down with ``RankKilledError`` in under half the fabric
        timeout: the stage blocked in ``recv`` on the killed one hears the
        abort."""
        from repro.comm.faults import FaultPlan, RankKilledError

        plan = FaultPlan().kill_rank(1, at_step=2)
        timeout_s = 10.0
        cluster = Cluster(2, gpu=GPU, timeout_s=timeout_s, fault_plan=plan)
        reached = []

        def fn(ctx):
            _, engine = build_stage(ctx, 2)
            for step in range(3):
                train(engine, 2, 1)
                reached.append((ctx.rank, engine.step_count))

        t0 = time.monotonic()
        with pytest.raises(RankKilledError):
            cluster.run(fn)
        assert time.monotonic() - t0 < timeout_s / 2
        assert sorted(reached) == [(0, 1), (1, 1)]
        assert [e.kind for e in plan.events] == ["kill"]

    @pytest.mark.timeout_guard(30)
    def test_a_grad_sent_before_the_kill_still_finishes_the_step(self, monkeypatch):
        """Stage 0 is slow to take its step-1 gradient: by then stage 1 has
        sent it, begun step 2 and been killed. The gradient was queued
        before the abort, so stage 0 still finishes step 1."""
        from repro.comm.faults import FaultPlan, RankKilledError

        recv = ProcessGroup.recv
        delayed = []

        def slow_last_grad(self, rank, src, tag=0, phase=""):
            if rank == 0 and tag == "pp-grad" and not delayed:
                delayed.append(tag)
                time.sleep(0.2)
            return recv(self, rank, src, tag, phase)

        monkeypatch.setattr(ProcessGroup, "recv", slow_last_grad)
        plan = FaultPlan().kill_rank(1, at_step=2)
        reached = []

        def fn(ctx):
            _, engine = build_stage(ctx, 1)
            for step in range(3):
                train(engine, 1, 1)
                reached.append((ctx.rank, engine.step_count))

        with pytest.raises(RankKilledError):
            Cluster(2, gpu=GPU, timeout_s=10.0, fault_plan=plan).run(fn)
        assert delayed == ["pp-grad"]
        assert sorted(reached) == [(0, 1), (1, 1)]

    def test_a_scribble_rule_aimed_at_a_stage_fires_and_is_recorded(self):
        """A stage owns its optimizer state like every engine: a scribble
        rule aimed at stage 0's master fires at its step, is recorded, and
        the stage's shard-digest guard catches it before the optimizer."""
        from repro.comm.faults import FaultPlan
        from repro.integrity import CorruptionDetectedError

        plan = FaultPlan(seed=11).scribble_tensor(rank=0, at_step=2, target="master")

        def fn(ctx):
            _, engine = build_stage(ctx, 2, audit_cadence=4)
            train(engine, 2, 3)

        with pytest.raises(CorruptionDetectedError) as info:
            Cluster(2, gpu=GPU, timeout_s=15.0, fault_plan=plan).run(fn)
        assert (info.value.kind, info.value.rank, info.value.step) == ("shard-digest", 0, 2)
        assert [(e.kind, e.rank) for e in plan.events] == [("scribble", 0)]


class TestGPipeMemory:
    def test_params_split_across_stages(self):
        def fn(ctx):
            model, _ = build_stage(ctx, 1)
            return sum(p.size for p in model.parameters())

        counts = Cluster(2, gpu=GPU, timeout_s=60.0).run(fn)
        assert sum(counts) == CFG.total_params
        assert max(counts) < CFG.total_params  # genuinely split

    def test_a_stage_charges_only_its_units_and_adam_state(self):
        """One unit per stage: construction's peak is the stage's own
        parameters plus its Adam state, never the whole model."""

        def fn(ctx):
            model, engine = build_stage(ctx, 1, constant_buffers=False)
            adam = engine.opt_state
            state = [p.data for p in model.parameters()] + [adam.master, adam.m, adam.v]
            return ctx.device.max_allocated_bytes, sum(t.extent.size for t in state)

        stages = CFG.n_layers + 2
        for peak, own in Cluster(stages, gpu=GPU, timeout_s=60.0).run(fn):
            assert peak == own

    def test_a_real_stage_holds_no_array_of_a_unit_it_does_not_own(self):
        """The units another stage owns are built for their rng draws and
        dropped one at a time: what the stage keeps on the host is its own
        parameters, bitwise the whole model's, and the construction peak
        is at most one other unit more."""
        whole = {p.name: p.data.numpy() for p in
                 GPT2Model(CFG, dtype=np.float64, rng=np.random.default_rng(0)).parameters()}
        largest_unit = max(sum(p.data.nbytes for p in u.parameters())
                           for u in GPT2Model(CFG, meta=True, dtype=np.float64).units())
        group = ProcessGroup(Fabric(2), (0, 1))
        for rank in (0, 1):
            tracemalloc.start()
            try:
                model = GPT2Model(CFG, pp_group=group, rank=rank, dtype=np.float64,
                                  rng=np.random.default_rng(0))
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            own = sum(p.data.nbytes for p in model.parameters())
            lo, hi = split_units(CFG.n_layers + 2, 2)[rank]
            assert len(model.units()) == hi - lo
            for p in model.parameters():
                assert np.array_equal(p.data.numpy(), whole[p.name])
            assert own <= held < own + largest_unit // 2
            assert peak < own + 2 * largest_unit

    def test_device_memory_scales_with_microbatches(self):
        """GPipe's weakness: in-flight micro-batches pile up activations."""

        def peak(micro):
            def fn(ctx):
                _, engine = build_stage(ctx, micro)
                ctx.device.reset_peak_stats()
                train(engine, micro, 1, batch=8)
                return ctx.device.max_allocated_bytes

            return max(Cluster(2, gpu=GPU, timeout_s=60.0).run(fn))

        # Same total batch; more in-flight micro-batches should not *reduce*
        # held activation state (boundaries accumulate across the stage).
        assert peak(8) >= peak(1) * 0.5


class TestGPipeComm:
    def test_boundary_activation_traffic_recorded(self):
        """Each micro-batch crosses every stage boundary twice (activation
        forward + gradient backward): 2 x M x (mb x seq x hidden) bytes."""
        micro = 2

        def fn(ctx):
            _, engine = build_stage(ctx, micro)
            ctx.ledger.clear()
            train(engine, micro, 1)
            return ctx.ledger.by_phase()

        phases = Cluster(2, gpu=GPU, timeout_s=60.0).run(fn)[0]
        per_boundary = (4 // micro) * 16 * CFG.hidden * 4  # fp32 bytes
        assert phases["pp-act"] == micro * per_boundary
        assert phases["pp-grad"] == micro * per_boundary


class TestPPAnalysis:
    def test_bubble_fraction(self):
        assert pipeline_bubble_fraction(Mesh(pp=4), 4) == pytest.approx(3 / 7)
        assert pipeline_bubble_fraction(Mesh(pp=1), 8) == 0.0
        assert pipeline_bubble_fraction(Mesh(pp=8), 1) == pytest.approx(7 / 8)

    def test_microbatches_grow_with_stages(self):
        """Hiding the bubble needs M ~ proportional to S (paper Section 2.1)."""
        m4 = microbatches_for_bubble(Mesh(pp=4), 0.2)
        m8 = microbatches_for_bubble(Mesh(pp=8), 0.2)
        m16 = microbatches_for_bubble(Mesh(pp=16), 0.2)
        assert m4 < m8 < m16
        assert m16 / m4 == pytest.approx(16 / 4, rel=0.4)

    def test_zero_beats_gpipe_memory_at_equal_devices(self):
        """Section 2.1: 'ZeRO obtains the same or better memory efficiency
        than PP', because PP must hold M micro-batches of activations to
        hide its bubble while ZeRO holds one batch and 1/Nd states."""
        from repro.analysis.pp_model import zero_device_bytes_for_comparison

        psi = 10e9
        devices = 16
        micro = microbatches_for_bubble(Mesh(pp=devices), 0.2)
        act_micro = ActivationModel(hidden=4096, n_layers=50, seq_len=1024, batch=2)
        gpipe = gpipe_device_bytes(
            psi, act_micro, mesh=Mesh(pp=devices), n_microbatches=micro,
        )
        # ZeRO runs the same global batch data-parallel: each of the same
        # `devices` ranks sees (2 x M) / Nd samples, and full ZeRO (stage 3)
        # matches PP's 16 Psi / S model-state split without the M in-flight
        # micro-batches.
        per_rank_batch = max(1, (2 * micro) // devices)
        act_full = ActivationModel(
            hidden=4096, n_layers=50, seq_len=1024, batch=per_rank_batch
        )
        zero = zero_device_bytes_for_comparison(psi, act_full, mesh=Mesh(dp=devices))
        assert zero <= gpipe

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_bubble_fraction(Mesh(pp=0), 4)
        with pytest.raises(ValueError):
            microbatches_for_bubble(Mesh(pp=4), 1.5)
