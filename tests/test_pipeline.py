"""GPipe pipeline parallelism: numerics vs serial, memory split, schedule."""

import time

import numpy as np
import pytest

from repro import Cluster, GPTConfig
from repro.analysis.pp_model import (
    gpipe_device_bytes,
    microbatches_for_bubble,
    pipeline_bubble_fraction,
)
from repro.analysis.memory_model import ActivationModel
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.nn.loss import CausalLMLoss
from repro.nn.module import ExecutionContext
from repro.nn.transformer import GPT2Model
from repro.optim.adam import AdamHyperparams
from repro.zero.placement import Mesh
from repro.optim.flat import FlatLayout
from repro.optim.mixed_precision import FlatAdamState
from repro.parallel.pipeline import GPipeEngine, split_units
from repro.tensor.tensor import Tensor

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=4, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)


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
        master = opt.step(layout.gather_grads(np.float32, missing_ok=True))
        layout.scatter_params(master.astype(np.float64))
        model.zero_grad()
    return model, losses


class TestGPipeNumerics:
    @pytest.mark.parametrize("stages,micro", [(2, 1), (2, 2), (3, 4)])
    def test_matches_serial_training(self, stages, micro):
        serial_model, serial_losses = serial_reference()
        serial_params = {p.name: p.data.numpy().copy() for p in serial_model.parameters()}

        def fn(ctx):
            engine = GPipeEngine(
                ctx, CFG, ctx.world, n_microbatches=micro, dtype=np.float64,
                seed=0, adam=AdamHyperparams(lr=1e-3),
            )
            losses = []
            for step in range(2):
                ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=step)
                losses.append(engine.train_step(ids, tgt))
            params = {p.name: p.data.numpy().copy() for p in engine.stage_module.parameters()}
            return losses, params

        results = Cluster(stages, gpu=GPU, timeout_s=60.0).run(fn)
        last_losses = results[-1][0]
        for got, want in zip(last_losses, serial_losses):
            assert got == pytest.approx(want, rel=1e-9)
        for _, params in results:
            for name, value in params.items():
                # fp32 master-state rounding bounds the achievable agreement.
                np.testing.assert_allclose(value, serial_params[name], rtol=1e-5, atol=1e-7)

    def test_non_last_stages_report_none(self):
        def fn(ctx):
            engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=2,
                                 dtype=np.float32, seed=0)
            ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=0)
            return engine.train_step(ids, tgt)

        out = Cluster(2, gpu=GPU, timeout_s=60.0).run(fn)
        assert out[0] is None and out[1] is not None

    def test_batch_divisibility_enforced(self):
        def fn(ctx):
            engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=3,
                                 dtype=np.float32, seed=0)
            ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=0)
            with pytest.raises(ValueError, match="micro-batches"):
                engine.train_step(ids, tgt)
            return True

        assert all(Cluster(2, gpu=GPU, timeout_s=60.0).run(fn))


class TestGPipeLifecycle:
    @pytest.mark.timeout_guard(30)
    def test_kill_at_step_fires_under_gpipe(self):
        """The pipeline loop walks the same step lifecycle as the ZeRO
        engines, so the fault plan hears about its steps: a kill-at-step
        rule brings every stage down with ``RankKilledError`` in under half
        the fabric timeout: the stage blocked in ``recv`` on the killed one
        hears the abort."""
        from repro.comm.faults import FaultPlan, RankKilledError

        plan = FaultPlan().kill_rank(1, at_step=2)
        timeout_s = 10.0
        cluster = Cluster(2, gpu=GPU, timeout_s=timeout_s, fault_plan=plan)
        reached = []

        def fn(ctx):
            engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=2,
                                 dtype=np.float32, seed=0)
            for step in range(3):
                ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=step)
                engine.train_step(ids, tgt)
                reached.append((ctx.rank, engine.step_count))

        t0 = time.monotonic()
        with pytest.raises(RankKilledError):
            cluster.run(fn)
        assert time.monotonic() - t0 < timeout_s / 2
        assert sorted(reached) == [(0, 1), (1, 1)]
        assert [e.kind for e in plan.events] == ["kill"]

    @pytest.mark.timeout_guard(30)
    def test_a_grad_sent_before_the_kill_still_finishes_the_step(self, monkeypatch):
        """Stage 0 is slow to take its last step-1 gradient: by then stage 1
        has sent it, begun step 2 and been killed. The gradient was queued
        before the abort, so stage 0 still finishes step 1."""
        from repro.comm.faults import FaultPlan, RankKilledError
        from repro.comm.group import ProcessGroup

        recv = ProcessGroup.recv
        delayed = []

        def slow_last_grad(self, rank, src, tag=0, phase=""):
            if rank == 0 and tag == ("grad", 0) and not delayed:
                delayed.append(tag)
                time.sleep(0.2)
            return recv(self, rank, src, tag, phase)

        monkeypatch.setattr(ProcessGroup, "recv", slow_last_grad)
        plan = FaultPlan().kill_rank(1, at_step=2)
        reached = []

        def fn(ctx):
            engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=2,
                                 dtype=np.float32, seed=0)
            for step in range(3):
                ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=step)
                engine.train_step(ids, tgt)
                reached.append((ctx.rank, engine.step_count))

        with pytest.raises(RankKilledError):
            Cluster(2, gpu=GPU, timeout_s=10.0, fault_plan=plan).run(fn)
        assert delayed == [("grad", 0)]
        assert sorted(reached) == [(0, 1), (1, 1)]

    def test_scribble_rules_are_skipped_not_invented(self):
        """A pipeline stage exposes no ``integrity_shards``; a scribble rule
        aimed at it stays unfired and training is untouched."""
        from repro.comm.faults import FaultPlan

        def run(plan):
            def fn(ctx):
                engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=2,
                                     dtype=np.float32, seed=0)
                ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=0)
                return engine.train_step(ids, tgt)

            return Cluster(2, gpu=GPU, timeout_s=30.0, fault_plan=plan).run(fn)

        plan = FaultPlan().scribble_tensor(rank=0, at_step=1, target="master")
        assert run(plan) == run(None)
        assert plan.events == []


class TestGPipeMemory:
    def test_params_split_across_stages(self):
        def fn(ctx):
            engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=1,
                                 dtype=np.float32, seed=0)
            return engine.local_param_count

        counts = Cluster(2, gpu=GPU, timeout_s=60.0).run(fn)
        assert sum(counts) == CFG.total_params
        assert max(counts) < CFG.total_params  # genuinely split

    def test_a_stage_charges_only_its_units_and_adam_state(self):
        """One unit per stage: construction's peak is the stage's own
        parameters plus its Adam state, never the whole model."""

        def fn(ctx):
            engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=1,
                                 dtype=np.float32, seed=0)
            adam = engine.opt_state
            state = [p.data for p in engine.layout.parameters] + [adam.master, adam.m, adam.v]
            return ctx.device.max_allocated_bytes, sum(t.extent.size for t in state)

        stages = len(GPT2Model(CFG, meta=True).units())
        for peak, own in Cluster(stages, gpu=GPU, timeout_s=60.0).run(fn):
            assert peak == own

    def test_device_memory_scales_with_microbatches(self):
        """GPipe's weakness: in-flight micro-batches pile up activations."""

        def peak(micro):
            def fn(ctx):
                engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=micro,
                                     dtype=np.float32, seed=0)
                ctx.device.reset_peak_stats()
                ids, tgt = CORPUS.sample_batch(8, 16, rank=0, step=0)
                engine.train_step(ids, tgt)
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
            engine = GPipeEngine(ctx, CFG, ctx.world, n_microbatches=micro,
                                 dtype=np.float32, seed=0)
            ctx.ledger.clear()
            ids, tgt = CORPUS.sample_batch(4, 16, rank=0, step=0)
            engine.train_step(ids, tgt)
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
        zero = zero_device_bytes_for_comparison(psi, act_full, mesh=Mesh(dp=devices), stage=3)
        assert zero <= gpipe

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_bubble_fraction(Mesh(pp=0), 4)
        with pytest.raises(ValueError):
            microbatches_for_bubble(Mesh(pp=4), 1.5)
