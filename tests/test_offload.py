"""ZeRO-Offload: placement moves, the math does not.

ZeRO-Offload is the host-only placement of the one tier runtime
(``repro.infinity``), spelled by ``ZeROConfig``'s ``offload_*`` flags. Its
core contract mirrors the ZeRO-DP one: parking the
fp32 optimizer state (and optionally the gradient shard) in host DRAM
must leave the training trajectory bitwise identical to the all-device
engines, at every stage. Delayed parameter update is the single
deliberate numerical change and is pinned by an explicit staleness
contract rather than a tolerance. Around that core: byte accounting on
both memory pools, the PCIe stream's two-lane timeline, checkpoint
round-trips that are placement-independent, composition with fault
injection / elastic recovery, and the tier schedule on uniform pieces
against ZeRO-Offload's closed forms.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro import Cluster, FaultPlan, GPTConfig, Supervisor, ZeROConfig
from repro.comm.ledger import CommLedger
from repro.data import SyntheticCorpus
from repro.analysis.perf_model import SEQ_LEN
from repro.hardware.specs import NVME_RAID, PCIE_3_X16, V100_32GB, GPUSpec, InterconnectSpec
from repro.memsim.device import HostMemory
from repro.memsim.errors import InvalidFreeError, OutOfMemoryError
from repro.infinity import InfinityConfig, TierStream
from repro.infinity.schedule import PCIE_LANES, StepInputs, cpu_adam_seconds, steady_step
from repro.optim.adam import AdamHyperparams
from repro.optim.mixed_precision import FlatAdamState
from repro.experiments.offload_sweep import offload_tiers
from repro.parallel.engine import EngineConfig
from repro.runtime import virtual_rank_context
from repro.telemetry import TelemetrySession
from repro.tensor.tensor import Tensor
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine
from tests.streams import watch_devices
from tests.test_infinity import FOLD_MODELS, assert_schedule_meets_oracles

pytestmark = pytest.mark.offload

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
STEPS = 4


def train_run(stage, *, world=2, steps=STEPS, **zero_kw):
    """Train a tiny model; return per-rank (losses, master, params, host_bytes,
    step_times)."""
    cluster = Cluster(world, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(
            stage=stage, checkpoint_activations=False, memory_defrag=False, **zero_kw
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        losses, times = [], []
        for step in range(steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            result = engine.train_step(ids, tgt)
            losses.append(result.loss)
            times.append(result.step_time_model_s)
        if stage == 3:
            params = engine.param_shard.data.copy()
        else:
            params = np.concatenate(
                [p.data.numpy().reshape(-1) for p in model.parameters()]
            )
        return (
            losses,
            engine.opt_state.master.data.copy(),
            params,
            ctx.host.allocated_bytes,
            times,
        )

    return cluster.run(fn)


@pytest.fixture(scope="module")
def all_device_baseline():
    """All-device reference trajectories, one per stage."""
    return {stage: train_run(stage) for stage in (1, 2, 3)}


# -- bitwise equivalence (DPU off) ------------------------------------------


@pytest.mark.parametrize(
    "stage, off_grads",
    [(1, False), (2, False), (2, True), (3, False), (3, True)],
)
def test_offload_bitwise_identical_to_all_device(stage, off_grads, all_device_baseline):
    """Host-resident Adam (+ host gradient shard) changes placement only."""
    off = train_run(stage, infinity=offload_tiers(off_grads))
    ref = all_device_baseline[stage]
    for rank in range(2):
        assert off[rank][0] == ref[rank][0], f"rank {rank} losses diverged"
        np.testing.assert_array_equal(off[rank][1], ref[rank][1])
        np.testing.assert_array_equal(off[rank][2], ref[rank][2])


def test_offload_places_state_on_host_and_reports_step_time(all_device_baseline):
    off = train_run(2, infinity=offload_tiers(streamed=True))
    ref = all_device_baseline[2]
    for rank in range(2):
        # 12 bytes/element of Adam state per rank moved off-device, at least.
        assert off[rank][3] >= 12 * len(off[rank][1]) * 2
        assert ref[rank][3] == 0  # nothing on the host without offload
        assert all(t > 0.0 for t in off[rank][4])  # PCIe/Adam timeline ran


# -- delayed parameter update: the staleness contract ------------------------


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_dpu_staleness_contract(stage):
    """With one-step DPU, fp16 params after step t equal the cast of the
    master weights after step t-1 — exactly one step stale, no more."""
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(
            stage=stage, checkpoint_activations=False, memory_defrag=False,
            infinity=offload_tiers(streamed=False, dpu=True),
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        history = []
        for step in range(STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if stage == 3:
                shard = engine.param_shard.data.copy()
            else:
                full = np.concatenate(
                    [p.data.numpy().reshape(-1) for p in model.parameters()]
                )
                # partition_bounds pads to the world size; trim to real params
                hi = min(engine.part_hi, len(full))
                shard = full[engine.part_lo : hi]
            history.append((shard, engine.opt_state.master.data.copy()))
        return history

    for history in cluster.run(fn):
        for t in range(1, STEPS):
            params_t = history[t][0]
            master_prev = history[t - 1][1][: len(params_t)]
            master_now = history[t][1][: len(params_t)]
            # non-vacuous: the master really moved this step...
            assert not np.array_equal(master_now, master_prev)
            # ...and the served params are last step's master, not this one's
            np.testing.assert_array_equal(params_t, master_prev.astype(np.float32))


# -- PCIe stream --------------------------------------------------------------

LINK = InterconnectSpec(name="test-link", bandwidth_bytes_per_s=100.0, latency_s=1.0)


def test_stream_serializes_per_lane_and_is_full_duplex():
    st = TierStream(LINK, directions=PCIE_LANES)
    a = st.copy_async(100, "d2h", submit_t=0.0)  # wire: 1s latency + 1s bytes
    b = st.copy_async(100, "d2h", submit_t=0.5)  # queues behind a
    c = st.copy_async(100, "h2d", submit_t=0.0)  # opposite lane: no contention
    assert (a.start_t, a.done_t) == (0.0, 2.0)
    assert (b.start_t, b.done_t) == (2.0, 4.0)
    assert b.start_t - b.submit_t == 1.5 and b.wire_s == 2.0
    assert (c.start_t, c.done_t) == (0.0, 2.0)
    assert st.lane_busy_s("d2h") == 4.0
    assert st.copy_async(100, "h2d", submit_t=0.0).start_t == 2.0  # behind c
    st.reset()
    assert st.handles == [] and st.copy_async(100, "d2h", submit_t=0.0).start_t == 0.0


def test_stream_records_traffic_in_comm_ledger():
    ledger = CommLedger(rank=0)
    st = TierStream(LINK, ledger=ledger, rank=0, directions=PCIE_LANES)
    st.copy_async(64, "d2h", phase="offload-grad")
    st.copy_async(32, "h2d", phase="offload-param")
    st.copy_async(0, "d2h")  # zero-byte copies leave no ledger trace
    assert ledger.by_op() == {"d2h": 64.0, "h2d": 32.0}
    assert ledger.by_phase() == {"offload-grad": 64.0, "offload-param": 32.0}


def test_stream_rejects_bad_copies():
    st = TierStream(LINK, directions=PCIE_LANES)
    with pytest.raises(ValueError):
        st.copy_async(10, "sideways")
    with pytest.raises(ValueError):
        st.copy_async(-1, "d2h")


# -- host memory pool accounting ---------------------------------------------


def test_host_pool_stats_and_oom():
    host = HostMemory(100, name="test-host")
    handle = host.alloc(60, "opt")
    assert host.allocated_bytes == 60 and host.free_bytes == 40
    assert host.alloc_count == 1 and host.free_count == 0
    with pytest.raises(OutOfMemoryError):
        host.alloc(50, "too-big")
    host.free(handle)
    assert host.allocated_bytes == 0 and host.max_allocated_bytes == 60
    with pytest.raises(InvalidFreeError):
        host.free(handle)


def test_host_tensors_account_every_byte():
    """A tier is the pool a tensor is allocated on: the plain ``Tensor``
    and ``FlatAdamState`` account on a ``HostMemory`` as on a ``Device``."""
    host = HostMemory(10**6)
    t = Tensor((10,), np.float32, data=np.zeros(10, np.float32), device=host, tag="grad")
    assert t.nbytes == 40 and host.allocated_bytes == 40
    st = FlatAdamState(100, device=host)
    assert st.nbytes == 1200  # master + m + v, fp32
    assert host.allocated_bytes == 1240
    st.init_master(np.arange(100, dtype=np.float32))
    np.testing.assert_array_equal(st.master.numpy(), np.arange(100, dtype=np.float32))
    st.free()
    t.free()
    assert host.allocated_bytes == 0
    with pytest.raises(ValueError):
        t.free()  # double free is a bug, not a no-op


def test_host_pool_overflow_fails_loudly():
    small = HostMemory(100)
    with pytest.raises(OutOfMemoryError):
        FlatAdamState(100, device=small)  # needs 1200 bytes


def test_meta_host_tensors_still_account():
    """Meta mode skips arrays but never byte accounting."""
    host = HostMemory(10**6)
    st = FlatAdamState(50, device=host, meta=True)
    assert st.is_meta and host.allocated_bytes == 600
    with pytest.raises(ValueError):
        st.master.numpy()
    st.free()
    assert host.allocated_bytes == 0


def test_offload_moves_optimizer_bytes_off_device():
    """Meta engines: device residency drops by at least the Adam-state
    bytes, and the host picks up exactly the offloaded shards."""

    def build(offload):
        ctx = virtual_rank_context(2, gpu=GPU)
        zero = ZeROConfig(
            stage=2, memory_defrag=False,
            infinity=offload_tiers(streamed=True) if offload else None,
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True
        )
        itemsize = np.dtype(model.dtype).itemsize
        return ctx, engine.part_numel * 12, engine.part_numel * itemsize

    ctx_dev, adam_bytes, grad_bytes = build(offload=False)
    ctx_off, _, _ = build(offload=True)
    assert ctx_dev.host.allocated_bytes == 0
    assert ctx_off.host.allocated_bytes == adam_bytes + grad_bytes
    saved = ctx_dev.device.allocated_bytes - ctx_off.device.allocated_bytes
    assert saved >= adam_bytes


# -- configuration validation -------------------------------------------------


def test_zero_config_rejects_invalid_offload_combinations():
    """ZeRO-Offload is a tier config; the stage decides what may leave the device."""
    with pytest.raises(ValueError, match="requires a partitioned"):
        ZeROConfig(stage=0, infinity=offload_tiers(streamed=False))
    with pytest.raises(ValueError, match="requires a partitioned"):
        ZeROConfig(stage=1, infinity=offload_tiers(streamed=True))
    label = ZeROConfig(stage=2, infinity=offload_tiers(streamed=True, dpu=True)).label
    assert "os@host,g@host" in label and "DPU" in label


def test_offload_config_rejects_invalid_combinations():
    """The host-side Adam is what consumes host gradients and what the
    delayed update defers: without it, the tier config itself objects."""
    with pytest.raises(ValueError, match="off-device optimizer"):
        InfinityConfig(optimizer_tier="device", grad_tier="host")
    with pytest.raises(ValueError, match="off-device optimizer"):
        InfinityConfig(optimizer_tier="device", grad_tier="device", delayed_param_update=True)
    with pytest.raises(ValueError):
        InfinityConfig(optimizer_tier="host", cpu_adam_elements_per_s=0.0)


def test_unpartitioned_engine_rejects_offload():
    """The DDP engine resolves the placement from the config it is given:
    host Adam state on a stage that replicates it is the one rule's refusal."""
    from repro.parallel.ddp import DDPEngine

    ctx = virtual_rank_context(1, gpu=GPU)
    model, _ = build_model_and_engine(ctx, CFG, ZeROConfig(), dp_group=ctx.world, meta=True)
    zero = ZeROConfig()
    object.__setattr__(zero, "infinity", offload_tiers(streamed=False))
    with pytest.raises(ValueError, match="does not support offload"):
        DDPEngine(ctx, model, ctx.world, zero)


# -- checkpoints: placement-independent -------------------------------------


def test_checkpoint_roundtrip_is_placement_independent(tmp_path, all_device_baseline):
    """Host-resident optimizer state checkpoints and resumes bitwise — into
    an offloaded engine or an all-device one."""
    root = tmp_path / "ckpts"
    offload_kw = dict(infinity=offload_tiers(streamed=True))

    def run_phase(resume, **zero_kw):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(
                stage=2, checkpoint_activations=False, memory_defrag=False, **zero_kw
            )
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
                engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
            )
            if resume:
                load_checkpoint_resharded(engine, root / "step2")
            losses = []
            for step in range(engine.step_count, STEPS):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                losses.append(engine.train_step(ids, tgt).loss)
                if not resume and engine.step_count == 2:
                    save_checkpoint(engine, root / "step2")
            return losses, engine.opt_state.master.data.copy()

        return cluster.run(fn)

    run_phase(resume=False, **offload_kw)  # 2 steps offloaded, then save
    resumed_off = run_phase(resume=True, **offload_kw)
    resumed_dev = run_phase(resume=True)  # same checkpoint, all-device
    ref = all_device_baseline[2]
    for rank in range(2):
        assert resumed_off[rank][0] == ref[rank][0][2:]
        assert resumed_dev[rank][0] == ref[rank][0][2:]
        np.testing.assert_array_equal(resumed_off[rank][1], ref[rank][1])
        np.testing.assert_array_equal(resumed_dev[rank][1], ref[rank][1])


# -- composition with fault injection / elastic recovery ---------------------


@pytest.mark.faults
def test_offload_composes_with_elastic_recovery(tmp_path):
    """PR-1 composition: kill one of three ranks mid-run with the optimizer
    host-resident; the supervisor re-forms a 2-rank world from the durable
    checkpoint and the recovered trajectory matches an uninterrupted 2-rank
    resume, bitwise."""
    total_steps, ckpt_every = 6, 2
    root = tmp_path / "ckpts"

    def make_fn(resume_root):
        def train_fn(ctx):
            zero = ZeROConfig(
                stage=2, checkpoint_activations=False, memory_defrag=False,
                infinity=offload_tiers(streamed=True),
            )
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
                engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
            )
            latest = latest_checkpoint(resume_root)
            if latest is not None:
                load_checkpoint_resharded(engine, latest)
            losses = []
            for step in range(engine.step_count, total_steps):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                losses.append(engine.train_step(ids, tgt).loss)
                if engine.step_count % ckpt_every == 0:
                    save_checkpoint(engine, root / f"step{engine.step_count}")
            return losses, engine.opt_state.master.data.copy()

        return train_fn

    plan = FaultPlan().kill_rank(1, at_step=4)
    sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0)
    report = sup.run(make_fn(root))
    assert report.restarts == 1 and report.final_world_size == 2

    def ref_resume(ctx):
        zero = ZeROConfig(
            stage=2, checkpoint_activations=False, memory_defrag=False,
            infinity=offload_tiers(streamed=True),
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        load_checkpoint_resharded(engine, root / "step2")
        losses = []
        for step in range(engine.step_count, total_steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses, engine.opt_state.master.data.copy()

    ref = Cluster(2, gpu=GPU, timeout_s=15.0).run(ref_resume)
    for rank in range(2):
        assert report.results[rank][0] == ref[rank][0]
        np.testing.assert_array_equal(report.results[rank][1], ref[rank][1])


# -- the host Adam and the streaming regimes -----------------------------------


def test_cpu_adam_seconds_model():
    assert cpu_adam_seconds(0) == 0.0
    assert cpu_adam_seconds(10**9) == pytest.approx(50e-6 + 1.0)
    assert cpu_adam_seconds(10**6, elements_per_s=10**6) == pytest.approx(50e-6 + 1.0)


def test_cost_model_tracks_simulated_timeline():
    """On uniform gradient pieces the closed forms *are* the schedule: the
    host-only placements (boundary d2h, streamed), with and without DPU,
    agree to float re-association. (The engines' real pieces are not
    uniform; that gap is gated at <= 5% by ``offload_sweep``'s schedule
    claim, which ``tests/test_experiments.py`` checks on the full sweep.)"""
    for grads, dpu, chunks, numel in itertools.product(
        (False, True), (False, True), (1, 4, 8), (1 << 20, 3 << 22)
    ):
        assert_schedule_meets_oracles(
            offload_tiers(grads, dpu), numel=numel, grad_chunks=chunks
        )


# The offload closed form's (compute, grads_ready, cpu_adam, param_h2d,
# step) seconds at ad00da6, the commit before it was folded into the
# infinity closed form, nd = 4, batch = 4, 7 gradient chunks. There, the two
# were ``==`` field for field on all 216 cases of {3 models} x nd {1, 4, 64}
# x batch {1, 4, 16} x chunks {1, 7} x host gradients x DPU; these 12 are
# what is kept of that grid. Both closed forms are gone: the one evaluator
# on uniform inputs lands on them to PIECE_SPLIT.
#: (model, host gradients, DPU) -> float.hex per field
FOLD_GOLDEN = {
    (0, False, False): ("0x1.0ed626d6c4e20p-7", "0x1.0f347c0225ef4p-7", "0x1.e21c2e22c1e5bp-15", "0x1.7954ad8435065p-17", "0x1.1174ed5ba9be6p-7"),
    (0, False, True): ("0x1.0ed626d6c4e20p-7", "0x1.0f347c0225ef4p-7", "0x1.e21c2e22c1e5bp-15", "0x1.7954ad8435065p-17", "0x1.0f347c0225ef4p-7"),
    (0, True, False): ("0x1.0ed626d6c4e20p-7", "0x1.0f2b87b915cb0p-7", "0x1.e21c2e22c1e5bp-15", "0x1.7954ad8435065p-17", "0x1.116bf912999a2p-7"),
    (0, True, True): ("0x1.0ed626d6c4e20p-7", "0x1.0f2b87b915cb0p-7", "0x1.e21c2e22c1e5bp-15", "0x1.7954ad8435065p-17", "0x1.0f2b87b915cb0p-7"),
    (1, False, False): ("0x1.379c0e34a0c4ep-5", "0x1.38f5ca073ed67p-5", "0x1.00adc74570c4ep-10", "0x1.59bbd29e1197fp-13", "0x1.4254f414086e2p-5"),
    (1, False, True): ("0x1.379c0e34a0c4ep-5", "0x1.38f5ca073ed67p-5", "0x1.00adc74570c4ep-10", "0x1.59bbd29e1197fp-13", "0x1.38f5ca073ed67p-5"),
    (1, True, False): ("0x1.379c0e34a0c4ep-5", "0x1.37df6bee51412p-5", "0x1.00adc74570c4ep-10", "0x1.59bbd29e1197fp-13", "0x1.413e95fb1ad8dp-5"),
    (1, True, True): ("0x1.379c0e34a0c4ep-5", "0x1.37df6bee51412p-5", "0x1.00adc74570c4ep-10", "0x1.59bbd29e1197fp-13", "0x1.37df6bee51412p-5"),
    (2, False, False): ("0x1.e345e08b12289p+2", "0x1.f9dcfac3779fcp+2", "0x1.0f14e6c1eb725p+1", "0x1.6971a38657728p-2", "0x1.4bff442e69680p+3"),
    (2, False, True): ("0x1.e345e08b12289p+2", "0x1.f9dcfac3779fcp+2", "0x1.0f14e6c1eb725p+1", "0x1.6971a38657728p-2", "0x1.f9dcfac3779fcp+2"),
    (2, True, False): ("0x1.e345e08b12289p+2", "0x1.e6802ccfc591fp+2", "0x1.0f14e6c1eb725p+1", "0x1.6971a38657728p-2", "0x1.4250dd3490612p+3"),
    (2, True, True): ("0x1.e345e08b12289p+2", "0x1.e6802ccfc591fp+2", "0x1.0f14e6c1eb725p+1", "0x1.6971a38657728p-2", "0x1.e6802ccfc591fp+2"),
}


#: the schedule sends whole-byte pieces (``part // 7``) and sums the
#: refresh wire hop by hop; the closed form split bytes as floats.
PIECE_SPLIT = 1e-8


@pytest.mark.parametrize("case", sorted(FOLD_GOLDEN))
def test_folded_cost_model_reproduces_offload_cost_model(case):
    model, grads, dpu = case
    tiers = offload_tiers(grads, dpu)
    inputs = StepInputs.uniform(
        FOLD_MODELS[model], tiers, batch=4, seq_len=SEQ_LEN, checkpointing=True,
        numel=-(-FOLD_MODELS[model].total_params // 4),
        peak_flops=V100_32GB.peak_flops, grad_chunks=7,
    )
    sched = steady_step(inputs, tiers, PCIE_3_X16, NVME_RAID)
    assert sched.opt_page_in_s == sched.opt_page_out_s == 0.0
    assert (
        sched.compute_end, sched.grads_ready, sched.cpu_adam_s, sched.refresh_wire_s, sched.step_s
    ) == pytest.approx(tuple(map(float.fromhex, FOLD_GOLDEN[case])), rel=PIECE_SPLIT, abs=0)


# -- ZeRO-Offload, pinned before the second runtime went -----------------------
#
# ZeRO-Offload used to be spelled by ``offload_*`` flags on ``ZeROConfig``,
# which built an ``OffloadRuntime``; it is now the host-only
# ``InfinityConfig`` (``offload_tiers``) and builds the one tier runtime.
# sha256 digests (first 32 hex digits), computed at the commit before the
# runtimes merged (ad00da6), of everything an offload run lets a rank observe
# over three steps on two ranks: losses and the final fp32 master, every
# step report's floats, the ``(op, bytes, group)`` ledger stream, the
# tracer's spans and side-lane spans, the rank's device allocation stream and
# the job's host/NVMe-pool allocations. The ledger *phase* label is the one
# thing the change renames (``offload-*`` -> ``infinity-*``) and is left out.
# The stage-3 cells were re-pinned when stage 3 began charging
# construction unit by unit after its shards. A line-by-line diff of the
# hashed material (``tools/golden_lines.py``) showed only the construction
# allocations moved, to after the CB buffer and shard allocations.

#: the report floats both runtimes' step reports carry (names as of now)
REPORT_FIELDS = (
    "compute_s", "grad_out_s", "param_refresh_s", "cpu_adam_s",
    "grads_ready_s", "carry_in_s", "step_s",
)

#: (stage, host gradients, DPU, meta) -> one digest per rank
FLAG_GOLDEN = {
    (1, False, False, False): ("5ab1749c5105222f78de5167fd0f846f", "3ff02e353f0d33cabac62418ad5b6b5b"),
    (1, False, False, True): ("8125cdffe67ee4d91324b2552c61e338", "5131ffa58c879924594ae23e2db7b6a4"),
    (1, False, True, False): ("486e12a1eef19f9c598248a718cd2f71", "7cb54c780bd2d40cddc3fdf53d032267"),
    (1, False, True, True): ("ca71bb32f7c1360fde19183a129aa91a", "1ad4240360cc87b077f2783e4c1ad123"),
    (2, False, False, False): ("60d971aac7ba4ddd267f668475c33db3", "a1a377f75df155620418901f34591df9"),
    (2, False, False, True): ("bb6322ffc23dbb386efdaec6db3ddea6", "5dc225e9f29c08092a2e4bb2e839a104"),
    (2, False, True, False): ("6f682f2ff91ece2b34429e854620eb3e", "fbd8e139dd1f31b8048eaa8149f7bfb9"),
    (2, False, True, True): ("4ebfe404547d3b48a00e3386ec9fde73", "15334552977813529c8c8125308e3f8c"),
    (2, True, False, False): ("6e6c6abfde3dce712eaea9451fc4809d", "d84c95a7f9ee1c8f288852ad98468364"),
    (2, True, False, True): ("3c332e8969f6349a697593c74593c602", "0e113ba2e5269507a34d51d7a57e2a93"),
    (2, True, True, False): ("c8c40e2b5fa803de33f3f2664470eb08", "f9fd35b420fec312ca26b045be13e384"),
    (2, True, True, True): ("ce2d59ddd82414dab4f81fd1cf602848", "4ce0c10489e1a005d63e792503d20d2c"),
    (3, False, False, False): ("19e984e0253429726e0a62bff8292d48", "a7c4aca8a2ee7053129c0011ff7493a9"),
    (3, False, False, True): ("136c613b88103a01f2887bbc820d109c", "1d5ab528f39bb7b2fa044343f1445823"),
    (3, False, True, False): ("d0470478b68cc214126c3021e1679ec0", "77ebbbfc9fabf98bc425ea73f065e4fe"),
    (3, False, True, True): ("91911a4efabb094c168536b189476d20", "f6d423f4e3f11d80dbf954f8b437fef4"),
    (3, True, False, False): ("16df5641b94b7999e2c75c59997bce24", "1a6ce521745f7c539cbaf8bd1818ce55"),
    (3, True, False, True): ("7ed6c51668394d38fad61467a312d9e9", "7438417f21ad6b7240713bb3fdd0775e"),
    (3, True, True, False): ("68a0d7b83101712aa4b3eca2727c8af2", "890e106a2fa743316fb755b7594d14a6"),
    (3, True, True, True): ("6ec88eaee3f328a3f04fffc0327f14b6", "e40e4081803863bef6cf875a8399bdcc"),
}


class _AllocNotes:
    """A door subscriber listing a device's allocations."""

    def __init__(self, allocs: list):
        self.allocs = allocs

    def _alloc(self, extent, size, tag):
        self.allocs.append(f"{size},{tag}")


def flag_run_digests(stage, grads, dpu, meta, monkeypatch):
    device_allocs = {0: [], 1: []}
    pool_allocs = []
    pool_alloc = HostMemory.alloc

    def recording_pool_alloc(self, size, tag=""):
        pool_allocs.append(f"{self.name},{size},{tag}")
        return pool_alloc(self, size, tag)

    for index, allocs in device_allocs.items():
        watch_devices(monkeypatch, index, lambda _, allocs=allocs: _AllocNotes(allocs))
    monkeypatch.setattr(HostMemory, "alloc", recording_pool_alloc)
    session = TelemetrySession()
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0, telemetry=session)

    def fn(ctx):
        zero = ZeROConfig(
            stage=stage, memory_defrag=False, infinity=offload_tiers(grads, dpu),
        )
        _, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3, meta=meta,
        )
        out = []
        for step in range(3):
            if meta:
                ids = tgt = np.zeros((2, 16), dtype=np.int64)
            else:
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            loss = engine.train_step(ids, tgt).loss
            out.append("loss," + ("-" if loss is None else float(loss).hex()))
        if not meta:
            out.append("master," + engine.opt_state.master.data.tobytes().hex())
        for report in engine.offload.reports:
            out.append("report," + ",".join(getattr(report, f).hex() for f in REPORT_FIELDS))
        return out

    digests = []
    for rank, out in enumerate(cluster.run(fn)):
        out += [
            f"ledger,{e.op},{e.message_bytes},{e.group_ranks}"
            for e in cluster.ledgers[rank].events
        ]
        tracer = session.tracers[rank]
        for kind, spans in (("span", tracer.spans), ("lane", tracer.timeline_spans)):
            out += [
                f"{kind},{s.name},{s.track},{s.start_s.hex()},{s.end_s.hex()}" for s in spans
            ]
        out += ["device," + a for a in device_allocs[rank]]
        out += ["pool," + a for a in sorted(pool_allocs)]
        digests.append(hashlib.sha256("\n".join(out).encode()).hexdigest()[:32])
    return digests


@pytest.mark.parametrize(
    "cell", sorted(FLAG_GOLDEN), ids=lambda c: "s{}-{}-{}-{}".format(
        c[0], "os+g" if c[1] else "os", "dpu" if c[2] else "sync", "meta" if c[3] else "real"
    ),
)
def test_offload_flag_run_matches_the_parent_commit(cell, monkeypatch):
    assert tuple(flag_run_digests(*cell, monkeypatch)) == FLAG_GOLDEN[cell]
