"""ZeRO-Infinity: the tier moves, the math does not.

The infinity engine generalizes ZeRO-Offload's single host tier to a
device -> host DRAM -> NVMe hierarchy. Its core contract is unchanged:
tier placement (optimizer state, gradient shards, paged parameter shards,
memory-centric tiling) must leave the training trajectory bitwise
identical to the all-device engines at every stage; delayed parameter
update remains the single deliberate numeric change. Around that core:
byte accounting on all three pools, the per-tier stream/topology
machinery, the tiling plan, checkpoint round-trips that are
tier-independent, composition with fault injection / elastic recovery,
and the ZeRO-Offload / ZeRO-Infinity closed forms as oracles of the one
step-time evaluator.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro import Cluster, FaultPlan, GPTConfig, InfinityConfig, Supervisor, ZeROConfig
from repro.comm.ledger import CommLedger
from repro.data import SyntheticCorpus
from repro.hardware.specs import NVME_RAID, PCIE_3_X16, GPUSpec, InterconnectSpec
from repro.infinity.schedule import (
    CPU_ADAM_LATENCY_S,
    OPT_STATE_BYTES_PER_ELEM,
    StepInputs,
    steady_step,
)
from repro.infinity.tiers import TierStream, wire_seconds
from repro.infinity.tiling import TilePlan, plan_unit_tiles
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

pytestmark = pytest.mark.infinity

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
STEPS = 4


def train_run(stage, *, world=2, steps=STEPS, **zero_kw):
    """Train a tiny model; return per-rank (losses, master, params,
    host_bytes, nvme_bytes, step_times)."""
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
            ctx.nvme.allocated_bytes,
            times,
        )

    return cluster.run(fn)


@pytest.fixture(scope="module")
def all_device_baseline():
    """All-device reference trajectories, one per stage."""
    return {stage: train_run(stage) for stage in (1, 2, 3)}


# -- bitwise equivalence across tier placements (DPU off) ---------------------

PLACEMENTS = [
    (1, InfinityConfig(optimizer_tier="nvme", grad_tier="device")),
    (2, InfinityConfig(optimizer_tier="nvme", grad_tier="host")),
    (2, InfinityConfig(optimizer_tier="nvme", grad_tier="nvme")),
    (3, InfinityConfig(optimizer_tier="host", grad_tier="host", param_tier="host")),
    (3, InfinityConfig(optimizer_tier="nvme", grad_tier="nvme", param_tier="nvme")),
    (3, InfinityConfig(optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
                       tile_bytes=1024)),
]


@pytest.mark.parametrize(
    "stage, inf", PLACEMENTS, ids=[f"s{s} {i.label}" for s, i in PLACEMENTS]
)
def test_infinity_bitwise_identical_to_all_device(stage, inf, all_device_baseline):
    """NVMe optimizer state, streamed gradients, paged parameter shards and
    tiled gathers change placement only — losses, master weights, and
    served parameters stay byte-identical."""
    run = train_run(stage, infinity=inf)
    ref = all_device_baseline[stage]
    for rank in range(2):
        assert run[rank][0] == ref[rank][0], f"rank {rank} losses diverged"
        np.testing.assert_array_equal(run[rank][1], ref[rank][1])
        np.testing.assert_array_equal(run[rank][2], ref[rank][2])


def test_infinity_places_state_on_tiers_and_reports_step_time(all_device_baseline):
    """The deepest placement parks bytes on the NVMe pool; the baseline
    never touches host or NVMe (zero overhead when disabled)."""
    inf = InfinityConfig(optimizer_tier="nvme", grad_tier="nvme", param_tier="nvme")
    run = train_run(3, infinity=inf)
    ref = all_device_baseline[3]
    for rank in range(2):
        # 12 B/elem Adam state per rank on NVMe, at least (shared pool).
        assert run[rank][4] >= 12 * len(run[rank][1]) * 2
        assert ref[rank][3] == 0 and ref[rank][4] == 0
        assert all(t > 0.0 for t in run[rank][5])  # tier timeline ran


# -- delayed parameter update over tiers: same staleness contract -------------


def test_dpu_staleness_contract_with_nvme_tiers():
    """One-step DPU composed with NVMe optimizer state + paged params:
    fp16 params after step t equal the cast of the master after t-1."""
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(
            stage=3, checkpoint_activations=False, memory_defrag=False,
            infinity=InfinityConfig(
                optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
                delayed_param_update=True,
            ),
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        history = []
        for step in range(STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            history.append(
                (engine.param_shard.data.copy(), engine.opt_state.master.data.copy())
            )
        return history

    for history in cluster.run(fn):
        for t in range(1, STEPS):
            params_t = history[t][0]
            master_prev = history[t - 1][1][: len(params_t)]
            master_now = history[t][1][: len(params_t)]
            assert not np.array_equal(master_now, master_prev)
            np.testing.assert_array_equal(params_t, master_prev.astype(np.float32))


# -- tier topology / streams --------------------------------------------------

LINK = InterconnectSpec(name="test-link", bandwidth_bytes_per_s=100.0, latency_s=1.0)


def test_wire_seconds_alpha_beta():
    assert wire_seconds(LINK, 0) == 0.0
    assert wire_seconds(LINK, 100) == pytest.approx(2.0)  # 1s alpha + 1s bytes


def test_tier_topology_from_cluster_is_hardware_truth():
    """Every tier stream rides the cluster's own links: the Infinity
    engine's PCIe and NVMe streams and the buddy refresh's staging copy
    are the node's ``pcie`` / ``nvme`` specs, and the tier pools hold the
    node's per-GPU shares."""
    from repro.redundancy import BuddyStore

    def fn(ctx):
        zero = ZeROConfig(stage=3, checkpoint_activations=False, memory_defrag=False,
                          infinity=InfinityConfig(optimizer_tier="nvme", param_tier="host"))
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        )
        ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
        engine.train_step(ids, tgt)
        node, topo = ctx.topology.node, ctx.topology
        return (
            engine.offload.pcie.link is node.pcie,
            engine.offload.nvme_stream.link is node.nvme,
            engine.redundancy.pcie.link is node.pcie,
            ctx.host.capacity == node.host_memory_bytes,
            topo.host_bytes_per_gpu == node.host_memory_bytes // node.gpus_per_node,
            topo.nvme_bytes_per_gpu == node.nvme_bytes // node.gpus_per_node,
        )

    cluster = Cluster(2, gpu=GPU, timeout_s=60.0, redundancy=BuddyStore())
    assert cluster.run(fn) == [(True,) * 6] * 2


def test_tier_stream_custom_lanes_record_in_ledger():
    ledger = CommLedger(rank=0)
    st = TierStream(LINK, ledger=ledger, rank=0, directions=("nvme-out", "nvme-in"))
    a = st.copy_async(100, "nvme-out", submit_t=0.0)
    b = st.copy_async(100, "nvme-out", submit_t=0.5)  # serializes behind a
    c = st.copy_async(100, "nvme-in", submit_t=0.0)  # opposite lane: no contention
    assert (a.start_t, a.done_t) == (0.0, 2.0)
    assert (b.start_t, b.done_t) == (2.0, 4.0)
    assert (c.start_t, c.done_t) == (0.0, 2.0)
    assert ledger.by_op() == {"nvme-out": 200.0, "nvme-in": 100.0}
    with pytest.raises(ValueError):
        st.copy_async(10, "d2h")  # not this stream's lanes
    st.reset()
    assert st.handles == [] and st.copy_async(100, "nvme-out", submit_t=0.0).start_t == 0.0


# -- memory-centric tiling ----------------------------------------------------


def test_tile_plan_covers_unit_exactly():
    plan = TilePlan(unit_numel=10, tile_numel=4)
    assert plan.n_tiles == 3 and plan.is_tiled
    assert plan.ranges() == [(0, 4), (4, 8), (8, 10)]
    assert sum(hi - lo for lo, hi in plan.ranges()) == plan.unit_numel
    assert not TilePlan(unit_numel=4, tile_numel=4).is_tiled
    with pytest.raises(ValueError):
        TilePlan(unit_numel=0, tile_numel=4)
    with pytest.raises(ValueError):
        TilePlan(unit_numel=4, tile_numel=0)


def test_plan_unit_tiles_caps_resident_bytes():
    assert plan_unit_tiles(100, 4, None).n_tiles == 1  # no cap: one tile
    assert plan_unit_tiles(100, 4, 10**9).n_tiles == 1  # unit fits
    plan = plan_unit_tiles(100, 4, 80)  # 20 elements per tile
    assert plan.tile_numel == 20 and plan.n_tiles == 5
    assert plan_unit_tiles(100, 4, 1).tile_numel == 1  # floor at one element


def test_tiling_bounds_device_residency_in_meta_mode():
    """Stage 3 + paged params: the device never holds a full unit — the
    modeled peak charges tile-sized staging only, while NVMe accounts the
    parameter and optimizer shards."""

    def build(inf):
        ctx = virtual_rank_context(2, gpu=GPU)
        zero = ZeROConfig(stage=3, memory_defrag=False, infinity=inf)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True
        )
        itemsize = np.dtype(model.dtype).itemsize
        t_ids = Tensor.meta((2, 16), np.int64, device=ctx.device)
        engine.train_step(t_ids, t_ids)
        return ctx, engine, itemsize

    inf = InfinityConfig(
        optimizer_tier="nvme", grad_tier="host", param_tier="nvme", tile_bytes=1024
    )
    ctx_dev, eng_dev, _ = build(None)
    ctx_inf, eng_inf, itemsize = build(inf)
    assert ctx_dev.nvme.allocated_bytes == 0 and ctx_dev.host.allocated_bytes == 0
    # NVMe holds the fp32 optimizer state and the fp16 parameter shard.
    assert ctx_inf.nvme.allocated_bytes == (12 + itemsize) * eng_inf.part_numel
    # host holds the gradient shard
    assert ctx_inf.host.allocated_bytes == itemsize * eng_inf.part_numel
    # and the device working set shrank versus all-device stage 3
    assert ctx_inf.device.max_allocated_bytes < ctx_dev.device.max_allocated_bytes


# -- configuration validation -------------------------------------------------


def test_infinity_config_rejects_invalid_combinations():
    with pytest.raises(ValueError):
        InfinityConfig(optimizer_tier="tape")
    with pytest.raises(ValueError):
        InfinityConfig(optimizer_tier="device", grad_tier="host")
    with pytest.raises(ValueError):
        InfinityConfig(optimizer_tier="device", grad_tier="device",
                       delayed_param_update=True)
    with pytest.raises(ValueError):
        InfinityConfig(prefetch_depth=0)
    with pytest.raises(ValueError):
        InfinityConfig(tile_bytes=0, param_tier="nvme")
    with pytest.raises(ValueError):
        InfinityConfig(tile_bytes=1024)  # tiling needs an off-device param tier
    with pytest.raises(ValueError):
        InfinityConfig(opt_chunk_bytes=0)
    label = InfinityConfig(
        optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
        tile_bytes=1 << 20, delayed_param_update=True,
    ).label
    assert label == "inf[os@nvme,g@host,p@nvme,tile1M,DPU]"


def test_zero_config_gates_infinity_by_stage():
    with pytest.raises(ValueError):
        ZeROConfig(stage=0, infinity=InfinityConfig())
    with pytest.raises(ValueError):  # streamed grads need stage >= 2
        ZeROConfig(stage=1, infinity=InfinityConfig(grad_tier="host"))
    with pytest.raises(ValueError):  # paged params need stage 3
        ZeROConfig(stage=2, infinity=InfinityConfig(param_tier="nvme"))
    label = ZeROConfig(
        stage=3, infinity=InfinityConfig(param_tier="nvme")
    ).label
    assert "inf[" in label


def test_unpartitioned_engine_rejects_infinity():
    """The DDP engine resolves the config's placement itself: a tier config
    set around ``ZeROConfig``'s constructor meets the same refusal."""
    from repro.parallel.ddp import DDPEngine

    ctx = virtual_rank_context(1, gpu=GPU)
    model, _ = build_model_and_engine(ctx, CFG, ZeROConfig(), dp_group=ctx.world, meta=True)
    zero = ZeROConfig()
    object.__setattr__(zero, "infinity", InfinityConfig(grad_tier="device"))
    with pytest.raises(ValueError, match="requires a partitioned"):
        DDPEngine(ctx, model, ctx.world, zero)


# -- checkpoints: tier-placement-independent ----------------------------------


def test_checkpoint_roundtrip_is_tier_independent(tmp_path, all_device_baseline):
    """NVMe-resident optimizer state checkpoints and resumes bitwise — into
    an infinity engine or an all-device one."""
    root = tmp_path / "ckpts"
    inf = InfinityConfig(optimizer_tier="nvme", grad_tier="host")

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

    run_phase(resume=False, infinity=inf)  # 2 steps on tiers, then save
    resumed_inf = run_phase(resume=True, infinity=inf)
    resumed_dev = run_phase(resume=True)  # same checkpoint, all-device
    ref = all_device_baseline[2]
    for rank in range(2):
        assert resumed_inf[rank][0] == ref[rank][0][2:]
        assert resumed_dev[rank][0] == ref[rank][0][2:]
        np.testing.assert_array_equal(resumed_inf[rank][1], ref[rank][1])
        np.testing.assert_array_equal(resumed_dev[rank][1], ref[rank][1])


# -- composition with fault injection / elastic recovery ----------------------


@pytest.mark.faults
def test_infinity_composes_with_elastic_recovery(tmp_path):
    """Kill one of three ranks mid-run with optimizer state on NVMe; the
    supervisor re-forms a 2-rank world from the durable checkpoint and the
    recovered trajectory matches an uninterrupted 2-rank resume, bitwise."""
    total_steps, ckpt_every = 6, 2
    root = tmp_path / "ckpts"
    inf = InfinityConfig(optimizer_tier="nvme", grad_tier="host")

    def make_fn(resume_root):
        def train_fn(ctx):
            zero = ZeROConfig(
                stage=2, checkpoint_activations=False, memory_defrag=False,
                infinity=inf,
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
            stage=2, checkpoint_activations=False, memory_defrag=False, infinity=inf,
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


# -- the closed forms: oracles of the one evaluator ----------------------------


COST_MODEL = GPTConfig(n_layers=4, hidden=512, n_heads=8, vocab_size=50257, max_seq_len=1024)
#: tiny to 40 layers: the models ``tests/test_offload.py``'s ``FOLD_GOLDEN``
#: pins the uniform schedule on.
FOLD_MODELS = (
    CFG,
    GPTConfig(n_layers=4, hidden=256, n_heads=8, vocab_size=1024, max_seq_len=128),
    GPTConfig(n_layers=40, hidden=4096, n_heads=32, vocab_size=50257, max_seq_len=1024),
)
#: a 1 PFLOP/s device: backward short enough for either lane to saturate.
FAST_FLOPS = 1e15
#: 2 ulp: the oracles sum ``fwd + (bwd + wire)`` where the schedule
#: accumulates ``(fwd + bwd) + wire``; nothing else separates them.
REASSOCIATION = 1e-15


def streaming_oracle(bwd, k, c_p, c_n=0.0):
    """ZeRO-Offload's regimes for k equal gradient pieces submitted uniformly
    over a backward window B, one hop further for NVMe: the last byte lands
    at B + c_p + c_n when no lane saturates, B/k + k*c_p + c_n when PCIe
    does, B/k + c_p + k*c_n when the drive lane does. Returns (time, regime)."""
    regimes = (bwd + c_p + c_n, bwd / k + k * c_p + c_n, bwd / k + c_p + k * c_n)
    return max(regimes), regimes.index(max(regimes))


def flow_shop_oracle(chunks, a, u, o):
    """C equal optimizer chunks through NVMe in -> host Adam -> NVMe out:
    one chunk's whole chain, then C - 1 bottleneck stages."""
    return CPU_ADAM_LATENCY_S + a + u + o + (chunks - 1) * max(a, u, o)


def gather_pass_oracle(window, units, chain):
    """Depth-1 prefetch over equal unit gathers: the first chain is exposed,
    each later unit costs max(its compute slice, its chain), then one slice."""
    if not units:
        return window
    return chain + sum(max(window / units, chain) for _ in range(units - 1)) + window / units


def assert_schedule_meets_oracles(
    cfg, model=COST_MODEL, *, numel, grad_chunks=1, gather_units=0,
    peak_flops=GPU.peak_flops, rel=REASSOCIATION,
):
    """``steady_step`` on ``StepInputs.uniform`` against the oracles composed
    (the refresh is a plain serial hop, read off the schedule). Returns the
    streaming regime that bound, or None for a boundary d2h."""
    pcie, nvme = (lambda b: wire_seconds(PCIE_3_X16, b)), (lambda b: wire_seconds(NVME_RAID, b))
    hop = lambda tier, b: nvme(b) if tier == "nvme" else 0.0  # noqa: E731
    part = 2 * numel
    unit = part // gather_units if gather_units else 0
    gathers = {"forward": [(unit, 1)] * gather_units, "backward": [(unit, 1)] * gather_units}
    inputs = StepInputs.uniform(
        model, cfg, batch=4, seq_len=1024, checkpointing=True, numel=numel,
        peak_flops=peak_flops, grad_chunks=grad_chunks, gathers=gathers,
    )
    sched = steady_step(inputs, cfg, PCIE_3_X16, NVME_RAID)
    chain = pcie(unit) + hop(cfg.param_tier, unit)
    fwd = gather_pass_oracle(inputs.fwd_s, gather_units, chain)
    bwd = gather_pass_oracle(inputs.bwd_s, gather_units, chain)
    ready, regime = fwd + bwd + pcie(part), None
    if cfg.grad_tier != "device":
        c = part / grad_chunks
        last, regime = streaming_oracle(bwd, grad_chunks, pcie(c), hop(cfg.grad_tier, c))
        ready = fwd + last
    rate = cfg.cpu_adam_elements_per_s
    adam = update = CPU_ADAM_LATENCY_S + numel / rate
    if cfg.optimizer_tier == "nvme":
        in_bpe = OPT_STATE_BYTES_PER_ELEM + (2 if cfg.grad_tier == "nvme" else 0)
        chunks = -(-numel // (cfg.opt_chunk_bytes // (in_bpe + OPT_STATE_BYTES_PER_ELEM)))
        e = numel / chunks
        update = flow_shop_oracle(
            chunks, nvme(e * in_bpe), e / rate, nvme(e * OPT_STATE_BYTES_PER_ELEM)
        )
    tail = update + sched.refresh_wire_s
    if cfg.delayed_param_update:  # the tail rides the next step's compute
        step = max(fwd + bwd, ready, tail)
    else:
        step = max(fwd + bwd, ready + tail)
    for got, want in (
        (sched.compute_end, fwd + bwd), (sched.grads_ready, ready),
        (sched.cpu_adam_s, adam), (sched.step_s, step),
    ):
        assert got == pytest.approx(want, rel=rel, abs=0)
    return regime


def test_infinity_cost_model_tracks_simulated_timeline():
    """On uniform pieces the closed forms *are* the schedule — host+NVMe,
    NVMe-gradient and all-NVMe placements, with and without DPU, over models and devices
    whose compute hides or exposes the lanes, agree to float
    re-association. (The engines' real pieces are not uniform; that gap is
    measured and gated at <= 5% by ``BENCH_infinity_trillion``.)"""
    regimes = set()
    for model, flops, dpu, chunks, numel in itertools.product(
        (COST_MODEL, *FOLD_MODELS), (GPU.peak_flops, FAST_FLOPS),
        (False, True), (1, 4, 8), (1 << 20, 3 << 22),
    ):
        shape = dict(numel=numel, grad_chunks=chunks, peak_flops=flops)
        paged = InfinityConfig(  # optimizer state on NVMe, paged in 4 equal chunks
            optimizer_tier="nvme", grad_tier="host", delayed_param_update=dpu,
            opt_chunk_bytes=2 * OPT_STATE_BYTES_PER_ELEM * (numel // 4),
        )
        regimes.add(assert_schedule_meets_oracles(paged, model, **shape))
        all_nvme = InfinityConfig(  # NVMe gradients page in with the state
            optimizer_tier="nvme", grad_tier="nvme", param_tier="nvme",
            delayed_param_update=dpu, opt_chunk_bytes=(2 * OPT_STATE_BYTES_PER_ELEM + 2) * numel,
        )
        regimes.add(assert_schedule_meets_oracles(all_nvme, model, gather_units=4, **shape))
        # Without NVMe gathers stretching backward, the drive lane can saturate.
        nvme_grads = replace(all_nvme, param_tier="device")
        regimes.add(assert_schedule_meets_oracles(nvme_grads, model, **shape))
        # Several chunks behind a read-bound NVMe lane hide part of the
        # first chunk's 50 us Adam latency; the flow-shop charges it whole.
        # On the original grid's seconds-long steps that is under 1e-5.
        if model is COST_MODEL and flops == GPU.peak_flops:
            chunked = replace(all_nvme, opt_chunk_bytes=all_nvme.opt_chunk_bytes // 4)
            assert_schedule_meets_oracles(chunked, model, gather_units=4, rel=1e-5, **shape)
    assert regimes == {0, 1, 2}  # no lane, PCIe, and the drive lane saturated
    from repro.experiments.infinity_sweep import TIME_CASES, run_time

    rows = run_time(TIME_CASES)  # the sweep itself still runs; its bound is the benchmark's
    assert len(rows) == 6 and all(row.sim_step_s > 0.0 < row.uniform_step_s for row in rows)


def test_tier_state_bytes_accounts_every_tier():
    from repro.analysis.memory_model import model_state_bytes, state_bytes_by_tier
    from repro.zero.placement import Mesh

    psi, nd = 1_000_000.0, 4
    inf = InfinityConfig(optimizer_tier="nvme", grad_tier="host", param_tier="nvme")
    tiers = state_bytes_by_tier(psi, Mesh(dp=nd), ZeROConfig(stage=3, infinity=inf).placement)
    assert tiers["nvme"] == pytest.approx(12 * psi / nd + 2 * psi / nd)
    assert tiers["host"] == pytest.approx(2 * psi / nd)
    # every model-state byte lands on exactly one tier
    all_device = model_state_bytes(psi, mesh=Mesh(dp=nd), stage=3)
    assert sum(tiers.values()) == pytest.approx(all_device)


# -- one schedule: the offload runtime is the host-only placement --------------

HOST_ONLY = dict(optimizer_tier="host", grad_tier="host", param_tier="device")


def meta_clock(zero, *, world=2, mp=1, steps=3):
    """Meta-mode training; per rank (step reports, (op, bytes) ledger)."""
    cluster = Cluster(world, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        mp_ranks = [r for r in range(world) if r // mp == ctx.rank // mp]
        dp_ranks = [r for r in range(world) if r % mp == ctx.rank % mp]
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.group(dp_ranks),
            mp_group=ctx.group(mp_ranks) if mp > 1 else None, meta=True, seed=0,
        )
        ids = np.zeros((2, 16), dtype=np.int64)
        for _ in range(steps):
            engine.train_step(ids, ids)
        ledger = [(e.op, e.message_bytes) for e in ctx.ledger.events]
        return engine.offload.reports, ledger

    return cluster.run(fn)


def test_tier_runtime_prices_the_recompute_the_model_runs():
    """The tier runtime's compute window is the traced forward + backward:
    without activation checkpointing it prices no recompute."""
    ctx = virtual_rank_context(4, gpu=GPU)
    zero = ZeROConfig(
        stage=2, checkpoint_activations=False, memory_defrag=False,
        infinity=InfinityConfig(optimizer_tier="host", grad_tier="device", param_tier="device"),
    )
    _, engine = build_model_and_engine(ctx, CFG, zero, dp_group=ctx.world, meta=True)
    ids = Tensor.meta((2, 16), np.int64, device=ctx.device)
    engine.train_step(ids, ids)
    assert engine.offload.reports[-1].compute_s == sum(engine._compute_split(2, 16))


def test_a_compute_throttle_stretches_the_tier_runtime_as_it_does_the_trace():
    """A micro-step's compute is priced once, for the tracer and the tier
    runtime alike: a throttled rank's ``compute_s`` is its traced forward +
    backward, three times the healthy rank's."""
    from repro.telemetry import TelemetrySession

    session = TelemetrySession()
    plan = FaultPlan().throttle_rank(rank=1, compute_factor=3.0)
    zero = ZeROConfig(
        stage=2, memory_defrag=False,
        infinity=InfinityConfig(**{**HOST_ONLY, "grad_tier": "device"}),
    )

    def fn(ctx):
        _, engine = build_model_and_engine(ctx, CFG, zero, dp_group=ctx.world, meta=True)
        ids = np.zeros((2, 16), dtype=np.int64)
        for _ in range(2):
            engine.train_step(ids, ids)
        return engine.offload.reports[-1].compute_s

    compute = Cluster(2, gpu=GPU, timeout_s=60.0, fault_plan=plan, telemetry=session).run(fn)
    for rank, compute_s in enumerate(compute):
        last = {s.name: s.duration_s for s in session.tracers[rank].spans}  # the last step's
        assert compute_s == pytest.approx(last["forward"] + last["backward"], rel=1e-9), rank
    assert compute[1] == pytest.approx(3.0 * compute[0], rel=1e-12)


def test_offload_compute_window_divides_by_mp_degree():
    """Under tensor parallelism the runtime prices the compute window
    over this rank's 1/mp share of the FLOPs."""
    zero = ZeROConfig(
        stage=1, memory_defrag=False,
        infinity=InfinityConfig(**{**HOST_ONLY, "grad_tier": "device"}),
    )
    tiered = meta_clock(zero, world=4, mp=2)
    unsharded = meta_clock(zero, world=2)
    for inf_reports, _ in tiered:
        assert inf_reports[-1].compute_s == pytest.approx(
            unsharded[0][0][-1].compute_s / 2
        )
