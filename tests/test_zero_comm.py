"""Section 7 communication volumes, measured from the per-rank ledger."""

import sys

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.analysis.comm_model import dp_volume_elements
from repro.comm.fabric import Fabric
from repro.comm.ledger import CommEvent, exact_ring_factor
from repro.data import SyntheticCorpus
from repro.experiments.common import virtual_groups
from repro.hardware.specs import GPUSpec
from repro.parallel.engine import EngineConfig
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.zero.config import C4
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh
from tests.streams import DeviceStream, ledger_digest

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)

EXPECTED_PSI = {0: 2.0, 1: 2.0, 2: 2.0, 3: 3.0}


def measure(stage, *, meta=False, world=4, bucket=1500, mesh=None):
    """Per rank: ledger volume and per-phase volume in units of the rank's
    fp16 flat space; ``mesh`` (default: all of ``world`` on ``dp``) places
    the ranks."""
    mesh = mesh or Mesh(dp=world)
    cluster = Cluster(mesh.world, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=stage, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.group(mesh.dp_group(ctx.rank)),
            pp_group=ctx.group(mesh.pp_group(ctx.rank)),
            dtype=np.float16, seed=0, meta=meta,
            engine_config=EngineConfig(bucket_numel=bucket),
        )
        ctx.ledger.clear()
        if meta:
            ids = Tensor.meta((2, 16), np.int64, device=ctx.device)
            tgt = Tensor.meta((2, 16), np.int64, device=ctx.device)
            engine.train_step(ids, tgt)
        else:
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
            engine.train_step(ids, tgt)
        psi_bytes = engine.layout.numel * 2
        return (
            ctx.ledger.nominal_bytes() / psi_bytes,
            {k: v / psi_bytes for k, v in ctx.ledger.by_phase().items()},
        )

    return cluster.run(fn)


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_nominal_volume_matches_paper(stage):
    for volume, _ in measure(stage):
        assert volume == pytest.approx(EXPECTED_PSI[stage], abs=1e-9)


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_meta_mode_volume_identical_to_real(stage):
    for mesh in (Mesh(dp=4), Mesh(dp=2, pp=2)):
        real = measure(stage, meta=False, mesh=mesh)
        meta = measure(stage, meta=True, mesh=mesh)
        for (rv, rp), (mv, mp_) in zip(real, meta):
            assert rv == pytest.approx(mv)
            assert rp == pytest.approx(mp_)
            if mesh.pp > 1:  # a stage boundary, both directions
                assert {"pp-act", "pp-grad"} <= set(rp)


def test_stage2_breakdown_is_reduce_plus_allgather():
    _, phases = measure(2)[0]
    assert phases["grad-reduce"] == pytest.approx(1.0)
    assert phases["param-allgather"] == pytest.approx(1.0)


def test_stage3_breakdown_is_two_gathers_plus_reduce():
    _, phases = measure(3)[0]
    assert phases["param-gather"] == pytest.approx(2.0)  # forward + backward
    assert phases["grad-reduce"] == pytest.approx(1.0)
    assert "param-allgather" not in phases  # no end-of-step gather


def test_stage0_is_pure_allreduce():
    _, phases = measure(0)[0]
    assert set(phases) == {"grad-allreduce"}
    assert phases["grad-allreduce"] == pytest.approx(2.0)


@pytest.mark.parametrize("bucket", [500, 5000])
def test_volume_independent_of_bucket_size(bucket):
    for volume, _ in measure(2, bucket=bucket):
        assert volume == pytest.approx(2.0)


def test_volume_independent_of_world_size():
    for world in (2, 4):
        for volume, _ in measure(2, world=world):
            assert volume == pytest.approx(2.0)


def test_exact_ring_volume_scales_with_group():
    """Exact wire bytes carry the (N-1)/N ring factor the paper drops."""
    cluster = Cluster(4, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=0, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
        )
        ctx.ledger.clear()
        ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
        engine.train_step(ids, tgt)
        return ctx.ledger.exact_bytes() / ctx.ledger.nominal_bytes()

    ratio = cluster.run(fn)[0]
    assert ratio == pytest.approx(exact_ring_factor("all_reduce", 4) / 2.0)


#: One stage-3 step of CFG at world 4, bucket 1500, fp16, as (op, bytes):
#: forward gathers each unit, backward re-gathers it and reduces its
#: gradient buckets. Recorded before the rendezvous rewrite; the fabric
#: may get cheaper but this sequence may not move.
STAGE3_STEP = [
    ("broadcast", 4928), ("broadcast", 10016), ("broadcast", 14944), ("broadcast", 448),
    ("broadcast", 14496), ("broadcast", 10912), ("broadcast", 4032),
    ("broadcast", 4032), ("reduce", 4032),
    ("broadcast", 14496), ("broadcast", 10912), ("reduce", 14496), ("reduce", 10912),
    ("broadcast", 10016), ("broadcast", 14944), ("broadcast", 448),
    ("reduce", 10016), ("reduce", 14944), ("reduce", 448),
    ("broadcast", 4928), ("reduce", 4928),
]


def test_stage3_ledger_sequence_is_golden():
    """Three stage-3 steps at world 4 record, on every rank, exactly the
    golden ``CommEvent`` list — op order, sizes, group, phase — and each
    step's volume is ``comm_model``'s 3 Psi."""
    cluster = Cluster(4, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=3, checkpoint_activations=True, memory_defrag=False)
        _, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
            engine_config=EngineConfig(bucket_numel=1500),
        )
        ctx.ledger.clear()
        for step in range(3):
            engine.train_step(*CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step))
        return list(ctx.ledger.events), engine.layout.numel

    phase_of = {"broadcast": "param-gather", "reduce": "grad-reduce"}
    golden = [
        CommEvent(op, nbytes, 4, (0, 1, 2, 3), phase_of[op]) for op, nbytes in STAGE3_STEP
    ] * 3
    for events, psi in cluster.run(fn):
        assert events == golden
        assert all(type(e.message_bytes) is int for e in events)
        step_elements = sum(e.nominal_bytes for e in events) / 3 / 2  # fp16
        assert step_elements == dp_volume_elements(psi, 3) == 3 * psi


# -- the two streams behind the coalesced collectives ------------------------------
#
# One rendezvous now carries a bucket's per-owner reduces (or a unit's
# per-owner broadcasts). What the simulated job communicates and allocates
# must not notice: sha256 digests, computed at the commit before the
# coalesced entry (499c20e), of every rank's ledger sequence
# ("op,bytes,group,phase,peer;" per event, "|" after each rank) and of rank
# 0's Device stream ("+size,tag;" per alloc, "-size,tag;" per free), engine
# construction and two optimizer steps included.

STREAM_MODEL = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
STREAM_CORPUS = SyntheticCorpus(128, seed=3)

# The stage-3 runs were re-pinned when stage 3 began charging
# construction unit by unit after its shards. A line-by-line diff of the
# hashed material (``tools/golden_lines.py``) showed construction's device
# events moved, and twelve steady frees of ``attn.qkv.y`` / ``qkv.dW`` free
# a 49 152-byte block where construction used to leave a 65 536-byte one
# cached for them; the ledgers held.
#: run -> (how, ledger events, ledger digest, device events, device digest)
STREAM_GOLDEN = {
    "stage1": (
        dict(stage=1),
        40, "8919df83a5cad6c0d9bd9544e80feb3bf3098cd2e7c8b9b860a92d536ea05eaf",
        761, "396078c3c8deb9d480211a37325a6b0b98d05b8f30850bff659f6da46210ff08",
    ),
    "stage2": (
        dict(stage=2),
        40, "8919df83a5cad6c0d9bd9544e80feb3bf3098cd2e7c8b9b860a92d536ea05eaf",
        762, "ddbe897b6453d52f56a610f46df274320e81f8be7dda7eb6a74fd0216cdf536b",
    ),
    "stage3": (
        dict(stage=3),
        168, "d5a31b35b8f21f3d586a52861ad9748e64f2d9ad2013fb94cd52d6a81ae6ab73",
        1036, "a617ccb7f100f46a75c8ce9d38f79fb757ca28a2be2791576e9902418823dfa6",
    ),
    "stage3-meta-w8": (
        dict(stage=3, world=8, meta=True),
        304, "767c99297beaab8010f0ba31d42a3623f4f1b334cc78c96ce005ce5efdfe10aa",
        1004, "98d420397ca20f84af1a5a9609b80069b765a02217fd5deab7a18a0be68d4999",
    ),
    # Six buckets a micro-step, so the plan cache holds more than one key.
    "stage2-accumulate2": (
        dict(stage=2, accumulation=2, bucket=20_000),
        168, "f42446efdfa2fc6aed0c090718e773509834c182cb3d95b115ae6840633bacb3",
        1538, "4ad5c57575735a331fb0751b3f68345a9aaa6fee5bc499699b607d1e568846bd",
    ),
    # Stage 1 under accumulation hooks nothing: the boundary hands every
    # resident gradient to the buckets, in reversed layout order.
    "stage1-accumulate2": (
        dict(stage=1, accumulation=2, bucket=20_000),
        72, "521745e2d6eacc597390e96e2d1a729d9abc02df0508f37a6eefdd4f5df23a3c",
        1489, "f32903ad06ace34b6de432a13eaa4795c1e3acaeb3061c7b846ebacb8ce23739",
    ),
    # One virtual rank of a C4 job (MP 4, Pa and MD on) at four layers:
    # ``meta_rank_100b``'s path, block tapes re-issuing every block.
    "c4-virtual-rank": (
        dict(n_gpus=16, mp=4),
        135, "2f544a55c0087c04e9fe670fb05a9bbf51e403e462a6c7aee0a01017e83affb9",
        2382, "47f4e3c67ad3cc021e31ca4f859b0ba1e7182a96182411463b5847b9a28b95a7",
    ),
}


def run_virtual_rank(*, n_gpus, mp, steps=3) -> list:
    """``steps`` steps of rank 0 of a C4 job on ``virtual_rank_context(n_gpus)``
    at MP ``mp``, the way hostbench's ``meta_rank_100b`` builds it (shrunk:
    four layers, batch 4 x 128). Returns the rank's ledger in a list."""
    ctx = virtual_rank_context(n_gpus)
    dp, mp_group = virtual_groups(ctx, n_gpus, mp)
    _, engine = build_model_and_engine(
        ctx, GPTConfig(n_layers=4, hidden=512, n_heads=8), C4, dp_group=dp,
        mp_group=mp_group, meta=True, md_region_bytes=2 << 30, seed=3,
    )
    ids, tgt = (Tensor.meta((4, 128), np.int64, device=ctx.device) for _ in range(2))
    for _ in range(steps):
        engine.train_step(ids, tgt)
    return [ctx.ledger]


def run_stream_model(stage, *, world=4, meta=False, accumulation=1, bucket=1 << 19, steps=2,
                     after_step=None):
    """``steps`` optimizer steps of ``STREAM_MODEL`` the way hostbench's
    ``fabric_w8_s3`` builds it (fp32, ``memory_defrag=False``). Returns the
    cluster and, per rank, how many segment plans its bucket records held
    over the run (a re-planned bucket's new plan counts again)."""
    cluster = Cluster(world, timeout_s=60.0)

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, STREAM_MODEL, ZeROConfig(stage=stage, memory_defrag=False),
            dp_group=ctx.world, dtype=np.float32, seed=3, meta=meta,
            engine_config=EngineConfig(
                gradient_accumulation_steps=accumulation, bucket_numel=bucket
            ),
        )
        plans = {}
        for step in range(steps * accumulation):
            if meta:
                batch = [Tensor.meta((2, 32), np.int64, device=ctx.device) for _ in range(2)]
            else:
                batch = STREAM_CORPUS.sample_batch(2, 32, rank=ctx.rank, step=step)
            engine.train_step(*batch)
            if after_step is not None:
                after_step(ctx)
            plans.update((id(r.plan), r.plan) for r in engine._queue.records)
        return len(plans)

    return cluster, cluster.run(fn)


@pytest.mark.parametrize("name", sorted(STREAM_GOLDEN))
def test_ledger_and_device_streams_match_the_parent_commit(name, monkeypatch):
    how, n_ledger, ledger_sha, n_device, device_sha = STREAM_GOLDEN[name]
    device = DeviceStream(monkeypatch)
    if "n_gpus" in how:
        ledgers, plans = run_virtual_rank(**how), None
    else:
        cluster, plans = run_stream_model(**how)
        ledgers = cluster.ledgers
    assert sum(len(ledger.events) for ledger in ledgers) == n_ledger
    assert ledger_digest(ledgers) == ledger_sha
    assert device.events == n_device
    assert device.digest == device_sha
    if name == "stage2-accumulate2":
        assert plans == [6] * 4  # planned once each, over 4 micro-steps of 6 buckets


def test_stage3_step_rendezvous_budget(monkeypatch):
    """A stage-3 step of ``STREAM_MODEL`` on 8 ranks is 33 ledger events on
    rank 0 (22 per-owner broadcasts, 11 per-owner reduces) and at most 13
    entries into ``_Rendezvous.exchange``: one per unit gather (4 forward,
    4 backward), one per unit reduce (4), one overflow vote. It was 34
    when every owner's piece was a rendezvous of its own."""
    rendezvous = type(Fabric(1).rendezvous_for((0,)))
    exchange = rendezvous.exchange
    entered = [0]

    def counting(self, rank, value, tag):
        if rank == 0:
            entered[0] += 1
        return exchange(self, rank, value, tag)

    monkeypatch.setattr(rendezvous, "exchange", counting)
    per_step = []

    def after_step(ctx):
        if ctx.rank == 0:
            per_step.append((entered[0], len(ctx.ledger.events)))

    run_stream_model(3, world=8, steps=3, after_step=after_step)
    (e1, l1), (e2, l2), (e3, l3) = per_step
    assert (l2 - l1, l3 - l2) == (33, 33)
    assert e2 - e1 == e3 - e2 <= 13, per_step


def _meta_world_streams(switch_interval):
    """Three meta stage-3 steps of ``STREAM_MODEL`` on 16 ranks under an
    interpreter switch interval: every rank's ledger as ``(op, bytes,
    group, phase)`` and rank 0's device stream (event count, digest)."""
    previous = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        device = DeviceStream(mp)
        sys.setswitchinterval(switch_interval)
        try:
            cluster, _ = run_stream_model(3, world=16, meta=True, steps=3)
        finally:
            sys.setswitchinterval(previous)
    ledgers = [
        [(e.op, e.message_bytes, e.group_ranks, e.phase) for e in ledger.events]
        for ledger in cluster.ledgers
    ]
    return ledgers, (device.events, device.digest)


@pytest.mark.timeout_guard(120)
def test_a_meta_world_does_not_depend_on_the_host_scheduler():
    """Data-free collectives wait for nobody, so how far one rank runs
    ahead of its peers is the host scheduler's choice. What each rank
    communicates and allocates must not be: switching threads every
    microsecond or every 50 ms gives the same streams."""
    fast_ledgers, fast_device = _meta_world_streams(1e-6)
    slow_ledgers, slow_device = _meta_world_streams(0.05)
    assert len(fast_ledgers) == 16 and all(fast_ledgers)
    for rank, (fast, slow) in enumerate(zip(fast_ledgers, slow_ledgers)):
        assert fast == slow, rank
    assert fast_device == slow_device
