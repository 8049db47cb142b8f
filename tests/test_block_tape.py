"""Within-step repetition on the meta path: the block tape (``repro.nn.tape``).

In meta mode the checkpointed block loops of ``GPT2Model`` run the first
block of each direction while a recorder tapes its effects, then re-issue
that tape for every later block with the same signature. Whatever path the
host takes, the simulated job may not notice: every digest below was
computed before the tape existed, on a 6-layer model, and every one must
hold with it.
"""

import hashlib
import inspect
import itertools
import json

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.experiments.common import virtual_groups
from repro.hardware.specs import GPUSpec
from repro.memprof import MemoryProfiler
from repro.memsim.errors import OutOfMemoryError
from repro.memsim.timeline import MemoryTimeline
from repro.nn.transformer import TransformerBlock
from repro.parallel.engine import EngineConfig
from repro.runtime import virtual_rank_context
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.zero.config import C1, C4, C5
from repro.zero.factory import build_model_and_engine
from tests.streams import DeviceStream, HostStream, ledger_digest

MODEL = GPTConfig(n_layers=6, hidden=64, n_heads=8, vocab_size=128, max_seq_len=32)
BATCH = (2, 32)
#: a gradient bucket of ~1.6 blocks' worth of one MP rank's parameters, so
#: flushes land inside blocks (and inside re-issued ones)
BUCKET = 20_000
CORPUS = SyntheticCorpus(128, seed=3)
#: a device on which job 1's first step runs out of memory in block h3's
#: backward (``gpt2.h3.attn.qkv.dx``) — a block the tape re-issues
OOM_GPU = GPUSpec("oom", 18_479_616, 1e12)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def virtual_job(zero=C4, *, steps=2, accumulation=1, gpu=None, observe=None):
    """Rank 0 of an MP 4 x DP 4 meta job on ``virtual_rank_context(16)``,
    MD on, ``steps`` optimizer steps. ``observe(ctx, engine)`` runs after
    the build; returns the context."""
    ctx = virtual_rank_context(16, **({} if gpu is None else {"gpu": gpu}))
    dp, mp = virtual_groups(ctx, 16, 4)
    _, engine = build_model_and_engine(
        ctx, MODEL, zero, dp_group=dp, mp_group=mp, meta=True, md_region_bytes=1 << 20,
        engine_config=EngineConfig(gradient_accumulation_steps=accumulation, bucket_numel=BUCKET),
    )
    if observe is not None:
        observe(ctx, engine)
    ids = Tensor.meta(BATCH, np.int64, device=ctx.device)
    tgt = Tensor.meta(BATCH, np.int64, device=ctx.device)
    for _ in range(steps * accumulation):
        engine.train_step(ids, tgt)
    return ctx


def _common(ctx, device: DeviceStream) -> dict:
    return {
        "device": (device.events, device.digest),
        "ledger": (len(ctx.ledger.events), ledger_digest([ctx.ledger])),
        "peaks": (ctx.device.max_allocated_bytes, ctx.device.max_reserved_bytes),
    }


def job_c4(monkeypatch) -> dict:
    device = DeviceStream(monkeypatch)
    return _common(virtual_job(C4), device)


def job_c5(monkeypatch) -> dict:
    device, host = DeviceStream(monkeypatch), HostStream(monkeypatch)
    ctx = virtual_job(C5)
    return {
        **_common(ctx, device),
        "host": (host.events, host.digest, ctx.host.max_allocated_bytes),
    }


def job_stage3_cluster(monkeypatch) -> dict:
    device = DeviceStream(monkeypatch)
    cluster = Cluster(4, timeout_s=60.0)

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, MODEL, ZeROConfig(stage=3, memory_defrag=False), dp_group=ctx.world,
            meta=True, engine_config=EngineConfig(bucket_numel=BUCKET),
        )
        ids = Tensor.meta(BATCH, np.int64, device=ctx.device)
        tgt = Tensor.meta(BATCH, np.int64, device=ctx.device)
        for _ in range(2):
            engine.train_step(ids, tgt)
        return ctx.device.max_allocated_bytes, ctx.device.max_reserved_bytes

    peaks = cluster.run(fn)
    return {
        "device": (device.events, device.digest),
        "ledger": (sum(len(l.events) for l in cluster.ledgers), ledger_digest(cluster.ledgers)),
        "peaks": peaks[0],
    }


def job_stage1_accumulate2(monkeypatch) -> dict:
    device = DeviceStream(monkeypatch)
    return _common(virtual_job(C1, accumulation=2), device)


def job_observed(monkeypatch) -> dict:
    device = DeviceStream(monkeypatch)
    seen = {}

    def observe(ctx, engine):
        seen["profiler"] = MemoryProfiler(ctx.device)
        seen["timeline"] = engine.timeline = MemoryTimeline(ctx.device)

    ctx = virtual_job(C4, observe=observe)
    seen["timeline"].detach()
    snapshot = seen["profiler"].snapshot()
    seen["profiler"].detach()
    samples = "".join(
        f"{s.index},{s.allocated},{s.reserved},{s.delta},{s.tag},{s.phase};"
        for s in seen["timeline"].samples
    )
    return {
        **_common(ctx, device),
        "snapshot": _sha(json.dumps(snapshot, sort_keys=True)),
        "samples": (len(seen["timeline"].samples), _sha(samples)),
    }


def job_oom(monkeypatch) -> dict:
    device = DeviceStream(monkeypatch)
    seen = {}

    def observe(ctx, engine):
        seen["ctx"] = ctx
        seen["profiler"] = MemoryProfiler(ctx.device)

    with pytest.raises(OutOfMemoryError) as info:
        virtual_job(C4, gpu=OOM_GPU, observe=observe)
    seen["profiler"].detach()
    exc = info.value
    stats = (exc.requested, exc.free, exc.largest_free, exc.allocated, exc.reserved, exc.capacity)
    return {
        **_common(seen["ctx"], device),
        "oom": (_sha(str(exc)), stats, _sha(json.dumps(exc.postmortem.to_json(), sort_keys=True))),
    }


def _forward_free_of_a_foreign_tensor(monkeypatch, log: list):
    """Block ``gpt2.h0``'s forward frees a tensor allocated before the step
    — an effect the recorder does not accept. Logs every block forward."""
    forward = TransformerBlock.forward
    spare = []

    def injected(self, x, ctx):
        log.append(self.name)
        out = forward(self, x, ctx)
        if self.name == "gpt2.h0" and spare:  # not in its recomputation
            spare.pop().free()
        return out

    def observe(ctx, engine):
        step = engine.train_step

        def train_step(*batch):
            spare.append(Tensor((64,), np.float16, device=ctx.device, tag="spare"))
            return step(*batch)

        engine.train_step = train_step

    monkeypatch.setattr(TransformerBlock, "forward", injected)
    return observe


def job_injected(monkeypatch) -> dict:
    device = DeviceStream(monkeypatch)
    observe = _forward_free_of_a_foreign_tensor(monkeypatch, [])
    return _common(virtual_job(C4, observe=observe), device)


JOBS = {
    "c4": job_c4,
    "c5": job_c5,
    "stage3-cluster": job_stage3_cluster,
    "stage1-accumulate2": job_stage1_accumulate2,
    "observed": job_observed,
    "oom": job_oom,
    "injected": job_injected,
}

# The stage-3 cluster job was re-pinned when stage 3 began charging
# construction unit by unit after its shards. A line-by-line diff of its
# hashed material (``tools/golden_lines.py``) showed only construction's
# device events moved; the ledger held, and the peaks fell to the steps'.
#: job -> what it recorded, computed before the tape existed (lists for tuples)
TAPE_GOLDEN = {
    "c4": {
        "device": [2360, "2b36b3e244b3ceba1989bdc09a65f359814bb8f9d9fb0acde855c6ba09a868f2"],
        "ledger": [112, "521dec965b09d6eb9d8cae80cc8d5593b3f23faaa648f31dd6ef8230136b1a46"],
        "peaks": [17423872, 17467904],
    },
    "c5": {
        "device": [2384, "dd08098180c2055833de9f3b6751dc1455ca7ab5614db8d0dc9fc8d3fdbcebce"],
        "ledger": [136, "dd3bbf252ebe6f252d8c7e00049630a6411f13e8b3ebcc0849b39859f6daea57"],
        "peaks": [17423872, 17467904],
        "host": [24, "8a9a4907f14810102ff4f71dc318a746c3c22c4c18dbd184bdb30e1723e4c828", 12288],
    },
    "stage3-cluster": {
        "device": [2858, "f4ac64ffc8dbfed19a966eac816856f0381a9a94237792b3f22365b01c12ea9f"],
        "ledger": [216, "9db500cd38f77cc7a5aeca4c4b9fb03962e0b6e61405b533661974d29152e2c4"],
        "peaks": [18611200, 18723840],
    },
    "stage1-accumulate2": {
        "device": [4427, "504bfe4f79677e3e664d3b4ccea8fea0d2a2a64b3947907b013fe4be16dd52cf"],
        "ledger": [176, "2507190572f443915f5351a0b4e5bc09ab2726cc4a2819ff4503029204e311ae"],
        "peaks": [17600512, 17644544],
    },
    "observed": {
        "device": [2360, "2b36b3e244b3ceba1989bdc09a65f359814bb8f9d9fb0acde855c6ba09a868f2"],
        "ledger": [112, "521dec965b09d6eb9d8cae80cc8d5593b3f23faaa648f31dd6ef8230136b1a46"],
        "peaks": [17423872, 17467904],
        "snapshot": "1ed80e743d9a465a70e425e5b0296a39084f6bf8895074eb7b31bc7f9fc83dd8",
        "samples": [2278, "0a74492d69f943cd3a95de2093cac72a02da024807f97efbe821fdd931471ee6"],
    },
    "oom": {
        "device": [771, "179ebd543d55c4bbaea1e25d82022360936f5f8232411516c7282bb56e05b433"],
        "ledger": [33, "2abf29b06041b6fb64194cbd3c1a77850cae65660c1da5e3a2efb0035805079a"],
        "peaks": [17416192, 17425920],
        "oom": [
            "d865c2f1a82b36eb27e106f9c7957003cf49f5f71c359b4ffed11ad62014ba43",
            [8192, 15360, 7168, 17415680, 17415680, 18479616],
            "cbf0d25f4df0d1a2ef8db317ac1d1f74fbd3bfe445a2fcf8ecb5a49cd49c6b7e",
        ],
    },
    "injected": {
        "device": [2364, "6baa585328fe6a38412244fa2ad430e04411746233d4fcda9e8e9a98eac9d494"],
        "ledger": [112, "521dec965b09d6eb9d8cae80cc8d5593b3f23faaa648f31dd6ef8230136b1a46"],
        "peaks": [17423872, 17467904],
    },
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_streams_match_the_untaped_commit(name, monkeypatch):
    got = json.loads(json.dumps(JOBS[name](monkeypatch)))  # tuples as lists
    assert got == TAPE_GOLDEN[name]


# -- where the tape engages ----------------------------------------------------------


def _count_functional_calls(monkeypatch) -> itertools.count:
    """Counts calls of every public op in ``repro.tensor.functional`` (read
    with ``next``); ``next`` on an ``itertools.count`` is atomic, so rank
    threads may share it."""
    calls = itertools.count()
    for name, op in list(vars(F).items()):
        if name.startswith("_") or not inspect.isfunction(op) or op.__module__ != F.__name__:
            continue

        def counted(*args, __op=op, **kwargs):
            next(calls)
            return __op(*args, **kwargs)

        monkeypatch.setattr(F, name, counted)
    return calls


#: ``repro.tensor.functional`` calls in the second step, before the tape
META_C4_CALLS = 664
#: the same with the tape: the embedding's, the head's and the loss's calls
#: only, every block of both directions re-issued from the first step's tapes
META_C4_TAPED_CALLS = 16
#: the same for the real stage-2 step, with each block's recompute taken
#: from its ``ForwardTape`` (1 336 while every recompute ran the forward)
REAL_STAGE2_CALLS = 928


def test_the_tape_cuts_a_meta_steps_ops_to_a_third(monkeypatch):
    """Job 1's second step makes at most a third of the functional calls
    it made before the tape — to the call, only those of the embedding,
    the head and the loss: all 6 blocks per direction are re-issued."""
    counts = []

    def observe(ctx, engine):
        step = engine.train_step

        def train_step(*batch):
            before = next(calls)
            out = step(*batch)
            counts.append(next(calls) - before - 1)
            return out

        engine.train_step = train_step

    calls = _count_functional_calls(monkeypatch)
    virtual_job(C4, observe=observe)
    assert counts[1] == META_C4_TAPED_CALLS
    assert counts[1] * 3 <= META_C4_CALLS


def test_a_real_step_skips_its_recomputes_ops(monkeypatch):
    """Real data never takes the block tape, but each checkpointed block's
    recompute re-issues its forward's stream without running its ops: a
    2-rank stage-2 step makes the forward's, the loss's and the backward's
    calls, to the call, and none for the six recomputes."""
    cluster = Cluster(2, timeout_s=60.0)
    calls = _count_functional_calls(monkeypatch)
    marks = []

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, MODEL, ZeROConfig(stage=2, memory_defrag=False), dp_group=ctx.world,
            dtype=np.float32, seed=3, engine_config=EngineConfig(bucket_numel=BUCKET),
        )
        for step in range(2):
            ctx.world.barrier(ctx.rank)
            if ctx.rank == 0:
                marks.append(next(calls))
            ctx.world.barrier(ctx.rank)
            engine.train_step(*CORPUS.sample_batch(*BATCH, rank=ctx.rank, step=step))
        ctx.world.barrier(ctx.rank)
        if ctx.rank == 0:
            marks.append(next(calls))

    cluster.run(fn)
    assert marks[2] - marks[1] - 1 == REAL_STAGE2_CALLS


def test_a_foreign_effect_leaves_its_direction_untaped(monkeypatch):
    """A free of a tensor the region did not allocate, seen while block
    ``gpt2.h0`` is captured going forward, sends every forward block of
    that step down the normal path; the backward direction is still
    taped, and the streams are what they were (``job_injected``). The
    refused capture is retried, and refused again, at the next step,
    whose backward re-issues every block from the first step's tape."""
    log = []
    observe = _forward_free_of_a_foreign_tensor(monkeypatch, log)
    virtual_job(C4, observe=observe)
    forward = [f"gpt2.h{i}" for i in range(MODEL.n_layers)]
    # step 1: every block forward, then one recomputation — the block the
    # backward direction captured; step 2: every block forward
    assert log == forward + ["gpt2.h5"] + forward


def test_a_foreign_collective_on_a_layers_group_leaves_its_direction_untaped(monkeypatch):
    """Going forward, every row-parallel layer also issues a data-free
    ``coalesced`` broadcast on its MP group: a use of the group other than
    ``meta_collective``. The capture of block ``gpt2.h0`` sees it and is
    refused, so every forward block runs at both steps while the backward
    direction is still taped, and the device and ledger streams are those
    of a run that re-issues no block."""
    from repro.nn.tape import BlockTape
    from repro.nn.transformer import GPT2Model
    from repro.nn.layers import RowParallelLinear

    log, forward_pass = [], [False]
    model_forward, row_forward, block_forward = (
        GPT2Model.forward, RowParallelLinear.forward, TransformerBlock.forward,
    )

    def model(self, *args):
        forward_pass[0] = True
        try:
            return model_forward(self, *args)
        finally:
            forward_pass[0] = False

    def row(self, x, ctx):
        if forward_pass[0]:  # not in a recomputation
            self.group.coalesced(self.rank, "broadcast", [0], nbytes=[64], phase="probe")
        return row_forward(self, x, ctx)

    def block(self, x, ctx):
        log.append(self.name)
        return block_forward(self, x, ctx)

    monkeypatch.setattr(GPT2Model, "forward", model)
    monkeypatch.setattr(RowParallelLinear, "forward", row)
    monkeypatch.setattr(TransformerBlock, "forward", block)
    device = DeviceStream(monkeypatch)
    taped = _common(virtual_job(C4), device)
    forward = [f"gpt2.h{i}" for i in range(MODEL.n_layers)]
    assert log == forward + ["gpt2.h5"] + forward

    monkeypatch.setattr(BlockTape, "run", lambda tape, blk, region, *args: region(*args))
    device = DeviceStream(monkeypatch)
    untaped = _common(virtual_job(C4), device)
    assert taped == untaped
    assert taped["ledger"][0] == TAPE_GOLDEN["c4"]["ledger"][0] + 2 * 2 * MODEL.n_layers
