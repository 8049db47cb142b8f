"""A checkpointed block's recompute on real data (``repro.nn.tape``).

In real mode ``GPT2Model``'s checkpointed forward loop tapes each block's
forward region and keeps the host arrays of what its cache holds; the
backward loop then re-issues that device stream in place of the block's
recomputation and runs the block's backward on the kept arrays. Whatever
path the host takes, the simulated job may not notice: every digest below
was computed before the re-issue existed, on a 6-layer real model, and
every one must hold with it — the jobs the re-issue serves as well as the
ones it must refuse (a corrupted re-gather, Megatron MP, ``generate``).
"""

import hashlib
import json

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.comm.faults import FaultPlan
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.infinity import InfinityConfig
from repro.memprof import MemoryProfiler
from repro.memsim.device import Device
from repro.memsim.errors import OutOfMemoryError
from repro.memsim.timeline import MemoryTimeline
from repro.nn import tape as tape_module
from repro.nn.generate import generate
from repro.nn.transformer import GPT2Model, TransformerBlock
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.tensor.tensor import Tensor
from repro.zero.factory import build_model_and_engine
from tests.streams import DeviceStream, ledger_digest

MODEL = GPTConfig(n_layers=6, hidden=64, n_heads=8, vocab_size=128, max_seq_len=32)
BATCH = (2, 32)
#: a gradient bucket of ~1.6 blocks' parameters, so flushes land inside
#: blocks' backward (and inside re-issued ones)
BUCKET = 20_000
CORPUS = SyntheticCorpus(128, seed=3)
STEPS = 2
#: a device on which the first step's backward runs out of memory inside
#: block h5's recomputed forward (``gpt2.h5.attn.scaled``) — a region the
#: re-issue plays back
OOM_GPU = GPUSpec("oom", 21_089_776, 1e12)


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def real_job(monkeypatch, zero: ZeROConfig, *, world: int = 2, mp: int = 1, plan=None,
             gpu=None, md_region_bytes=None, observe: bool = False) -> dict:
    """``STEPS`` steps of ``MODEL`` on ``world`` rank threads (``mp``-way
    Megatron MP inside), fp32, seed 3. ``observe`` attaches a
    ``MemoryProfiler`` and a ``MemoryTimeline`` to rank 0's device. Returns
    what the job recorded; an ``OutOfMemoryError`` ends the job and is
    recorded too."""
    device = DeviceStream(monkeypatch)
    kwargs = {} if gpu is None else {"gpu": gpu}
    cluster = Cluster(world, timeout_s=60.0, fault_plan=plan, **kwargs)
    seen = {}

    def fn(ctx):
        dp_group, mp_group = ctx.world, None
        if mp > 1:
            mp_group = ctx.group([r for r in range(world) if r // mp == ctx.rank // mp])
            dp_group = ctx.group([r for r in range(world) if r % mp == ctx.rank % mp])
        lead = observe and ctx.rank == 0
        if lead:
            seen["profiler"] = MemoryProfiler(ctx.device)
        _, engine = build_model_and_engine(
            ctx, MODEL, zero, dp_group=dp_group, mp_group=mp_group, dtype=np.float32,
            seed=3, md_region_bytes=md_region_bytes,
            engine_config=EngineConfig(bucket_numel=BUCKET),
        )
        if lead:
            seen["timeline"] = engine.timeline = MemoryTimeline(ctx.device)
        losses = []
        try:
            for step in range(STEPS):
                batch = CORPUS.sample_batch(*BATCH, rank=ctx.rank // mp, step=step)
                losses.append(engine.train_step(*batch).loss)
        except OutOfMemoryError as exc:
            return losses, exc, engine.phase
        return losses, engine.integrity_shards()["master"].tobytes(), engine.phase

    try:
        ranks = cluster.run(fn)
    finally:
        for key in ("timeline", "profiler"):
            if key in seen:
                seen[key].detach()
    dev0 = cluster.devices[0]
    got = {
        "device": (device.events, device.digest),
        "ledger": (sum(len(l.events) for l in cluster.ledgers), ledger_digest(cluster.ledgers)),
        "peaks": (dev0.max_allocated_bytes, dev0.max_reserved_bytes),
        "losses": _sha(repr([losses for losses, _, _ in ranks])),
    }
    ends = [end for _, end, _ in ranks]
    if all(isinstance(end, bytes) for end in ends):
        got["master"] = _sha(b"".join(ends))
    else:
        exc, phase = ranks[0][1], ranks[0][2]
        stats = (exc.requested, exc.free, exc.largest_free, exc.allocated, exc.reserved,
                 exc.capacity)
        postmortem = None
        if exc.postmortem is not None:
            postmortem = _sha(json.dumps(exc.postmortem.to_json(), sort_keys=True))
        got["oom"] = (_sha(str(exc)), stats, postmortem, phase)
    if observe:
        got["snapshot"] = _sha(json.dumps(seen["profiler"].snapshot(), sort_keys=True))
        samples = "".join(
            f"{s.index},{s.allocated},{s.reserved},{s.delta},{s.tag},{s.phase};"
            for s in seen["timeline"].samples
        )
        got["samples"] = (len(seen["timeline"].samples), _sha(samples))
    return got


def _flip(nth: int) -> FaultPlan:
    """Three bits of rank 1's ``nth`` received stage-3 broadcast payload."""
    return FaultPlan(seed=5).flip_bits(rank=1, op="broadcast", when="post", nth=nth, bits=3)


def job_generate(monkeypatch) -> dict:
    """Greedy continuation on a checkpointed model: a forward-only pass."""
    device = DeviceStream(monkeypatch)
    model = GPT2Model(MODEL, dtype=np.float32, device=Device(GPUSpec("t", 2 * 10**9, 1e12)),
                      rng=np.random.default_rng(3), checkpoint_activations=True)
    prompt = CORPUS.sample_batch(2, 8, rank=0, step=0)[0]
    tokens = generate(model, prompt, max_new_tokens=4, temperature=0.0)
    return {"device": (device.events, device.digest), "tokens": _sha(tokens.tobytes())}


JOBS = {
    "stage0": lambda mp: real_job(mp, ZeROConfig(stage=0, memory_defrag=False), observe=True),
    "stage2": lambda mp: real_job(mp, ZeROConfig(stage=2, memory_defrag=False), observe=True),
    "stage3": lambda mp: real_job(mp, ZeROConfig(stage=3, memory_defrag=False), observe=True),
    "hooks-like": lambda mp: real_job(
        mp, ZeROConfig(stage=3, infinity=InfinityConfig(param_tier="host")),
        md_region_bytes=1 << 20,
    ),
    "oom": lambda mp: real_job(
        mp, ZeROConfig(stage=2, memory_defrag=False), gpu=OOM_GPU, observe=True
    ),
    "stage3-flip7": lambda mp: real_job(
        mp, ZeROConfig(stage=3, memory_defrag=False), plan=_flip(7)
    ),
    "stage3-flip14": lambda mp: real_job(
        mp, ZeROConfig(stage=3, memory_defrag=False), plan=_flip(14)
    ),
    "megatron-mp2": lambda mp: real_job(
        mp, ZeROConfig(stage=2, memory_defrag=False), world=4, mp=2
    ),
    "generate": job_generate,
}

# The stage-3 jobs were re-pinned when stage 3 began charging
# construction unit by unit after its shards. A line-by-line diff of the
# hashed material (``tools/golden_lines.py``) showed construction's device
# events moved and, where a profiler watched, the reserved bytes and block
# layout; every step's allocated bytes, the ledgers, losses and masters
# held, and the peaks fell to the steps'. The OOM postmortem's digest was
# re-pinned when its optimizer-state advice named the tier config instead
# of the retired ``offload_optimizer`` flag; the same diff showed that one
# line alone changed.
#: job -> what it recorded before the re-issue existed (lists for tuples)
RECOMPUTE_GOLDEN = {
    "generate": {
        "device": [1309, "db07201442cd93b765a2cdb8dd8f718c422731c48d9e8ee4a9cfd8c269ba343f"],
        "tokens": "0c00e696267daa26423ef6b2d67bb84dee9e3cbc729b6d985929d14126850f7d",
    },
    "hooks-like": {
        "device": [2783, "0c93a9be3fd798309ffdffd9199a398e780a3b0fc1a4698eae2453fd7e4fe249"],
        "ledger": [170, "cf71bbb051fd3c4d02bcf5436061c451ae61cb62cc8c76334d795d9ccb89811f"],
        "peaks": [17958912, 18315776],
        "losses": "b201b556cb6ebe15fed3e7e8ed3e341f88541763f48b505fec1dd5e3898de109",
        "master": "a42da3e73578173636c753be3cbcf109d58399025dd9a5e8902dcb8a92045e22",
    },
    "megatron-mp2": {
        "device": [2234, "0946494f5f3b449ce2b76cdb75122deec671b604ff9c38f97fbc674d5974ba6a"],
        "ledger": [392, "39bb27eecbc8cfeaa596e63d06b1ee52a8e1de33180ab89ca8f8771d38c3264c"],
        "peaks": [19375616, 19627008],
        "losses": "c6597cb10717da08a725824355e544db9153b4aa26406eff48b88357445af4c0",
        "master": "f3f5940460b9e018461566a44cf5543a9b58558832059927bf51e37b4d17cad4",
    },
    "oom": {
        "device": [408, "d3b24021277ac81d1ae5b689d669eb9dbf3a660bbd55fadcd4c50ac81190c6d0"],
        "ledger": [0, "565d240f5343e625ae579a4d45a770f1f02c6368b5ed4d06da4fbe6f47c28866"],
        "peaks": [21055488, 21080064],
        "losses": "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
        "oom": [
            "dcbcc0dab8f4451df9798200a1d5c101d1af30889672f5482f08f1d9728ba846",
            [65536, 65520, 32768, 21024256, 21024256, 21089776],
            "57aad8e4cd170303041d85633333f252f02e6be9fcef743c5632b8e956a17d55",
            "backward",
        ],
        "snapshot": "8fa8c207d10ede5ba7decb067f6056566a62b6f737e636c037625b53519a2485",
        "samples": [325, "7969ff1f1e3416ccefaa667e656624c25baf35e328f123e15aba75e9131a864a"],
    },
    "stage0": {
        "device": [2113, "a667bcb84d008213ef2b6741e8d12a44bcf3d431c79c678bd0ca315192f3fb63"],
        "ledger": [56, "b219d2deb75104c554c0da044af33c0eacf04f82f4a66647b5220b6f0c1983a4"],
        "peaks": [23785984, 24134144],
        "losses": "b201b556cb6ebe15fed3e7e8ed3e341f88541763f48b505fec1dd5e3898de109",
        "master": "80e5ec645006ddf1db24e9afd558c725cdb579938323c0005b58d65e6302af1c",
        "snapshot": "6ef73fce49c0c016addee1b42c0686a6df61237a7e8ef7f91f5dee3e871cd288",
        "samples": [2032, "7c2c68119e409238cbb78bf647056366407f5139604d82be28d7e56d160a3c14"],
    },
    "stage2": {
        "device": [2122, "4db2b103bfed5e51ca3b5b2b8412b427ab3406051b95d7c6741d56282f9f1e1f"],
        "ledger": [68, "658618c289a671d45c23f070fa44881981e8f0367d3e30f17d5b5133c009b4f1"],
        "peaks": [21388800, 21733888],
        "losses": "b201b556cb6ebe15fed3e7e8ed3e341f88541763f48b505fec1dd5e3898de109",
        "master": "a42da3e73578173636c753be3cbcf109d58399025dd9a5e8902dcb8a92045e22",
        "snapshot": "796a7a5f9d794a386ca29eb244318aa1be87dbf10dd3e486025b5f1f09b9029b",
        "samples": [2040, "639d225f11579a1bce4b148fb7c70695d2675ce7a6f1773958c8713d9aa28037"],
    },
    "stage3": {
        "device": [2788, "4137bca6c9036d19de6eed8d8726914c1c13d09f611a474882a6df894667306b"],
        "ledger": [108, "67458e5e24a793a7156955065d851f79ad4165d48b751b349a10b879d68394ae"],
        "peaks": [21143552, 21500416],
        "losses": "b201b556cb6ebe15fed3e7e8ed3e341f88541763f48b505fec1dd5e3898de109",
        "master": "a42da3e73578173636c753be3cbcf109d58399025dd9a5e8902dcb8a92045e22",
        "snapshot": "2a4a23d7493ec39f5041544d9cdc918a4d42a7c6b6e2e8fb04c88cff3580d18a",
        "samples": [2628, "c73d14d200d2d85a6b36233b6f53a6b93df57ab98c1f7c02d43ff68172812dda"],
    },
    "stage3-flip14": {
        "device": [2788, "4137bca6c9036d19de6eed8d8726914c1c13d09f611a474882a6df894667306b"],
        "ledger": [108, "67458e5e24a793a7156955065d851f79ad4165d48b751b349a10b879d68394ae"],
        "peaks": [21143552, 21500416],
        "losses": "a7828fa4989650df6698aff35c981dfcd38130af8166fd70abfeacdac02c6a4a",
        "master": "49f76d8fb3e71750c30199a01bbfa46941e029c586f749b5105464946d5522e2",
    },
    "stage3-flip7": {
        "device": [2788, "4137bca6c9036d19de6eed8d8726914c1c13d09f611a474882a6df894667306b"],
        "ledger": [108, "67458e5e24a793a7156955065d851f79ad4165d48b751b349a10b879d68394ae"],
        "peaks": [21143552, 21500416],
        "losses": "b201b556cb6ebe15fed3e7e8ed3e341f88541763f48b505fec1dd5e3898de109",
        "master": "c41d27479bf801ff95cb016b96f2ad2fd494327f84dcbb5ea1f5761d7347c894",
    },
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_streams_match_the_recomputing_commit(name, monkeypatch):
    got = json.loads(json.dumps(JOBS[name](monkeypatch)))  # tuples as lists
    assert got == RECOMPUTE_GOLDEN[name]


# -- where the re-issue engages --------------------------------------------------------


def _recomputes(monkeypatch) -> list[str]:
    """Names of the blocks whose ``forward`` runs inside the backward loop
    (appended from every rank thread)."""
    log = []
    forward = TransformerBlock.forward
    backward_loop = GPT2Model._backward_checkpointed

    def logged(self, x, ctx):
        if getattr(ctx, "_in_backward", False):
            log.append(self.name)
        return forward(self, x, ctx)

    def marked(self, cache, dh):
        cache["ctx"]._in_backward = True
        try:
            return backward_loop(self, cache, dh)
        finally:
            cache["ctx"]._in_backward = False

    monkeypatch.setattr(TransformerBlock, "forward", logged)
    monkeypatch.setattr(GPT2Model, "_backward_checkpointed", marked)
    return log


def test_a_real_checkpointed_step_recomputes_no_block(monkeypatch):
    log = _recomputes(monkeypatch)
    real_job(monkeypatch, ZeROConfig(stage=2, memory_defrag=False))
    assert log == []


@pytest.mark.parametrize("nth", [7, 14])
def test_a_corrupted_regather_recomputes_its_block(nth, monkeypatch):
    """A flipped stage-3 broadcast leaves a block's forward parameters
    and its backward re-gather with different bits on rank 1: that block
    recomputes there, as it did before the re-issue existed (the golden
    ``stage3-flip*`` jobs)."""
    log = _recomputes(monkeypatch)
    real_job(monkeypatch, ZeROConfig(stage=3, memory_defrag=False), plan=_flip(nth))
    assert len(log) == 1 and log[0].startswith("gpt2.h")


def test_megatron_blocks_recompute(monkeypatch):
    """A tensor-parallel block communicates in its forward: never taped."""
    log = _recomputes(monkeypatch)
    real_job(monkeypatch, ZeROConfig(stage=2, memory_defrag=False), world=4, mp=2)
    assert len(log) == 4 * STEPS * MODEL.n_layers


def test_a_region_freeing_a_foreign_extent_recomputes(monkeypatch):
    """Block ``gpt2.h2``'s forward frees a tensor allocated before the
    step: its tape is dropped and it recomputes; every other block does
    not."""
    log = _recomputes(monkeypatch)
    forward, step = TransformerBlock.forward, BaseEngine.train_step
    spares = {}  # device -> a tensor allocated before the step

    def freeing(self, x, ctx):
        out = forward(self, x, ctx)
        if self.name == "gpt2.h2" and not getattr(ctx, "_in_backward", False):
            spares.pop(x.device).free()
        return out

    def train_step(engine, *batch):
        device = engine.ctx.device
        spares[device] = Tensor((64,), np.float32, device=device, tag="spare")
        return step(engine, *batch)

    monkeypatch.setattr(TransformerBlock, "forward", freeing)
    monkeypatch.setattr(BaseEngine, "train_step", train_step)
    real_job(monkeypatch, ZeROConfig(stage=2, memory_defrag=False))
    assert log == ["gpt2.h2"] * (2 * STEPS)


def test_generate_takes_no_tape(monkeypatch):
    """A forward-only pass has no recompute to serve."""
    captures = []
    capture = tape_module.ForwardTape.capture.__func__

    def counted(cls, *args):
        captures.append(args[0].name)
        return capture(cls, *args)

    monkeypatch.setattr(tape_module.ForwardTape, "capture", classmethod(counted))
    job_generate(monkeypatch)
    assert captures == []
    real_job(monkeypatch, ZeROConfig(stage=2, memory_defrag=False))
    assert len(captures) == 2 * STEPS * MODEL.n_layers  # the counter counts
