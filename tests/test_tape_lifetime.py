"""A block tape lives as long as its model (``repro.nn.tape``).

A meta model keeps one ``BlockTape`` per direction of its checkpointed
block loops. The tape its first step captures is re-issued at every later
step for every block whose signature matches, the capturing block
included, so a steady step captures nothing; a loop whose first block no
longer matches (the batch shape changed) captures it again. Whatever the
tape's lifetime, the simulated job may not notice: each job below runs
four steps as it is and again with ``BlockTape.run`` running every region,
and both runs must record the same.
"""

import gc
import json
import sys

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.experiments.common import virtual_groups
from repro.memprof import MemoryProfiler
from repro.memprof.provenance import profiling_active
from repro.memsim.timeline import MemoryTimeline
from repro.nn import tape as tape_module
from repro.nn.tape import BlockTape
from repro.parallel.engine import EngineConfig
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.zero.config import C1, C4, C5
from repro.zero.factory import build_model_and_engine
from tests.streams import DeviceStream, HostStream, ledger_digest
from tests.test_block_tape import BATCH, BUCKET, MODEL

STEPS = 4
#: per step, the batch shape of the job whose shape changes and changes back
SHAPES = [(2, 32), (2, 16), (2, 16), (2, 32)]


def _meta_batch(shape, device) -> tuple[Tensor, Tensor]:
    return Tensor.meta(shape, np.int64, device=device), Tensor.meta(shape, np.int64, device=device)


def virtual_job(monkeypatch, zero=C4, *, shapes=(BATCH,) * STEPS, accumulation=1,
                before_step=None) -> dict:
    """Rank 0 of an MP 4 x DP 4 meta job on ``virtual_rank_context(16)``, MD
    on, one optimizer step per entry of ``shapes`` on a batch of that
    shape. ``before_step(step, ctx, engine)`` runs before each step.
    Returns what the job recorded."""
    device, host = DeviceStream(monkeypatch), HostStream(monkeypatch)
    ctx = virtual_rank_context(16)
    dp, mp = virtual_groups(ctx, 16, 4)
    _, engine = build_model_and_engine(
        ctx, MODEL, zero, dp_group=dp, mp_group=mp, meta=True, md_region_bytes=1 << 20,
        engine_config=EngineConfig(gradient_accumulation_steps=accumulation, bucket_numel=BUCKET),
    )
    for step, shape in enumerate(shapes):
        if before_step is not None:
            before_step(step, ctx, engine)
        ids, tgt = _meta_batch(shape, ctx.device)
        for _ in range(accumulation):
            engine.train_step(ids, tgt)
        ids.free()
        tgt.free()
    return {
        "device": (device.events, device.digest),
        "host": (host.events, host.digest, ctx.host.max_allocated_bytes),
        "ledger": (len(ctx.ledger.events), ledger_digest([ctx.ledger])),
        "peaks": (ctx.device.max_allocated_bytes, ctx.device.max_reserved_bytes),
    }


def job_observed_late(monkeypatch) -> dict:
    """C4, with a ``MemoryProfiler`` and a ``MemoryTimeline`` attached after
    step 2 — after both directions' tapes were captured."""
    seen = {}

    def before_step(step, ctx, engine):
        if step == 2:
            seen["profiler"] = MemoryProfiler(ctx.device)
            seen["timeline"] = engine.timeline = MemoryTimeline(ctx.device)

    record = virtual_job(monkeypatch, before_step=before_step)
    seen["timeline"].detach()
    seen["profiler"].detach()
    record["snapshot"] = json.dumps(seen["profiler"].snapshot(), sort_keys=True)
    record["samples"] = [
        (s.index, s.allocated, s.reserved, s.delta, s.tag, s.phase)
        for s in seen["timeline"].samples
    ]
    return record


def job_stage3_cluster(monkeypatch) -> dict:
    """A 4-rank stage-3 meta ``Cluster``: rank 0's stream, every ledger,
    every rank's peaks."""
    device = DeviceStream(monkeypatch)
    cluster = Cluster(4, timeout_s=60.0)

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, MODEL, ZeROConfig(stage=3, memory_defrag=False), dp_group=ctx.world,
            meta=True, engine_config=EngineConfig(bucket_numel=BUCKET),
        )
        ids, tgt = _meta_batch(BATCH, ctx.device)
        for _ in range(STEPS):
            engine.train_step(ids, tgt)
        return ctx.device.max_allocated_bytes, ctx.device.max_reserved_bytes

    peaks = cluster.run(fn)
    return {
        "device": (device.events, device.digest),
        "ledger": (sum(len(l.events) for l in cluster.ledgers), ledger_digest(cluster.ledgers)),
        "peaks": peaks,
    }


JOBS = {
    "c4": virtual_job,
    "c5": lambda monkeypatch: virtual_job(monkeypatch, C5),
    "stage1-accumulate2": lambda monkeypatch: virtual_job(monkeypatch, C1, accumulation=2),
    "stage3-cluster": job_stage3_cluster,
    "observed-late": job_observed_late,
    "shape-change": lambda monkeypatch: virtual_job(monkeypatch, shapes=SHAPES),
}


def _run_region(self, block, region, *args):
    return region(*args)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_kept_tapes_record_what_running_every_block_records(name):
    with pytest.MonkeyPatch.context() as monkeypatch:
        kept = JOBS[name](monkeypatch)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(BlockTape, "run", _run_region)
        untaped = JOBS[name](monkeypatch)
    assert kept == untaped


# -- when the tape captures ------------------------------------------------------------


def _count_captures(monkeypatch, shapes) -> list[int]:
    """``_Recorder`` constructions per step of ``virtual_job``."""
    captures = []

    class Counted(tape_module._Recorder):
        def __init__(self, *args):
            captures[-1] += 1
            super().__init__(*args)

    monkeypatch.setattr(tape_module, "_Recorder", Counted)
    virtual_job(monkeypatch, shapes=shapes, before_step=lambda *_: captures.append(0))
    return captures


def test_a_steady_step_captures_nothing(monkeypatch):
    """The first step captures one block per direction; every later step
    re-issues all of them from those tapes."""
    assert _count_captures(monkeypatch, (BATCH,) * STEPS) == [2, 0, 0, 0]


def test_a_changed_batch_shape_captures_again_once(monkeypatch):
    """A step whose batch shape differs from the last one's captures both
    directions again; the next step of the same shape captures nothing."""
    assert _count_captures(monkeypatch, SHAPES) == [2, 2, 0, 2]


#: calls (Python + C, as ``sys.setprofile`` counts them) of one steady
#: 4-rank, 2-layer stage-3 meta step, summed over ranks; 19 604 while every
#: step captured its first block of each direction, 12 972 while a
#: re-issued block made one door call per allocator event, 8 464 while
#: every gradient handoff built a ``Tensor`` and every unit was planned by
#: its parameter names, 7 156 before a rank joined a rank class (7 161
#: since: ``train_step`` runs the step through ``_step``, and the last rank
#: to register its engine through ``_follow`` too)
META_STAGE3_STEP_CALLS = 7_170
#: the same for one steady step of Figure 6's C4 point (one virtual rank of
#: 128 GPUs, MP 16, batch 16, h 8192, MD on) at four layers; 5 425 while a
#: re-issued block made one door call per allocator event, 3 104 while a
#: bucket was a per-parameter pending list freed one gradient at a time
#: (2 406 since)
META_C4_STEP_CALLS = 2_450


def _calls(step) -> int:
    """What ``step()`` costs in calls, as ``sys.setprofile`` counts them."""
    calls = [0]

    def on_event(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(on_event)
    step()
    sys.setprofile(None)
    return calls[0] - 1  # less the closing setprofile call


def test_a_steady_meta_stage3_step_stays_within_its_call_budget():
    """Step 3 of a 4-rank, 2-layer stage-3 meta ``Cluster`` makes at most
    ``META_STAGE3_STEP_CALLS`` calls over all ranks; a return to capturing
    every step fails here. Calibrated on CPython 3.11.7; another
    interpreter may count a ``with`` or a comprehension differently, which
    the assertion message shows. Each rank's count depends on which rank
    completes a rendezvous, so only the sum is pinned."""
    model = GPTConfig(n_layers=2, hidden=64, n_heads=8, vocab_size=128, max_seq_len=32)

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, model, ZeROConfig(stage=3, memory_defrag=False), dp_group=ctx.world,
            dtype=np.float32, seed=0, meta=True,
        )
        ids, tgt = _meta_batch(BATCH, ctx.device)
        for _ in range(2):
            engine.train_step(ids, tgt)
        return _calls(lambda: engine.train_step(ids, tgt))

    gc.collect()
    gc.disable()
    try:
        counts = Cluster(4, timeout_s=60.0).run(fn)
    finally:
        gc.enable()
    # a MemoryProfiler an earlier test left attached costs every allocation
    assert sum(counts) <= META_STAGE3_STEP_CALLS, (counts, sys.version, profiling_active())


def test_a_steady_virtual_rank_c4_step_stays_within_its_call_budget():
    """Step 3 of Figure 6's C4 point at four layers makes at most
    ``META_C4_STEP_CALLS`` calls: a re-issued block that went back to one
    door call per allocator event (``Device.apply`` declining, or never
    asked) fails here. Calibrated on CPython 3.11.7, like the stage-3
    budget."""
    ctx = virtual_rank_context(128)
    dp, mp = virtual_groups(ctx, 128, 16)
    _, engine = build_model_and_engine(
        ctx, GPTConfig(n_layers=4, hidden=8192, n_heads=64), C4, dp_group=dp, mp_group=mp,
        meta=True, md_region_bytes=2 << 30,
    )
    ids, tgt = _meta_batch((16, 1024), ctx.device)
    for _ in range(2):
        engine.train_step(ids, tgt)
    gc.collect()
    gc.disable()
    try:
        calls = _calls(lambda: engine.train_step(ids, tgt))
    finally:
        gc.enable()
    assert calls <= META_C4_STEP_CALLS, (calls, sys.version, profiling_active())
