"""Microbenchmark: integrity-audit overhead as a % of training-step time.

Not a paper figure — a cost guard for the SDC defense layer
(docs/ARCHITECTURE.md §10). At the default cadence (cross-rank audit
every 10 steps, shard-digest guard every boundary) the layer's target
budget is <5% of step time. Wall-clock jitter on a 2-thread simulated
cluster is far noisier than the CRC-32 work being measured, so the budget
is asserted in a machine-stable unit instead: the Python calls (call +
c_call, as ``sys.setprofile`` counts them) the rank threads make over the
timed steps, audit on vs off. Both wall readings are recorded to
``BENCH_sdc_overhead.json`` beside that ratio, not asserted.
"""

import gc
import sys
import time

import numpy as np

from repro import (
    Cluster,
    FaultPlan,
    GPTConfig,
    RestartKind,
    Supervisor,
    VerifiedCheckpointRing,
    ZeROConfig,
)
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.zero.checkpoint_io import load_checkpoint_resharded
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("bench", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
CORPUS = SyntheticCorpus(128, seed=0)
STEPS = 20
DEFAULT_CADENCE = 10


def _run(audit_cadence: int, count_calls: bool = False) -> float:
    """Wall seconds for STEPS real fp32 steps on a 2-rank cluster; with
    ``count_calls``, the Python calls its rank threads make over those
    steps instead, summed over ranks (cyclic collector off)."""
    cluster = Cluster(2, gpu=GPU, timeout_s=120.0)

    def fn(ctx):
        zero = ZeROConfig(stage=2, checkpoint_activations=False,
                          memory_defrag=False, audit_cadence=audit_cadence)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
        )
        # Warm up outside the timed window (allocator pools, numpy caches).
        ids, tgt = CORPUS.sample_batch(2, 32, rank=ctx.rank, step=0)
        engine.train_step(ids, tgt)
        calls = [0]

        def on_event(frame, event, arg):
            if event == "call" or event == "c_call":
                calls[0] += 1

        if count_calls:
            sys.setprofile(on_event)
        t0 = time.perf_counter()
        for step in range(1, STEPS + 1):
            ids, tgt = CORPUS.sample_batch(2, 32, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
        elapsed = time.perf_counter() - t0
        sys.setprofile(None)
        return calls[0] if count_calls else elapsed

    if not count_calls:
        return min(cluster.run(fn))  # ranks run in lockstep; min = least-noisy
    gc.collect()
    gc.disable()
    try:
        return sum(cluster.run(fn))
    finally:
        gc.enable()


def test_audit_overhead_fraction(record_table):
    # Best-of-3 to shave scheduler noise off both sides.
    t_off = min(_run(0) for _ in range(3))
    t_on = min(_run(DEFAULT_CADENCE) for _ in range(3))
    overhead_pct = (t_on - t_off) / t_off * 100.0
    calls_off, calls_on = _run(0, count_calls=True), _run(DEFAULT_CADENCE, count_calls=True)
    calls_pct = (calls_on - calls_off) / calls_off * 100.0

    record_table(
        f"SDC integrity-audit overhead at default cadence {DEFAULT_CADENCE}\n"
        f"  {STEPS} steps audit-off : {t_off * 1e3:8.1f} ms, {calls_off} py calls\n"
        f"  {STEPS} steps audit-on  : {t_on * 1e3:8.1f} ms, {calls_on} py calls\n"
        f"  wall overhead         : {overhead_pct:+8.2f} %\n"
        f"  py-call overhead      : {calls_pct:+8.2f} %  (target < 5%)",
        metrics={
            "step_time_audit_off": (t_off / STEPS, "s"),
            "step_time_audit_on": (t_on / STEPS, "s"),
            "audit_overhead": (overhead_pct, "%"),
            "audit_call_overhead": (calls_pct, "%"),
        },
        config={"audit_cadence": DEFAULT_CADENCE, "steps": STEPS,
                "stage": 2, "world": 2, "target_pct": 5.0},
        name="sdc_overhead",
    )
    assert calls_pct < 5.0


# -- rollback bill: what a detected scribble costs without redundancy --------

ROLLBACK_STEPS = 8
ROLLBACK_CKPT_EVERY = 2
SCRIBBLE_AT = 6


def test_rollback_lost_steps(record_table, tmp_path):
    """Deterministic replay bill of the classic detect->rollback path: a
    scribble detected at its own boundary rolls the run back to the last
    *verified* ring checkpoint — the baseline the buddy-redundancy layer
    (bench_redundancy_recovery.py) drives to zero."""
    plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=SCRIBBLE_AT,
                                              target="m")
    sup = Supervisor(2, gpu=GPU, fault_plan=plan, timeout_s=30.0)
    resumed = []

    def train_fn(ctx):
        zero = ZeROConfig(stage=2, checkpoint_activations=False,
                          memory_defrag=False, audit_cadence=1)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
        )
        ring = VerifiedCheckpointRing(tmp_path / "ring")
        latest = ring.latest_verified()
        if latest is not None:
            load_checkpoint_resharded(engine, latest)
        if ctx.rank == 0:
            resumed.append(engine.step_count)
        for step in range(engine.step_count, ROLLBACK_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 32, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if engine.step_count % ROLLBACK_CKPT_EVERY == 0:
                ring.save(engine)
        return engine.step_count

    report = sup.run(train_fn)
    assert report.restarts == 1
    assert report.events[0].kind == RestartKind.ROLLBACK

    completed = SCRIBBLE_AT - 1   # boundaries finished before detection
    lost = completed - resumed[-1]
    record_table(
        f"SDC rollback bill: scribble detected at step {SCRIBBLE_AT}, "
        f"verified ring every {ROLLBACK_CKPT_EVERY} steps\n"
        f"  resumed from ring at    : step {resumed[-1]}\n"
        f"  completed steps lost    : {lost}\n"
        f"  steps re-executed       : {ROLLBACK_STEPS - resumed[-1]}",
        metrics={
            "rollback_resume_step": (resumed[-1], "step"),
            "rollback_lost_steps": (lost, "steps"),
            "rollback_steps_reexecuted": (ROLLBACK_STEPS - resumed[-1], "steps"),
        },
        config={"world": 2, "stage": 2, "scribble_at": SCRIBBLE_AT,
                "steps": ROLLBACK_STEPS, "ckpt_every": ROLLBACK_CKPT_EVERY},
        name="sdc_rollback",
    )
