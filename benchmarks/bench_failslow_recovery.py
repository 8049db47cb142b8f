"""Benchmark: fail-slow defense — throughput recovery and detector cost.

Not a paper figure — the cost/effectiveness guard for the gray-failure
defense layer (docs/ARCHITECTURE.md §12). Two measurements:

* **Recovery**: simulated world throughput (tokens/s on the gated,
  straggler-bound step time) before a 4x compute throttle lands, during
  the gray failure, and after the Supervisor evicts the confirmed-slow
  rank. Post-eviction throughput must recover to within tolerance of the
  pre-fault baseline scaled by the world shrink (the throughput-recovery
  contract, asserted here and in tests/test_failslow.py).
* **Overhead**: cost of health monitoring with *no* faults, target <5%
  of step time. Wall-clock jitter on a thread-simulated cluster dwarfs
  the median/MAD arithmetic being measured, so the target is asserted in
  a machine-stable unit: the Python calls (call + c_call, as
  ``sys.setprofile`` counts them) the rank threads make over the timed
  steps, health on vs off. The wall readings are recorded to
  ``BENCH_failslow_recovery.json`` beside that ratio, not asserted.
"""

import gc
import sys
import time

import numpy as np

from repro import (
    Cluster,
    FaultPlan,
    GPTConfig,
    HealthConfig,
    HealthMonitor,
    Supervisor,
    ZeROConfig,
)
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.telemetry import TelemetrySession
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("bench", 2 * 10**9, 1e11)  # low FLOPs: compute-dominated steps
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
BATCH, SEQ = 2, 16
TOTAL_STEPS = 14
CKPT_EVERY = 2
ONSET_STEP = 5


def _build(ctx):
    zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
    )


def _train_fn(root, resumed):
    def fn(ctx):
        model, engine = _build(ctx)
        latest = latest_checkpoint(root)
        if latest is not None:
            load_checkpoint_resharded(engine, latest)
        if ctx.rank == 0:
            resumed.append(engine.step_count)
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(BATCH, SEQ, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if engine.step_count % CKPT_EVERY == 0:
                save_checkpoint(engine, root / f"step{engine.step_count}")
        return engine.step_count

    return fn


def _world_throughputs(session):
    """Per-row gated throughput: a synchronous step completes at the
    *slowest* live rank's simulated time, so tokens/s is world tokens
    over the row max."""
    tracers = sorted(session.tracers.values(), key=lambda t: t.rank)
    n_rows = max(len(t.step_durations) for t in tracers)
    out = []
    for row in range(n_rows):
        durs = [t.step_durations[row] for t in tracers
                if row < len(t.step_durations)]
        out.append(len(durs) * BATCH * SEQ / max(durs))
    return out


def test_failslow_recovery_and_detector_overhead(record_table, tmp_path):
    # -- recovery: 3 ranks, rank 2 throttled 4x from ONSET_STEP ------------
    plan = FaultPlan(seed=11).throttle_rank(
        rank=2, compute_factor=4.0, from_step=ONSET_STEP
    )
    health = HealthMonitor(HealthConfig())
    session = TelemetrySession(health=health)
    sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=30.0,
                     telemetry=session)
    resumed = []
    report = sup.run(_train_fn(tmp_path / "ckpts", resumed))
    assert [e.kind for e in report.events] == ["slow-evict"]

    tput = _world_throughputs(session)
    confirm_row = next(
        t.row for t in health.transitions if t.after == "confirmed-slow"
    )
    before = tput[:ONSET_STEP - 1]
    during = tput[ONSET_STEP - 1:confirm_row + 1]
    # Post-eviction rows: the relaunched 2-rank attempt's steps only
    # (rows the crashed attempt left ragged are neither before nor after).
    after = tput[-(TOTAL_STEPS - resumed[-1]):]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    # Post-remediation contract: the 2-rank world's per-step tokens drop
    # by the world shrink, but *step time* (per-GPU throughput) recovers;
    # compare against the healthy baseline scaled to 2/3 of the tokens.
    recovered_pct = mean(after) / (mean(before) * 2 / 3) * 100.0
    assert recovered_pct > 90.0  # the asserted recovery contract

    # -- overhead: health on, no faults ------------------------------------
    def _run_healthy(with_health, count_calls=False):
        """Wall seconds of the timed steps; with ``count_calls``, the
        Python calls the rank threads make over them, summed over ranks."""
        monitor = HealthMonitor(HealthConfig()) if with_health else None
        tel = TelemetrySession(health=monitor)
        cluster = Cluster(2, gpu=GPU, timeout_s=30.0, telemetry=tel)

        def fn(ctx):
            model, engine = _build(ctx)
            ids, tgt = CORPUS.sample_batch(BATCH, SEQ, rank=ctx.rank, step=0)
            engine.train_step(ids, tgt)  # warm-up outside the timed window
            calls = [0]

            def on_event(frame, event, arg):
                if event == "call" or event == "c_call":
                    calls[0] += 1

            if count_calls:
                sys.setprofile(on_event)
            t0 = time.perf_counter()
            for step in range(1, TOTAL_STEPS + 1):
                ids, tgt = CORPUS.sample_batch(BATCH, SEQ, rank=ctx.rank,
                                               step=step)
                engine.train_step(ids, tgt)
            elapsed = time.perf_counter() - t0
            sys.setprofile(None)
            return calls[0] if count_calls else elapsed

        if not count_calls:
            return min(cluster.run(fn))
        gc.collect()
        gc.disable()
        try:
            return sum(cluster.run(fn))
        finally:
            gc.enable()

    t_off = min(_run_healthy(False) for _ in range(3))
    t_on = min(_run_healthy(True) for _ in range(3))
    overhead_pct = (t_on - t_off) / t_off * 100.0
    calls_off = _run_healthy(False, count_calls=True)
    calls_on = _run_healthy(True, count_calls=True)
    calls_pct = (calls_on - calls_off) / calls_off * 100.0

    record_table(
        "fail-slow recovery: 3 ranks, rank 2 throttled 4x at step "
        f"{ONSET_STEP}, confirmed at step {confirm_row + 1}, evicted\n"
        f"  throughput before fault : {mean(before):10.0f} tok/s (3 ranks)\n"
        f"  throughput during fault : {mean(during):10.0f} tok/s (gated)\n"
        f"  throughput after evict  : {mean(after):10.0f} tok/s (2 ranks)\n"
        f"  recovery vs scaled base : {recovered_pct:8.1f} %  (target > 90%)\n"
        f"  detector wall overhead  : {overhead_pct:+8.2f} %\n"
        f"  detector py calls       : {calls_off} off, {calls_on} on\n"
        f"  detector call overhead  : {calls_pct:+8.2f} %  (target < 5%)",
        metrics={
            "throughput_before": (mean(before), "tokens/s"),
            "throughput_during": (mean(during), "tokens/s"),
            "throughput_after": (mean(after), "tokens/s"),
            "recovered": (recovered_pct, "%"),
            "detector_overhead": (overhead_pct, "%"),
            "detector_call_overhead": (calls_pct, "%"),
            # eviction lands when the real-time detector confirms, so the
            # checkpoint the relaunch resumes from (and the replay bill)
            # varies run to run: recorded, not gated.
            "evict_resume_step": (resumed[-1], "step"),
            "evict_steps_reexecuted": (TOTAL_STEPS - resumed[-1], "steps"),
        },
        config={"world": 3, "compute_factor": 4.0, "onset_step": ONSET_STEP,
                "steps": TOTAL_STEPS, "stage": 2, "target_overhead_pct": 5.0},
        name="failslow_recovery",
    )
    assert calls_pct < 5.0
