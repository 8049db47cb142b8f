"""Mission Control demo: a chaos campaign, flight-recorded end to end.

Usage:
    python examples/mission_control.py

What it shows
-------------
* a seeded mixed-fault chaos campaign (rank kills + SDC scribbles +
  transients + checkpoint rot + gray failures) supervised with buddy
  redundancy, with a durable ``RunLedger`` recording every run event —
  step boundaries, fault injections, detections, restarts, re-shards,
  checkpoint saves — across every incarnation;
* incident reconstruction: each injection correlated to its detection
  and recovery, with MTTD, MTTR, lost steps, and restart-kind
  attribution, validated here against the seeded FaultPlan ground truth;
* goodput/SLO accounting: the run wall partitioned into productive /
  re-execution / recovery / idle (summing *exactly* to the total), and
  an SLO policy tripping structured violations;
* the exporters: the Markdown run report ("what happened in this run"),
  a Prometheus text dump of the run gauges, and — because the ledger is
  a durable JSONL file — a byte-identical report from an offline replay.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    GPTConfig,
    RedundancyConfig,
    RestartPolicy,
    RetryPolicy,
    RunLedger,
    SLOPolicy,
    Supervisor,
    ZeROConfig,
    compute_goodput,
    reconstruct_incidents,
    resume_from_buddies,
    run_report,
)
from repro.chaos import generate_campaign
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.obs import prometheus_text, publish_goodput
from repro.telemetry import TelemetrySession
from repro.zero import build_model_and_engine
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)

SEED = 0  # draws 1 kill + 1 scribble + rot + a transient + a gray failure
TOTAL_STEPS = 8
CKPT_EVERY = 2
GPU = GPUSpec("demo", 2 * 10**9, 1e12)
CONFIG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(CONFIG.vocab_size, seed=7)


def build(ctx):
    zero = ZeROConfig(stage=2, checkpoint_activations=False,
                      memory_defrag=False, audit_cadence=1)
    return build_model_and_engine(
        ctx, CONFIG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
    )


def make_train_fn(root):
    def train_fn(ctx):
        model, engine = build(ctx)
        if not resume_from_buddies(engine):
            latest = latest_checkpoint(root)
            if latest is not None:
                load_checkpoint_resharded(engine, latest)
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if engine.step_count % CKPT_EVERY == 0:
                save_checkpoint(engine, root / f"step{engine.step_count}")
            ctx.barrier()
        return engine.step_count

    return train_fn


def main():
    campaign = generate_campaign(SEED, world=4, total_steps=TOTAL_STEPS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ledger_path = tmp / "run-ledger.jsonl"
        session = TelemetrySession()  # simulated clocks -> real MTTD/MTTR
        sup = Supervisor(
            campaign.world, gpu=GPU, fault_plan=campaign.build_plan(),
            timeout_s=15.0,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
            policy=RestartPolicy(max_restarts=8, quarantine_after=99),
            redundancy=RedundancyConfig(),
            telemetry=session,
            recorder=ledger_path,
        )
        sup.run(make_train_fn(tmp / "ckpts"))

        # -- incident reconstruction vs the seeded ground truth ------------
        incidents = reconstruct_incidents(sup.recorder)
        truth = sorted(
            [("kill", r, s) for r, s in campaign.kills]
            + [("scribble", r, s) for r, s, _ in campaign.scribbles],
            key=lambda t: t[2],
        )
        assert [(i.kind, i.injected_rank) for i in incidents] == [
            (kind, rank) for kind, rank, _ in truth
        ], "incident list must match the injected FaultPlan exactly"
        assert all(i.lost_steps == 0 for i in incidents)  # buddy redundancy

        # -- goodput / SLO -------------------------------------------------
        goodput = compute_goodput(sup.recorder, incidents)
        assert (goodput.productive_s + goodput.reexecution_s
                + goodput.recovery_s + goodput.idle_s) == goodput.total_s
        registry = session.registry
        publish_goodput(goodput, registry)
        violations = SLOPolicy(min_goodput_pct=99.9).check(goodput, registry=registry)

        # -- the run report, live and replayed -----------------------------
        report_text = run_report(sup.recorder)
        print(report_text)
        print("## Prometheus gauges (excerpt)\n")
        for line in prometheus_text(registry).splitlines():
            if line.startswith(("run_goodput_pct", "mttd_s", "mttr_s")):
                print(f"    {line}")
        print("\n## SLO check (min_goodput_pct=99.9)\n")
        for v in violations:
            print(f"    VIOLATION {v.name}: {v.detail}")

        replayed = RunLedger.replay(ledger_path)
        assert run_report(replayed) == report_text
        print("\nreplayed ledger reproduces the report byte-identically: True")


if __name__ == "__main__":
    main()
