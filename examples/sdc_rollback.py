"""SDC rollback demo: inject a bit flip -> detect -> roll back -> converge.

Usage:
    python examples/sdc_rollback.py

What it shows
-------------
* injecting silent data corruption with a seeded ``FaultPlan`` scribble —
  a device-memory bit flip in an Adam-moment shard that raises nothing;
* the integrity layer (``ZeROConfig(audit_cadence=1)``) catching it at
  the next optimizer boundary, before the optimizer can launder it into
  a legitimate-looking update;
* the ``Supervisor`` rolling the world back to the newest checkpoint
  that passed the ``VerifiedCheckpointRing``'s checksum verification;
* the punchline: the rolled-back run's final parameters are **bitwise
  identical** to a fault-free run of the same seed — corruption cost
  wall-clock, not correctness.
"""

import tempfile

import numpy as np

from repro import (
    FaultPlan,
    GPTConfig,
    Supervisor,
    VerifiedCheckpointRing,
    ZeROConfig,
)
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.zero import build_model_and_engine
from repro.zero.checkpoint_io import load_checkpoint_resharded

WORLD_SIZE = 2
TOTAL_STEPS = 6
CKPT_EVERY = 2
GPU = GPUSpec("demo", 2 * 10**9, 1e12)
CONFIG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(CONFIG.vocab_size, seed=7)


def make_train_fn(root):
    """Re-entrant SPMD training function: resume from the newest
    *verified* checkpoint, save into the ring every CKPT_EVERY steps."""

    def train_fn(ctx):
        zero = ZeROConfig(stage=2, checkpoint_activations=False,
                          memory_defrag=False, audit_cadence=1)
        model, engine = build_model_and_engine(
            ctx, CONFIG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        )
        ring = VerifiedCheckpointRing(root)
        latest = ring.latest_verified()
        if latest is not None:
            load_checkpoint_resharded(engine, latest)
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
            if engine.step_count % CKPT_EVERY == 0:
                ring.save(engine)
        return losses, engine.layout.gather_params(np.float32)

    return train_fn


def run(label, fault_plan, root):
    sup = Supervisor(WORLD_SIZE, gpu=GPU, fault_plan=fault_plan, timeout_s=30.0)
    report = sup.run(make_train_fn(root))
    print(f"{label}:")
    print(f"  restarts={report.restarts}  final world={report.final_world_size}")
    for ev in report.events:
        print(f"  {ev.kind}: world {ev.world_before}->{ev.world_after}  "
              f"({ev.error.splitlines()[0][:72]}...)")
    return report


def main():
    with tempfile.TemporaryDirectory() as tmp:
        clean = run("fault-free run", None, f"{tmp}/clean")

        # One flipped bit in rank 1's Adam second-moment shard at step 4.
        # Nothing raises: the scribble is only visible to the detectors.
        plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=4, target="m")
        faulty = run("corrupted run", plan, f"{tmp}/faulty")

        assert [e.kind for e in faulty.events] == ["rollback"]
        identical = all(
            np.array_equal(faulty.results[r][1], clean.results[r][1])
            for r in range(WORLD_SIZE)
        )
        print(f"\ninjected faults   : {[e.kind for e in plan.events]}")
        print(f"final loss        : {faulty.results[0][0][-1]:.4f} "
              f"(fault-free {clean.results[0][0][-1]:.4f})")
        print(f"params bitwise identical to fault-free run: {identical}")
        assert identical


if __name__ == "__main__":
    main()
