"""Perfscope: where does a training step actually go?

Usage:
    python examples/critical_path.py

Runs a short ZeRO-2 CPU-offload training with Perfscope recording on,
reconstructs each step as a blocking-dependency graph, and prints the
fleet critical path with its stall taxonomy (compute, host Adam, exposed
communication, PCIe waits, ...), the per-rank overlap scorecard, and two
what-if probes: what the step would cost on zero-cost links, and on a
PCIe link ten times wider. The replay is bit-exact — the critical path
equals the engine's own simulated step clock to the last ulp.
"""

import numpy as np

from repro import Cluster, GPTConfig, InfinityConfig, ZeROConfig
from repro.hardware.specs import GPUSpec, InterconnectSpec
from repro.telemetry import TelemetrySession
from repro.zero import build_model_and_engine

GPU = GPUSpec("example-gpu", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
WORLD, STEPS = 4, 3


def main():
    session = TelemetrySession(perfscope=True)
    cluster = Cluster(WORLD, gpu=GPU, telemetry=session)
    offload = InfinityConfig(optimizer_tier="host", grad_tier="host", param_tier="device")
    zero = ZeROConfig(stage=2, infinity=offload, checkpoint_activations=False,
                      memory_defrag=False)

    def fn(ctx):
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True, seed=0,
        )
        ids = np.zeros((2, 16), dtype=np.int64)
        for _ in range(STEPS):
            engine.train_step(ids, ids)

    cluster.run(fn)

    analysis = session.perfscope_analysis()
    print(analysis.summary())

    g = analysis.graphs[-1]
    for rank in sorted(g.observed_step_s):
        assert g.rank_step_s(rank) == g.observed_step_s[rank]
    print("\nreplay check: critical path == engine step clock, bit-exact,"
          f" on all {WORLD} ranks")

    print("\nwhat-if probes (last step):")
    print(" ", analysis.whatif_zero_comm().describe())
    fast_pcie = InterconnectSpec("pcie-x10", 1.58e11, 1e-6)
    print(" ", analysis.whatif_links(pcie=fast_pcie, label="PCIe x10").describe())


if __name__ == "__main__":
    main()
