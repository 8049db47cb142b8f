"""repro — a from-scratch reproduction of
"ZeRO: Memory Optimizations Toward Training Trillion Parameter Models"
(Rajbhandari, Rasley, Ruwase, He — SC 2020).

Layering (bottom-up):

* ``repro.hardware`` — V100/DGX-2 specs and cluster topology.
* ``repro.memsim``   — simulated device memory (block + caching allocators).
* ``repro.comm``     — thread-SPMD collectives, volume ledger, cost model.
* ``repro.tensor``   — device-accounted tensors (real numpy or meta).
* ``repro.nn``       — manual-backprop GPT-2 framework + checkpointing.
* ``repro.optim``    — Adam, mixed precision, flat layouts, loss scaling.
* ``repro.parallel`` — DDP and Megatron tensor-MP baselines.
* ``repro.zero``     — ZeRO-DP stages 1-3 and ZeRO-R (Pa/Pa+cpu/CB/MD).
* ``repro.analysis`` — closed-form memory/communication/performance models.
* ``repro.experiments`` — one runner per paper table/figure.

Quick start::

    import numpy as np
    from repro import Cluster, GPTConfig, ZeROConfig
    from repro.zero import build_model_and_engine

    cluster = Cluster(world_size=4)

    def train(ctx):
        model, engine = build_model_and_engine(
            ctx,
            GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128,
                      max_seq_len=32),
            ZeROConfig(stage=2),
            dp_group=ctx.world,
            dtype=np.float32,
        )
        ...

    cluster.run(train)
"""

from repro.runtime import Cluster, RankContext
from repro.nn.transformer import GPTConfig
from repro.zero.config import ZeROConfig
from repro.comm.faults import (
    FaultPlan,
    RetryPolicy,
)
from repro.health import (
    HealthConfig,
    HealthMonitor,
    SlowRankDetectedError,
    verify_recovery,
)
from repro.infinity.config import InfinityConfig
from repro.infinity.engine import InfinityEngine
from repro.integrity import (
    CorruptionDetectedError,
    VerifiedCheckpointRing,
)
from repro.obs import (
    Incident,
    RunLedger,
    SLOPolicy,
    compute_goodput,
    reconstruct_incidents,
    run_report,
)
from repro.redundancy import BuddyStore, RedundancyConfig, resume_from_buddies
from repro.restart import RestartKind
from repro.supervisor import RestartPolicy, Supervisor, SupervisorReport

__version__ = "1.0.0"

__all__ = [
    "BuddyStore",
    "Cluster",
    "CorruptionDetectedError",
    "FaultPlan",
    "GPTConfig",
    "HealthConfig",
    "HealthMonitor",
    "Incident",
    "InfinityConfig",
    "InfinityEngine",
    "RankContext",
    "RedundancyConfig",
    "RestartKind",
    "RestartPolicy",
    "RetryPolicy",
    "RunLedger",
    "SLOPolicy",
    "SlowRankDetectedError",
    "Supervisor",
    "SupervisorReport",
    "VerifiedCheckpointRing",
    "ZeROConfig",
    "__version__",
    "compute_goodput",
    "reconstruct_incidents",
    "resume_from_buddies",
    "run_report",
]
