"""Section 8: ZeRO-R Pa communication overhead vs baseline MP volume.

The analysis: Megatron MP moves 12 x batch x seq x hidden elements per
transformer block (2 all-reduces each in forward, recompute, backward);
Pa adds one all-gather of the block-input checkpoint — batch x seq x
hidden — under 10% overhead. Pa+cpu moves 2x the checkpoint shard over
PCIe instead. We measure all three from the ledger of a real MP run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import Cluster, GPTConfig
from repro.analysis.comm_model import MPCommModel
from repro.data import SyntheticCorpus
from repro.experiments.common import Claim
from repro.hardware.specs import GPUSpec
from repro.utils.tables import format_table
from repro.zero.config import C2, ZeROConfig  # C2: Pa on, the row the analytic Pa column prices
from repro.zero.factory import build_model_and_engine

CFG = GPTConfig(n_layers=3, hidden=64, n_heads=4, vocab_size=64, max_seq_len=16)
BATCH, SEQ = 2, 16
MP = 2


@dataclass(frozen=True)
class Sec8Result:
    store: str
    mp_volume_elems: float
    activation_gather_elems: float
    pa_overhead_fraction: float
    cpu_transfer_elems: float
    analytic_mp_elems: float
    analytic_pa_elems: float


#: each activation store and the ZeRO config that builds it (plain DDP
#: under Megatron MP; Pa and Pa+cpu partition checkpoints over the MP group)
STORES = {
    "none": ZeROConfig(memory_defrag=False),
    "pa": ZeROConfig(partition_activations=True, memory_defrag=False),
    "pa+cpu": ZeROConfig(
        partition_activations=True, cpu_offload_activations=True, memory_defrag=False,
    ),
}


def measure(store_kind: str) -> Sec8Result:
    gpu = GPUSpec("sec8-gpu", 2 * 10**9, 1e12)
    cluster = Cluster(MP, gpu=gpu)
    corpus = SyntheticCorpus(64, seed=5)

    def run(ctx):
        _, engine = build_model_and_engine(
            ctx, CFG, STORES[store_kind], dp_group=ctx.group([ctx.rank]),
            mp_group=ctx.world, dtype=np.float32,
        )
        ids, tgt = corpus.sample_batch(BATCH, SEQ, rank=0, step=0)
        ctx.ledger.clear()
        engine.train_step(ids, tgt)
        by_phase = ctx.ledger.by_phase()
        # Block-level MP traffic only (exclude the LM head / loss stats,
        # which Section 8's analysis does not count).
        mp_bytes = sum(
            v for k, v in by_phase.items()
            if (".dx-allreduce" in k or ".y-allreduce" in k) and ".head." not in k
        )
        act_bytes = by_phase.get("activation-gather", 0.0)
        cpu_bytes = by_phase.get("activation-offload", 0.0) + by_phase.get(
            "activation-fetch", 0.0
        )
        return mp_bytes / 4, act_bytes / 4, cpu_bytes / 4  # fp32 elements

    mp_elems, act_elems, cpu_elems = cluster.run(run)[0]
    analytic = MPCommModel(batch=BATCH, seq_len=SEQ, hidden=CFG.hidden)
    return Sec8Result(
        store=store_kind,
        mp_volume_elems=mp_elems,
        activation_gather_elems=act_elems,
        pa_overhead_fraction=act_elems / mp_elems if mp_elems else 0.0,
        cpu_transfer_elems=cpu_elems,
        analytic_mp_elems=analytic.baseline_elements_per_block() * CFG.n_layers,
        analytic_pa_elems=analytic.gather_elements_per_block(C2.placement) * CFG.n_layers,
    )


def run() -> list[Sec8Result]:
    return [measure(kind) for kind in STORES]


def render(results: list[Sec8Result]) -> str:
    return format_table(
        ["store", "MP volume (elems)", "analytic MP", "Pa all-gather", "analytic Pa",
         "Pa/MP", "CPU transfer"],
        [
            [r.store, f"{r.mp_volume_elems:.0f}", f"{r.analytic_mp_elems:.0f}",
             f"{r.activation_gather_elems:.0f}", f"{r.analytic_pa_elems:.0f}",
             f"{r.pa_overhead_fraction * 100:.1f}%", f"{r.cpu_transfer_elems:.0f}"]
            for r in results
        ],
        title="Section 8 — MP communication and Pa overhead (measured vs analytic)",
    )


def metrics(results: list[Sec8Result]):
    return {
        **{f"pa_overhead_fraction_{r.store}": r.pa_overhead_fraction for r in results},
        **{f"cpu_transfer_elems_{r.store}": (r.cpu_transfer_elems, "elements") for r in results},
    }, {"section": "8"}


def claims(results: list[Sec8Result]) -> list[Claim]:
    none, pa, cpu = results  # in STORES order
    return [
        Claim("MP volume equals 12 x batch x seq x hidden per block", f"{none.analytic_mp_elems:.0f}",
              f"{none.mp_volume_elems:.0f}", none.mp_volume_elems == none.analytic_mp_elems),
        Claim("Pa all-gather equals batch x seq x hidden per block", f"{pa.analytic_pa_elems:.0f}",
              f"{pa.activation_gather_elems:.0f}", pa.activation_gather_elems == pa.analytic_pa_elems),
        Claim("Pa overhead < 10% of MP volume", "< 10%", f"{100 * pa.pa_overhead_fraction:.1f}%",
              pa.pa_overhead_fraction < 0.10),
        Claim("Pa+cpu moves the checkpoint over PCIe", "2x the shard",
              f"{cpu.cpu_transfer_elems:.0f} elements", cpu.cpu_transfer_elems > 0),
    ]


SOURCES = {"test_sec8_mp_comm": run}
