"""Model and experiment configurations from the paper's appendix (Tables 4-10).

Each row of the appendix tables becomes an ``ExperimentPoint``: the model
shape (layers / hidden / heads), the parallelism (GPUs, MP degree; its
``mesh``), and
the per-replica batch size. ``label`` is the paper's model-size name
("1.5B", "100B", ...); ``GPTConfig.total_params`` gives the exact count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.transformer import GPTConfig
from repro.zero.placement import Mesh

SEQ_LEN = 1024
VOCAB = 50257


@dataclass(frozen=True)
class ExperimentPoint:
    """One row of an appendix configuration table."""

    label: str
    system: str  # "zero" or "baseline"
    n_gpus: int
    mp: int
    layers: int
    hidden: int
    heads: int
    batch: int  # per-replica microbatch ("Batch size" column)
    total_batch: int

    @property
    def model(self) -> GPTConfig:
        return GPTConfig(
            n_layers=self.layers, hidden=self.hidden, n_heads=self.heads,
            vocab_size=VOCAB, max_seq_len=SEQ_LEN,
        )

    @property
    def mesh(self) -> Mesh:
        return Mesh.of_world(self.n_gpus, self.mp)


def _p(label, system, gpus, mp, layers, hidden, heads, batch, total) -> ExperimentPoint:
    return ExperimentPoint(label, system, gpus, mp, layers, hidden, heads, batch, total)


# Table 5 — Figure 2: ZeRO-100B throughput vs Megatron baseline.
TABLE5_FIGURE2 = [
    _p("1.5B", "zero", 400, 1, 48, 1600, 16, 24, 9600),
    _p("1.5B", "baseline", 400, 2, 48, 1600, 16, 16, 3200),
    _p("8B", "zero", 400, 4, 72, 3072, 24, 64, 6400),
    _p("8B", "baseline", 400, 8, 72, 3072, 24, 8, 400),
    _p("40B", "zero", 400, 4, 88, 6144, 32, 12, 1200),
    _p("40B", "baseline", 384, 32, 88, 6144, 64, 4, 48),
    _p("60B", "zero", 400, 16, 132, 6144, 32, 64, 1600),
    _p("60B", "baseline", 384, 64, 132, 6144, 64, 4, 24),
    _p("80B", "zero", 400, 16, 100, 8192, 64, 32, 800),
    _p("80B", "baseline", 384, 128, 100, 8192, 128, 4, 12),
    _p("100B", "zero", 400, 16, 125, 8192, 64, 32, 800),
    _p("100B", "baseline", 384, 128, 125, 8192, 128, 2, 6),
    _p("120B", "zero", 400, 16, 150, 8192, 64, 24, 600),
    _p("120B", "baseline", 384, 128, 150, 8192, 128, 2, 6),
    _p("140B", "zero", 400, 16, 175, 8192, 64, 16, 400),
    _p("140B", "baseline", 384, 128, 175, 8192, 128, 2, 6),
    _p("170B", "zero", 400, 16, 212, 8192, 64, 12, 300),
    _p("170B", "baseline", 256, 256, 212, 8192, 256, 2, 2),
]

# Table 6 — Figure 3: super-linear scalability of a 60B model.
TABLE6_FIGURE3 = [
    _p("60B", "zero", 64, 16, 75, 8192, 32, 16, 64),
    _p("60B", "zero", 128, 16, 75, 8192, 32, 48, 384),
    _p("60B", "zero", 256, 16, 75, 8192, 32, 48, 768),
    _p("60B", "zero", 400, 16, 75, 8192, 32, 64, 1600),
]

# Table 7 — Figure 4 in the appendix labeling: max model sizes with
# different ZeRO configs (used for our Figure 6 reproduction inputs).
TABLE7_FIGURE4 = [
    _p("40B", "zero", 400, 16, 50, 8192, 32, 16, 400),
    _p("60B", "zero", 400, 16, 132, 6144, 64, 16, 400),
    _p("140B", "zero", 400, 16, 175, 8192, 64, 16, 400),
    _p("150B", "zero", 400, 16, 187, 8192, 64, 16, 400),
    _p("50B", "zero", 400, 16, 62, 8192, 32, 16, 400),
]

# Table 8 — cache-measurement configs (our Figure 7 reproduction):
# a 40B and a 100B model, MP 16.
TABLE8_FIGURE7 = [
    _p("40B", "zero", 400, 16, 50, 8192, 32, 16, 400),
    _p("100B", "zero", 400, 16, 125, 8192, 64, 32, 800),
]

# Table 9 — Figure 6 appendix labeling: throughput with different ZeRO
# configs (our Figure 8 reproduction): 60B at batch sizes per config, 170B.
TABLE9_FIGURE8 = [
    _p("60B-C1", "zero", 128, 16, 75, 8192, 64, 2, 16),
    _p("60B-C2", "zero", 128, 16, 75, 8192, 64, 4, 32),
    _p("60B-C3", "zero", 128, 16, 75, 8192, 64, 32, 256),
    _p("60B-C4", "zero", 128, 16, 75, 8192, 64, 32, 256),
    _p("60B-C5", "zero", 128, 16, 75, 8192, 64, 8, 64),
    _p("170B-C5", "zero", 400, 16, 212, 8192, 64, 12, 300),
]

# Table 10 — DP-only democratization configs (Figure 4 in the main text):
# ZeRO-100B without MP up to 13B, plus the two baseline-DP points.
TABLE10_FIGURE4_DP_ONLY = [
    _p("1.5B", "zero", 128, 1, 34, 1920, 16, 24, 3072),
    _p("2.5B", "zero", 128, 1, 54, 1920, 16, 24, 3072),
    _p("4B", "zero", 128, 1, 64, 2304, 24, 16, 2048),
    _p("6B", "zero", 128, 1, 52, 3072, 24, 12, 1536),
    _p("8B", "zero", 128, 1, 72, 3072, 24, 8, 1024),
    _p("10B", "zero", 128, 1, 50, 4096, 32, 6, 768),
    _p("11B", "zero", 128, 1, 54, 4096, 32, 4, 512),
    _p("12B", "zero", 128, 1, 58, 4096, 32, 4, 512),
    _p("13B", "zero", 128, 1, 62, 4096, 32, 2, 256),
    _p("1.16B", "baseline", 128, 1, 24, 1920, 16, 8, 1024),
    _p("1.38B", "baseline", 128, 1, 40, 1536, 16, 1, 128),
]

# Figure 1's worked example: 7.5B parameters, Nd = 64, K = 12.
FIGURE1_PSI = 7.5e9
FIGURE1_ND = 64

# Table 1's model sizes and DP degrees.
TABLE1_MODEL_SIZES = {"7.5B": 7.5e9, "128B": 128e9, "1T": 1e12}
TABLE1_DP_DEGREES = [1, 4, 16, 64, 256, 1024]

# Table 2's MP sweep: (MP degree, GPU count) rows.
TABLE2_ROWS = [(1, 64), (2, 128), (4, 256), (8, 512), (16, 1024)]
