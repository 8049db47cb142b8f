"""The configuration advisor: which ZeRO setup trains my model?

Usage:
    python examples/config_advisor.py

Walks model sizes from 1B to 400B on a 128-GPU cluster and prints what the
Section 8 / 10.5 decision procedure recommends: the lightest ZeRO stage
that fits, whether to partition (Pa) or offload (Pa+cpu) activation
checkpoints, the resulting max batch, and the modelled throughput.
"""

from repro.analysis.advisor import recommend_zero_config
from repro.nn.transformer import GPTConfig
from repro.utils.tables import format_table
from repro.zero.placement import Mesh

N_GPUS = 128

CANDIDATES = [
    ("1.3B", GPTConfig(n_layers=26, hidden=2048, n_heads=16), 1),
    ("8B", GPTConfig(n_layers=72, hidden=3072, n_heads=24), 1),
    ("13B", GPTConfig(n_layers=62, hidden=4096, n_heads=32), 1),
    ("60B", GPTConfig(n_layers=75, hidden=8192, n_heads=64), 16),
    ("170B", GPTConfig(n_layers=212, hidden=8192, n_heads=64), 16),
    ("400B", GPTConfig(n_layers=500, hidden=8192, n_heads=64), 16),
]


def main():
    rows = []
    for label, model, mp in CANDIDATES:
        advice = recommend_zero_config(model, mesh=Mesh.of_world(N_GPUS, mp))
        rows.append([
            label,
            f"{model.total_params/1e9:.1f}B",
            mp,
            {0: "DDP", 1: "ZeRO-1", 2: "ZeRO-2", 3: "ZeRO-3"}[advice.config.stage],
            ("Pa+cpu" if advice.config.cpu_offload_activations
             else "Pa" if advice.config.partition_activations else "-"),
            advice.batch if advice.batch else "does not fit",
            f"{advice.tflops_per_gpu:.1f}" if advice.batch else "-",
        ])
    print(format_table(
        ["model", "params", "MP", "recommended", "activations", "max batch", "TF/GPU"],
        rows,
        title=f"ZeRO configuration advisor — {N_GPUS} x V100-32GB",
    ))
    print("\nThe recommendation escalates exactly as the paper's analysis says it")
    print("should: plain DDP while everything fits, optimizer/gradient")
    print("partitioning as states outgrow the device, Pa once MP is in play,")
    print("Pa+cpu only when a model cannot otherwise run (Sections 8, 10.5).")


if __name__ == "__main__":
    main()
