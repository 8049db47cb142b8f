"""Section 2.1 comparison: ZeRO vs GPipe pipeline parallelism.

Quantifies the paper's related-work argument: PP must grow its in-flight
micro-batch count with the stage count to hide the bubble, paying
activation memory and convergence-relevant batch growth; full ZeRO matches
PP's model-state split without either."""

from repro.analysis.memory_model import ActivationModel
from repro.analysis.pp_model import (
    gpipe_device_bytes,
    microbatches_for_bubble,
    pipeline_bubble_fraction,
    zero_device_bytes_for_comparison,
)
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.placement import Mesh

PSI = 10e9
MICRO_BATCH = 2
HIDDEN, LAYERS, SEQ = 4096, 50, 1024


def run_comparison():
    rows = []
    for devices in (4, 8, 16, 32):
        pipeline, data = Mesh(pp=devices), Mesh(dp=devices)
        micro = microbatches_for_bubble(pipeline, 0.2)
        bubble = pipeline_bubble_fraction(pipeline, micro)
        act_micro = ActivationModel(hidden=HIDDEN, n_layers=LAYERS, seq_len=SEQ,
                                    batch=MICRO_BATCH)
        pp = gpipe_device_bytes(PSI, act_micro, mesh=pipeline, n_microbatches=micro)
        per_rank = max(1, (MICRO_BATCH * micro) // devices)
        act_full = ActivationModel(hidden=HIDDEN, n_layers=LAYERS, seq_len=SEQ,
                                   batch=per_rank)
        z3 = zero_device_bytes_for_comparison(PSI, act_full, mesh=data)
        rows.append((devices, micro, bubble, MICRO_BATCH * micro, pp, z3))
    return rows


def test_pp_vs_zero(benchmark, record_table):
    rows = benchmark(run_comparison)
    record_table(
        format_table(
            ["devices", "micro-batches (bubble<=20%)", "bubble", "PP total batch",
             "GPipe GB/device", "ZeRO-3 GB/device"],
            [
                [d, m, f"{b:.2f}", tb, f"{pp / GB:.1f}", f"{z / GB:.1f}"]
                for d, m, b, tb, pp, z in rows
            ],
            title=f"Section 2.1 — GPipe vs full ZeRO, {PSI/1e9:.0f}B params",
        ),
        metrics={
            **{
                f"gpipe_gb_per_device_{d}dev": (pp / GB, "GB")
                for d, m, b, tb, pp, z in rows
            },
            **{
                f"zero3_gb_per_device_{d}dev": (z / GB, "GB")
                for d, m, b, tb, pp, z in rows
            },
        },
        config={"section": "2.1", "psi_b": PSI / 1e9},
    )
    for devices, micro, _, _, pp, z in rows:
        # "the same or better memory efficiency than PP": equal within 2%
        # at small device counts, strictly better as scale grows.
        assert z <= pp * 1.02
        assert micro >= devices * 2  # batch must grow ~with stages
    assert rows[-1][5] < rows[-1][4]  # strictly better at 32 devices
