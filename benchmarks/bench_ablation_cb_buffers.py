"""Ablation — CB (constant-size buffers, Section 6.2): the fused-buffer
footprint must stay flat as the model grows with CB, and grow 4 bytes per
parameter without it."""

from repro.analysis.memory_model import temporary_buffer_bytes
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig


def run_ablation():
    sizes = [1e9, 3e9, 10e9, 100e9, 1e12]
    rows = []
    for psi in sizes:
        rows.append(
            (
                psi,
                temporary_buffer_bytes(psi, ZeROConfig(constant_buffers=False)),
                temporary_buffer_bytes(psi, ZeROConfig(constant_buffers=True)),
            )
        )
    return rows


def test_ablation_cb_buffers(benchmark, record_table):
    rows = benchmark(run_ablation)
    record_table(
        format_table(
            ["params", "fused buffer (no CB)", "fused buffer (CB)"],
            [
                [f"{psi/1e9:.0f}B", f"{no_cb/GB:.1f} GB", f"{cb/GB:.3f} GB"]
                for psi, no_cb, cb in rows
            ],
            title="Ablation — CB keeps temporary buffers constant",
        ),
        metrics={
            **{
                f"fused_buffer_no_cb_{psi/1e9:.0f}B": (no_cb / GB, "GB")
                for psi, no_cb, cb in rows
            },
            **{
                f"fused_buffer_cb_{psi/1e9:.0f}B": (cb / GB, "GB")
                for psi, no_cb, cb in rows
            },
        },
        config={"ablation": "cb", "section": "6.2"},
    )
    # Paper example: 3B params -> 12 GB fp32 fused buffer without CB.
    no_cb_3b = dict((r[0], r[1]) for r in rows)[3e9]
    assert no_cb_3b / GB == 12.0
    cb_values = {r[2] for r in rows}
    assert len(cb_values) == 1  # constant regardless of model size
