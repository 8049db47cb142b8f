"""Figure 7: max cached memory per iteration, 40B and 100B models, C1-C5.

The paper reads PyTorch's "max cache allocated"; we read the simulated
caching allocator's peak reserved bytes from one meta-mode training step
on a virtual rank of the full (400-GPU, MP=16) job. The paper's
qualitative observations to reproduce: cached memory drops C1 -> C2
(Pa), and C4 -> C5 (Pa+cpu) is flat for 40B but drops for 100B, whose
activation checkpoints are big enough for the offload to show.

The run rides the memory observatory (``repro.memprof``): every
allocation is attributed to a ZeRO state class with the exact-accounting
self-check on, so each cell also reports the cached/allocated *gap*
(reserved − allocated at peak, the figure's actual subject) and the
category that dominated the peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.configs import TABLE8_FIGURE7
from repro.experiments.common import Claim, meta_memory_step
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import PAPER_CONFIGS


@dataclass(frozen=True)
class Fig7Cell:
    model: str
    config: str
    fits: bool
    max_cached_gb: float
    peak_allocated_gb: float
    oom_reason: str = ""
    cached_gap_gb: float = 0.0
    top_category: str = ""
    category_peaks: dict[str, int] | None = field(default=None, compare=False)
    memprof_ok: bool = False


def run() -> list[Fig7Cell]:
    cells = []
    for point in TABLE8_FIGURE7:
        for name, zero in PAPER_CONFIGS.items():
            result = meta_memory_step(
                point.model, zero, n_gpus=point.n_gpus, mp=point.mp, batch=point.batch,
                memprof=True,
            )
            peaks = result.category_peaks or {}
            top = max(peaks, key=peaks.get) if peaks else ""
            cells.append(
                Fig7Cell(
                    model=point.label, config=name, fits=result.fits,
                    max_cached_gb=result.max_cached_gb,
                    peak_allocated_gb=result.peak_allocated_gb,
                    oom_reason=result.oom_reason,
                    cached_gap_gb=result.cached_gap_gb,
                    top_category=top,
                    category_peaks=peaks,
                    memprof_ok=result.memprof_ok,
                )
            )
    return cells


def render(cells: list[Fig7Cell]) -> str:
    return format_table(
        ["model", "config", "max cached GB", "peak allocated GB", "gap GB",
         "top category (peak GB)", "status"],
        [
            [c.model, c.config,
             f"{c.max_cached_gb:.1f}" if c.fits else "-",
             f"{c.peak_allocated_gb:.1f}" if c.fits else "-",
             f"{c.cached_gap_gb:.1f}" if c.fits else "-",
             (f"{c.top_category} ({c.category_peaks[c.top_category] / GB:.1f})"
              if c.top_category else "-"),
             "ok" if c.fits else f"OOM ({c.oom_reason})"]
            for c in cells
        ],
        title="Figure 7 — max cached memory per iteration (meta-mode allocator)",
    )


def metrics(cells: list[Fig7Cell]):
    fits = [c for c in cells if c.fits]
    return {
        **{f"max_cached_gb_{c.model}_{c.config}": (c.max_cached_gb, "GB") for c in fits},
        **{f"cached_gap_gb_{c.model}_{c.config}": (c.cached_gap_gb, "GB") for c in fits},
    }, {"figure": "fig7", "memprof": True}


def claims(cells: list[Fig7Cell]) -> list[Claim]:
    index = {(c.model, c.config): c for c in cells}
    gb = {key: c.max_cached_gb for key, c in index.items()}
    fits = [c for c in cells if c.fits]
    # Every cell's numbers come from a profiled run in which the sum of
    # per-category live bytes equalled device allocated bytes at every
    # allocator event (memprof self_check).
    gap_ok = [abs(c.cached_gap_gb - (c.max_cached_gb - c.peak_allocated_gb)) < 1e-9
              and bool(c.top_category) for c in fits]
    c4, c5 = index["100B", "C4"], index["100B", "C5"]
    return [
        Claim("memprof self-check held, every cell", "-",
              f"{sum(c.memprof_ok for c in cells)} of {len(cells)}", all(c.memprof_ok for c in cells)),
        Claim("gap = cached - allocated, top category named, every fitting cell", "-",
              f"{sum(gap_ok)} of {len(fits)}", all(gap_ok)),
        Claim("40B: Pa lowers cached memory, C1 -> C2", "drops",
              f"{gb['40B', 'C1']:.1f} -> {gb['40B', 'C2']:.1f} GB", gb["40B", "C2"] < gb["40B", "C1"]),
        Claim("40B: C4 -> C5 within 1 GB", "flat", f"{gb['40B', 'C4']:.1f} -> {gb['40B', 'C5']:.1f} GB",
              abs(gb["40B", "C5"] - gb["40B", "C4"]) < 1),
        Claim("100B: C4 and C5 fit, C5 over 1 GB lower", "drops",
              f"{c4.max_cached_gb:.1f} -> {c5.max_cached_gb:.1f} GB",
              c4.fits and c5.fits and c5.max_cached_gb < c4.max_cached_gb - 1),
    ]


SOURCES = {"test_fig7_cached_memory": run}
