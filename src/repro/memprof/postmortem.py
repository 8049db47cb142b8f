"""OOM postmortems: turn an allocation failure into a diagnosis.

When a profiled device OOMs, ``Device._annotate_oom`` calls
``build_postmortem`` with the live provenance table frozen at the moment
of failure. The report answers the three questions Section 6.3 of the
paper raises about real OOMs:

1. **Who holds the memory** — top live allocations grouped by ZeRO state
   class and allocation site (flamegraph-style ASCII tree, or JSON).
2. **Capacity or fragmentation** — the verdict is "fragmentation" when
   total free bytes would have satisfied the request but no contiguous
   hole did (``FragmentationError``, or free ≥ requested), else
   "capacity".
3. **Which knob saves you** — a heuristic mapping from the dominant state
   class to the ZeRO/Pa/CB/MD feature that removes it, and, when the
   profiler carries a ``Workload`` description, a *concrete* fitting
   config computed by reusing ``repro.analysis.advisor`` — the same
   memory/perf models the paper's Section 8 decision procedure uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memprof.provenance import CATEGORIES
from repro.utils.units import bytes_to_str

_BAR_WIDTH = 24  # characters of the largest category's bar
_MAX_SITES = 4  # allocation sites listed under each category

# Dominant-category -> the knob that removes that state class from the
# device (paper section in parens).
_KNOB_BY_CATEGORY = {
    "optimizer_state": (
        "zero_stage>=1 (Pos, §5.1) — partition optimizer state across ranks, "
        "or infinity=InfinityConfig(optimizer_tier='host') to move it to host DRAM"
    ),
    "grad_fp16": "zero_stage>=2 (Pos+g, §5.2) — partition fp16 gradients",
    "param_fp16": "zero_stage=3 (Pos+g+p, §5.3) — partition fp16 parameters",
    "activation_ckpt": (
        "partition_activations=True (Pa, §6.1) — shard activation checkpoints "
        "across model-parallel ranks; add cpu_offload_activations (Pa+cpu) if "
        "still short"
    ),
    "activation": "checkpoint more aggressively or reduce batch size (§6.1)",
    "comm_buffer": "constant_buffers=True (CB, §6.2) — cap fused-buffer size",
    "temp": "constant_buffers=True (CB, §6.2) — bound temporary fused buffers",
}

_MD_KNOB = (
    "memory_defrag=True (MD, §6.3) — pre-reserve a contiguous region for "
    "long-lived tensors so short-lived ones cannot shatter the heap"
)


@dataclass(frozen=True)
class CategoryUsage:
    category: str
    live_bytes: int
    n_blocks: int
    share: float  # of tracked live bytes


@dataclass(frozen=True)
class SiteUsage:
    site: str
    category: str
    live_bytes: int
    n_blocks: int


@dataclass(frozen=True)
class Workload:
    """Optional model/cluster description enabling concrete advisor hints."""

    model: object  # GPTConfig
    n_gpus: int
    mp: int = 1
    budget_bytes: float | None = None  # default: device capacity


@dataclass(frozen=True)
class OOMReport:
    device: str
    requested: int
    free: int
    largest_free: int
    capacity: int | None
    allocated: int | None
    reserved: int | None
    verdict: str  # "fragmentation" | "capacity"
    categories: tuple[CategoryUsage, ...]
    sites: tuple[SiteUsage, ...]
    untracked_bytes: int
    knobs: tuple[str, ...]
    advisor_hint: str = ""
    advice: object = field(default=None, compare=False)  # analysis.advisor.Advice

    @property
    def tracked_bytes(self) -> int:
        return sum(c.live_bytes for c in self.categories)

    def headline(self) -> str:
        """One-line diagnosis appended to the OOM exception message."""
        top = self.categories[0].category if self.categories else "untracked"
        hint = self.knobs[0] if self.knobs else ""
        return (
            f"memprof verdict: {self.verdict.upper()} OOM "
            f"(top category: {top}); try: {hint}"
        )

    def to_json(self) -> dict:
        return {
            "schema": "repro.memprof/oom-postmortem-v1",
            "device": self.device,
            "requested": self.requested,
            "free": self.free,
            "largest_free": self.largest_free,
            "capacity": self.capacity,
            "allocated": self.allocated,
            "reserved": self.reserved,
            "verdict": self.verdict,
            "categories": [
                {
                    "category": c.category,
                    "live_bytes": c.live_bytes,
                    "n_blocks": c.n_blocks,
                    "share": c.share,
                }
                for c in self.categories
            ],
            "sites": [
                {
                    "site": s.site,
                    "category": s.category,
                    "live_bytes": s.live_bytes,
                    "n_blocks": s.n_blocks,
                }
                for s in self.sites
            ],
            "untracked_bytes": self.untracked_bytes,
            "knobs": list(self.knobs),
            "advisor_hint": self.advisor_hint,
        }

    def render(self) -> str:
        """Flamegraph-style ASCII tree: category bars with per-site leaves."""
        lines = [
            f"OOM postmortem — {self.device}: failed allocating "
            f"{bytes_to_str(self.requested)} · verdict: {self.verdict.upper()}"
        ]
        if self.capacity is not None:
            lines.append(
                f"  device: capacity {bytes_to_str(self.capacity)}, allocated "
                f"{bytes_to_str(self.allocated or 0)}, reserved "
                f"{bytes_to_str(self.reserved or 0)}, free {bytes_to_str(self.free)}, "
                f"largest contiguous {bytes_to_str(self.largest_free)}"
            )
        if self.verdict == "fragmentation":
            lines.append(
                f"  free {bytes_to_str(self.free)} ≥ request "
                f"{bytes_to_str(self.requested)} but largest hole is only "
                f"{bytes_to_str(self.largest_free)}: the heap is fragmented"
            )
        tracked = self.tracked_bytes
        lines.append(
            f"  live bytes by ZeRO state class (tracked {bytes_to_str(tracked)}, "
            f"untracked {bytes_to_str(self.untracked_bytes)}):"
        )
        peak = max((c.live_bytes for c in self.categories), default=0)
        by_cat_sites = {}
        for s in self.sites:
            by_cat_sites.setdefault(s.category, []).append(s)
        for c in self.categories:
            bar = "█" * max(1, round(_BAR_WIDTH * c.live_bytes / peak)) if peak else ""
            lines.append(
                f"  {c.category:<16} {bar:<{_BAR_WIDTH}} "
                f"{bytes_to_str(c.live_bytes):>10}  {c.share * 100:5.1f}%  "
                f"({c.n_blocks} blocks)"
            )
            sites = by_cat_sites.get(c.category, [])[:_MAX_SITES]
            for i, s in enumerate(sites):
                branch = "└─" if i == len(sites) - 1 else "├─"
                lines.append(
                    f"      {branch} {s.site:<28} {bytes_to_str(s.live_bytes):>10}"
                    f"  × {s.n_blocks}"
                )
        if self.knobs:
            lines.append("  advisor knobs (most likely fix first):")
            for knob in self.knobs:
                lines.append(f"    • {knob}")
        if self.advisor_hint:
            lines.append(f"  advisor: {self.advisor_hint}")
        return "\n".join(lines)


def build_postmortem(profiler, exc) -> OOMReport:
    """Freeze the profiler's live table into a structured OOM report."""
    from repro.memsim.errors import FragmentationError

    blocks = profiler.live_blocks()
    tracked = sum(b["bytes"] for b in blocks)
    cat_bytes: dict[str, int] = {c: 0 for c in CATEGORIES}
    cat_blocks: dict[str, int] = {c: 0 for c in CATEGORIES}
    site_acc: dict[tuple[str, str], list[int]] = {}
    for b in blocks:
        cat_bytes[b["category"]] += b["bytes"]
        cat_blocks[b["category"]] += 1
        acc = site_acc.setdefault((b["category"], b["site"] or b["tag"]), [0, 0])
        acc[0] += b["bytes"]
        acc[1] += 1
    categories = tuple(
        sorted(
            (
                CategoryUsage(
                    category=c,
                    live_bytes=cat_bytes[c],
                    n_blocks=cat_blocks[c],
                    share=(cat_bytes[c] / tracked) if tracked else 0.0,
                )
                for c in CATEGORIES
                if cat_blocks[c]
            ),
            key=lambda u: u.live_bytes,
            reverse=True,
        )
    )
    sites = tuple(
        sorted(
            (
                SiteUsage(site=site, category=cat, live_bytes=acc[0], n_blocks=acc[1])
                for (cat, site), acc in site_acc.items()
            ),
            key=lambda u: u.live_bytes,
            reverse=True,
        )
    )

    is_frag = isinstance(exc, FragmentationError) or exc.free >= exc.requested
    verdict = "fragmentation" if is_frag else "capacity"

    knobs = []
    if verdict == "fragmentation":
        knobs.append(_MD_KNOB)
    for c in categories:
        knob = _KNOB_BY_CATEGORY.get(c.category)
        if knob and knob not in knobs:
            knobs.append(knob)
    if not knobs:
        knobs.append(_KNOB_BY_CATEGORY["temp"])

    advisor_hint, advice = "", None
    workload = getattr(profiler, "workload", None)
    if workload is not None:
        advisor_hint, advice = _advisor_hint(profiler, workload)

    return OOMReport(
        device=exc.device,
        requested=exc.requested,
        free=exc.free,
        largest_free=exc.largest_free,
        capacity=exc.capacity,
        allocated=exc.allocated,
        reserved=exc.reserved,
        verdict=verdict,
        categories=categories,
        sites=sites[:32],
        untracked_bytes=profiler.untracked_bytes,
        knobs=tuple(knobs[:4]),
        advisor_hint=advisor_hint,
        advice=advice,
    )


def _advisor_hint(profiler, workload) -> tuple[str, object]:
    """Concrete fitting config via analysis.advisor (lazy import: advisor
    pulls in the model stack, which itself imports memprof scopes)."""
    try:
        from repro.analysis.advisor import recommend_zero_config
        from repro.zero.placement import Mesh
    except ImportError:  # pragma: no cover - defensive
        return "", None
    budget = workload.budget_bytes
    if budget is None:
        spec = getattr(profiler.device, "spec", None)
        budget = spec.memory_bytes if spec else None
    if budget is None:
        return "", None
    advice = recommend_zero_config(
        workload.model, mesh=Mesh.of_world(workload.n_gpus, workload.mp), budget_bytes=budget
    )
    if advice.batch <= 0:
        return "no modelled config fits this workload on this budget", advice
    cfg = advice.config
    parts = [f"stage {cfg.stage}"]
    if cfg.partition_activations:
        parts.append("Pa" + ("+cpu" if cfg.cpu_offload_activations else ""))
    hint = (
        f"{' + '.join(parts)} fits with batch {advice.batch} "
        f"(modelled {advice.tflops_per_gpu:.0f} TFLOPs/GPU): {advice.reason}"
    )
    return hint, advice
