"""Shared plumbing for the per-table/figure experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.analysis.max_model import _largest
from repro.comm.virtual import VirtualGroup
from repro.memsim.errors import OutOfMemoryError
from repro.nn.transformer import GPTConfig
from repro.runtime import RankContext, virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh

SEQ_LEN = 1024
#: the allocator fit's layer cap (Table 2's largest row trains under it)
MAX_MEASURED_LAYERS = 2048


class Claim(NamedTuple):
    """One paper claim set against a runner's rows: what the paper states,
    what the run reproduced, and whether the run meets the claim's bound."""

    claim: str
    paper: str
    reproduced: str
    holds: bool


def unmet(claims: list[Claim]) -> list[str]:
    """One line, with the paper's value, per claim the run does not meet."""
    return [f"{c.claim} (paper: {c.paper}; reproduced: {c.reproduced})" for c in claims if not c.holds]


def render_claims(claims: list[Claim]) -> str:
    return format_table(
        ["claim", "paper", "reproduced", "holds"],
        [[c.claim, c.paper, c.reproduced, "yes" if c.holds else "NO"] for c in claims],
        title="claims",
    )


def virtual_groups(ctx: RankContext, n_gpus: int, mp: int) -> tuple[VirtualGroup, VirtualGroup]:
    """(dp_group, mp_group) of ``ctx``'s rank in ``Mesh.of_world(n_gpus, mp)``,
    volume recorded in ``ctx.ledger``."""
    mesh = Mesh.of_world(n_gpus, mp)
    return ctx.group(mesh.dp_group(ctx.rank)), ctx.group(mesh.mp_group(ctx.rank))


def meta_engine(
    ctx: RankContext,
    model_config: GPTConfig,
    zero: ZeROConfig,
    *,
    mp: int = 1,
    batch: int,
    seq_len: int = SEQ_LEN,
    md_region_bytes: int | None = None,
):
    """``ctx``'s rank of ``Mesh.of_world(ctx.world_size, mp)``: its engine,
    built in meta mode, and meta ``(batch, seq_len)`` token ids and targets.
    ``ctx`` is a ``virtual_rank_context``; the caller makes it, so that a
    profiler can attach before the first allocation."""
    dp_group, mp_group = virtual_groups(ctx, ctx.world_size, mp)
    _, engine = build_model_and_engine(
        ctx, model_config, zero,
        dp_group=dp_group, mp_group=mp_group if mp > 1 else None,
        meta=True, md_region_bytes=md_region_bytes,
    )
    ids = Tensor.meta((batch, seq_len), np.int64, device=ctx.device)
    targets = Tensor.meta((batch, seq_len), np.int64, device=ctx.device)
    return engine, ids, targets


@dataclass(frozen=True)
class MetaMemoryResult:
    """One rank's memory trace for one meta-mode training step."""

    fits: bool
    peak_allocated_bytes: int
    max_cached_bytes: int
    oom_reason: str = ""
    # Memory-observatory extras (memprof=True): per-category peak live
    # bytes, whether the exact-attribution invariant held at every
    # allocator event, and the postmortem's advisor hint on OOM.
    category_peaks: dict[str, int] | None = field(default=None, compare=False)
    memprof_ok: bool = False
    oom_hint: str = ""

    @property
    def peak_allocated_gb(self) -> float:
        return self.peak_allocated_bytes / GB

    @property
    def max_cached_gb(self) -> float:
        return self.max_cached_bytes / GB

    @property
    def cached_gap_gb(self) -> float:
        """Peak reserved minus peak allocated — Figure 7's gap."""
        return (self.max_cached_bytes - self.peak_allocated_bytes) / GB


def meta_memory_step(
    model_config: GPTConfig,
    zero: ZeROConfig,
    *,
    n_gpus: int,
    mp: int,
    batch: int,
    seq_len: int = SEQ_LEN,
    memprof: bool = False,
) -> MetaMemoryResult:
    """Run one meta-mode training step on one virtual rank of V100s and
    report the allocator's peak/cached figures (the Figure 7 measurement).
    A config that defragments gets a 2 GB MD region.

    With ``memprof=True`` a ``MemoryProfiler`` with ``self_check=True``
    rides along: every allocation is attributed to a ZeRO state class and
    the sum of per-category live bytes is verified against the device's
    own allocated-bytes counter at every allocator event (the acceptance
    invariant for the Figure 7 reproduction). OOMs then carry a
    postmortem whose advisor hint is surfaced as ``oom_hint``.
    """
    ctx = virtual_rank_context(n_gpus)
    profiler = None
    if memprof:
        from repro.memprof import MemoryProfiler, Workload

        profiler = MemoryProfiler(
            ctx.device,
            self_check=True,
            workload=Workload(model=model_config, n_gpus=n_gpus, mp=mp),
        )

    def _result(fits: bool, oom_reason: str = "", oom_hint: str = "") -> MetaMemoryResult:
        peaks = None
        if profiler is not None:
            profiler.verify_accounting()
            peaks = dict(profiler.peak_by_category)
            profiler.detach()
        return MetaMemoryResult(
            fits, ctx.device.max_allocated_bytes, ctx.device.max_reserved_bytes, oom_reason,
            category_peaks=peaks, memprof_ok=peaks is not None, oom_hint=oom_hint,
        )

    try:
        engine, ids, targets = meta_engine(
            ctx, model_config, zero, mp=mp, batch=batch, seq_len=seq_len,
            md_region_bytes=int(2 * GB) if zero.memory_defrag else None,
        )
        engine.train_step(ids, targets)
    except OutOfMemoryError as exc:
        hint = ""
        if exc.postmortem is not None:
            hint = exc.postmortem.advisor_hint or exc.postmortem.headline()
        return _result(False, oom_reason=type(exc).__name__, oom_hint=hint)
    return _result(True)


def measured_max_layers(
    zero: ZeROConfig, *, hidden: int, heads: int, n_gpus: int, mp: int, batch: int,
    start: int = 2,
) -> int:
    """Largest layer count of an ``hidden``-wide GPT whose meta-mode step
    fits one rank's 32 GB device — the allocator's answer, as
    ``analysis.max_model.max_layers`` is the closed form's; 0 if one layer
    does not fit. Doubling starts at ``start``."""

    def fits(n_layers: int) -> bool:
        cfg = GPTConfig(n_layers=n_layers, hidden=hidden, n_heads=heads)
        return meta_memory_step(cfg, zero, n_gpus=n_gpus, mp=mp, batch=batch).fits

    return _largest(fits, MAX_MEASURED_LAYERS, start)
