"""Memory-centric tiling: one operator, materialized tile by tile.

ZeRO-Infinity's answer to "a single layer larger than the GPU": instead of
requiring an operator's full parameter working set to be device-resident,
split its flat parameter range into tiles that are gathered, used, and
released *sequentially*, so peak device residency is one tile.

The tiling contract (verified by ``tests/test_infinity.py``):

1. **Residency transform only.** Tiling changes *when parameter bytes are
   device-resident* and what the gather timeline costs — never what is
   computed. The operator's kernels run unchanged, in the same order, on
   the same values, so tiled execution is byte-identical to untiled
   execution at sizes where both fit. (Same separation the simulator uses
   everywhere: meta mode, offload placement, and gray failures all move
   accounting or the modeled clock without touching numerics.)
2. **Tile-bounded accounting.** During a tiled materialization the device
   is charged one ``tile_bytes`` staging buffer at a time (category
   ``param_fp16``, site ``infinity-tile``); the unit's parameters
   themselves are attached unaccounted — the modeled device never holds
   the full operator. Stage 3 charges a unit's construction the same
   way, one staged tile at a time.
3. **Same bytes on the wire.** A tiled gather moves the same total bytes
   as an untiled one, in more, smaller transfers (alpha is paid per
   tile); the prefetch engine overlaps tile page-ins with compute at tile
   granularity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TilePlan:
    """How one unit's flat parameter range splits into sequential tiles."""

    unit_numel: int
    tile_numel: int

    def __post_init__(self):
        if self.unit_numel <= 0:
            raise ValueError(f"unit_numel must be positive, got {self.unit_numel}")
        if self.tile_numel <= 0:
            raise ValueError(f"tile_numel must be positive, got {self.tile_numel}")

    @property
    def n_tiles(self) -> int:
        return -(-self.unit_numel // self.tile_numel)

    @property
    def is_tiled(self) -> bool:
        return self.n_tiles > 1

    def ranges(self) -> list[tuple[int, int]]:
        """[lo, hi) element ranges of each tile within the unit."""
        return [
            (lo, min(lo + self.tile_numel, self.unit_numel))
            for lo in range(0, self.unit_numel, self.tile_numel)
        ]


def plan_unit_tiles(
    unit_numel: int, itemsize: int, tile_bytes: int | None
) -> TilePlan:
    """Tile plan for a unit of ``unit_numel`` parameters: one tile when no
    cap is set or the unit fits, ceil-split otherwise."""
    if tile_bytes is None:
        return TilePlan(unit_numel, unit_numel)
    tile_numel = max(1, tile_bytes // itemsize)
    return TilePlan(unit_numel, min(tile_numel, unit_numel))
