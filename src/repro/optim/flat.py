"""Flat parameter layout: map a model's parameters into one contiguous vector.

DeepSpeed-style flattening underlies everything distributed here: DDP's
fused all-reduce buffer, ZeRO's optimizer-state/gradient/parameter
partitions, and the mixed-precision master copy all address parameters by
(offset, size) into a single flat space, padded so it divides evenly by
the data-parallel degree.

Ordering is the model's deterministic registration order, identical on
every rank, so partition i means the same parameters everywhere.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.memsim.caching_allocator import Transition
from repro.memsim.device import Device
from repro.nn.module import Parameter


@dataclass(frozen=True)
class ParamSlot:
    """One parameter's placement in the flat vector."""

    name: str
    offset: int
    size: int
    shape: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.offset + self.size


class FlatLayout:
    """Deterministic packing of parameters into a padded flat vector."""

    def __init__(self, parameters: list[Parameter], pad_multiple: int = 1):
        if pad_multiple <= 0:
            raise ValueError(f"pad_multiple must be positive, got {pad_multiple}")
        self.parameters = list(parameters)
        self.slots: list[ParamSlot] = []
        offset = 0
        seen: set[str] = set()
        for p in self.parameters:
            if p.name in seen:
                raise ValueError(f"duplicate parameter name {p.name!r} in layout")
            seen.add(p.name)
            self.slots.append(ParamSlot(p.name, offset, p.size, p.shape))
            offset += p.size
        self.numel_unpadded = offset
        self.numel = -(-offset // pad_multiple) * pad_multiple  # ceil to multiple
        self.pad_multiple = pad_multiple
        self._by_name = {s.name: s for s in self.slots}
        # Slots are contiguous and ascending by construction, so both lists
        # are sorted and a flat range finds its slots by bisection.
        self._offsets = [s.offset for s in self.slots]
        self._ends = [s.end for s in self.slots]

    def slot(self, name: str) -> ParamSlot:
        return self._by_name[name]

    def partition_bounds(self, n_partitions: int, index: int) -> tuple[int, int]:
        """[lo, hi) of equal partition ``index`` of the padded flat space."""
        if self.numel % n_partitions:
            raise ValueError(
                f"flat numel {self.numel} not divisible by {n_partitions}; "
                f"construct the layout with pad_multiple={n_partitions}"
            )
        size = self.numel // n_partitions
        return index * size, (index + 1) * size

    def owner_segments(self, n_partitions: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """Split the flat range [lo, hi) into ``(owner_index, lo, hi)``
        pieces, one per equal partition the range crosses, in order."""
        out = []
        size = self.numel // n_partitions
        while lo < hi:
            owner = lo // size
            seg_hi = min(hi, (owner + 1) * size)
            out.append((owner, lo, seg_hi))
            lo = seg_hi
        return out

    def _overlapping(self, lo: int, hi: int) -> range:
        """Indexes of the slots with ``offset < hi and end > lo`` — the
        ones [lo, hi) overlaps — by bisection instead of a scan."""
        return range(bisect_right(self._ends, lo), bisect_left(self._offsets, hi))

    # -- gather / scatter (real mode; callers skip these in meta mode) -------

    def gather_params(self, dtype=np.float32) -> np.ndarray:
        """Concatenate parameter values into a flat vector (padded with zeros)."""
        flat = np.zeros(self.numel, dtype=dtype)
        for p, s in zip(self.parameters, self.slots):
            flat[s.offset : s.end] = p.data.numpy().reshape(-1).astype(dtype)
        return flat

    def gather_grads(self, dtype=np.float32) -> np.ndarray:
        """Concatenate gradients; every parameter must have one."""
        flat = np.zeros(self.numel, dtype=dtype)
        for p, s in zip(self.parameters, self.slots):
            if p.grad is None:
                raise ValueError(f"parameter {p.name} has no gradient")
            flat[s.offset : s.end] = p.grad.numpy().reshape(-1).astype(dtype)
        return flat

    def scatter_params(self, flat: np.ndarray) -> None:
        """Write a flat vector back into the parameter tensors (casting)."""
        if flat.shape != (self.numel,):
            raise ValueError(f"flat vector shape {flat.shape} != ({self.numel},)")
        for p, s in zip(self.parameters, self.slots):
            p.data.data = flat[s.offset : s.end].astype(p.data.dtype).reshape(s.shape)

    def scatter_param_range(self, flat_piece: np.ndarray, lo: int, hi: int) -> None:
        """Write values for the flat range [lo, hi) into overlapping params."""
        if flat_piece.shape != (hi - lo,):
            raise ValueError(f"piece shape {flat_piece.shape} != ({hi - lo},)")
        for i in self._overlapping(lo, hi):
            p, s = self.parameters[i], self.slots[i]
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b:
                continue
            target = p.data.numpy().reshape(-1)
            target[a - s.offset : b - s.offset] = flat_piece[a - lo : b - lo].astype(
                p.data.dtype
            )

    def gather_param_range(self, lo: int, hi: int, dtype=np.float32) -> np.ndarray:
        """Read parameter values for the flat range [lo, hi) (pad as zeros)."""
        piece = np.zeros(hi - lo, dtype=dtype)
        for i in self._overlapping(lo, hi):
            p, s = self.parameters[i], self.slots[i]
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b:
                continue
            src = p.data.numpy().reshape(-1)
            piece[a - lo : b - lo] = src[a - s.offset : b - s.offset].astype(dtype)
        return piece

    def gather_grad_range(
        self, lo: int, hi: int, dtype=np.float32, *, missing_ok: bool = False
    ) -> np.ndarray:
        """Read gradient values for the flat range [lo, hi) (pad as zeros)."""
        piece = np.zeros(hi - lo, dtype=dtype)
        for i in self._overlapping(lo, hi):
            p, s = self.parameters[i], self.slots[i]
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b:
                continue
            if p.grad is None:
                if not missing_ok:
                    raise ValueError(f"parameter {p.name} has no gradient")
                continue
            src = p.grad.numpy().reshape(-1)
            piece[a - lo : b - lo] = src[a - s.offset : b - s.offset].astype(dtype)
        return piece


@dataclass(frozen=True, slots=True)
class OwnerSegment:
    """One partition owner's share of a bucket or unit.

    ``lo`` / ``hi`` bound the owner's run of the record's flat buffer
    (``numel`` elements); ``pieces`` are the flat-layout ``[lo, hi)``
    ranges that run holds, ascending, adjacent ranges merged.
    """

    owner: int
    pieces: tuple[tuple[int, int], ...]
    lo: int
    hi: int

    @property
    def numel(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True, slots=True)
class SegmentPlan:
    """How one bucket or unit splits across the partition owners.

    ``segments`` ascend by owner; ``roots`` (each owner's global rank — the
    ``dst`` of its reduce, the ``src`` of its gather) and ``nbytes`` (its
    message size) run parallel to them, ready to hand to
    ``ProcessGroup.coalesced``. ``mine`` indexes the planning rank's own
    segment, None when it owns nothing here.
    """

    segments: tuple[OwnerSegment, ...]
    roots: tuple[int, ...]
    nbytes: tuple[int, ...]
    mine: int | None


def plan_segments(
    layout: FlatLayout, ranks: tuple[int, ...], my_index: int, itemsize: int,
    params: Sequence[Parameter],
) -> SegmentPlan:
    """The per-owner split of ``params`` — ascending in ``layout`` — over
    the ``len(ranks)``-way partition, as seen by group index ``my_index``.

    Laid end to end in layout order, the parameters' elements ascend in
    the flat space, so every owner's elements are one run of that
    concatenation: the run is the owner's message, with no gather."""
    nd = len(ranks)
    by_owner: dict[int, list[tuple[int, int]]] = {}
    for p in params:
        slot = layout.slot(p.name)
        for owner, lo, hi in layout.owner_segments(nd, slot.offset, slot.end):
            held = by_owner.setdefault(owner, [])
            if held and held[-1][1] == lo:
                held[-1] = (held[-1][0], hi)
            else:
                held.append((lo, hi))
    segments, cursor = [], 0
    for owner, held in by_owner.items():  # ascending: params ascend in the layout
        numel = sum(hi - lo for lo, hi in held)
        segments.append(OwnerSegment(owner, tuple(held), cursor, cursor + numel))
        cursor += numel
    owners = [seg.owner for seg in segments]
    return SegmentPlan(
        segments=tuple(segments),
        roots=tuple(ranks[o] for o in owners),
        nbytes=tuple(seg.numel * itemsize for seg in segments),
        mine=owners.index(my_index) if my_index in owners else None,
    )


class GradRecord:
    """One bucket's (stages 0-2) or stage-3 unit's gradients.

    ``params`` are in the order backward handed them in (a bucket's ready
    order), which is the order they are released in. ``pending`` counts
    the handoffs still due this round (the last ``pending`` of ``params``;
    0 while the bucket first grows); ``auto`` says the bucket closed itself
    on reaching its size (it flushes at its last handoff), rather than at
    the round's explicit ``flush``. ``plan`` is the engine's
    ``SegmentPlan``, made at the record's first flush.

    ``fix`` gives a real record its one flat host buffer in the gradient
    dtype, the parameters laid out in layout order: from then on each
    ``Parameter.grad`` is a view of it at a fixed offset, which handoffs
    write or accumulate into and a flush sends without a copy loop.
    """

    __slots__ = ("params", "numel", "pending", "auto", "plan", "buffer", "_frees")

    def __init__(self, params: Sequence[Parameter] = ()):
        self.params = list(params)
        self.numel = sum(p.size for p in self.params)
        self.pending = 0
        self.auto = False
        self.plan: SegmentPlan | None = None
        self.buffer: np.ndarray | None = None
        self._frees: tuple | None = None  # (extent sizes, Transition) of the last release

    def __len__(self) -> int:
        return len(self.params)

    def add(self, param: Parameter) -> None:
        self.params.append(param)
        self.numel += param.size

    def fix(self, layout: FlatLayout) -> list[Parameter]:
        """The parameters in layout order; a real record's buffer, made
        here, holds what their gradients hold, and each gradient becomes a
        view of it."""
        ordered = sorted(self.params, key=lambda p: layout.slot(p.name).offset)
        if any(p.grad is None or p.grad.data is None for p in ordered):
            return ordered  # meta: nothing to hold
        dtypes = {p.grad_dtype for p in ordered}
        if len(dtypes) != 1:
            raise ValueError(f"a bucket holds one gradient dtype, not {sorted(map(str, dtypes))}")
        self.buffer = np.empty(self.numel, dtypes.pop())
        offset = 0
        for p in ordered:
            view = self.buffer[offset : offset + p.size].reshape(p.shape)
            view[...] = p.grad.data
            p.grad.data = p.grad_view = view
            offset += p.size
        return ordered

    def release(self) -> None:
        """Free every parameter's gradient, in ``params`` order. Where the
        device has no subscriber, the frees into its cache are one
        ``Device.apply``, whose ``Transition`` is kept for the next release
        of the same sizes (through the door if the device declines it), and
        an MD region's frees go through the door as they come: the pools
        are disjoint and a free moves no peak, so that is what freeing in
        order gives. Otherwise every free goes through the door, in order."""
        extents, sizes, n, device = [], [], 0, None
        for p in self.params:
            g = p.grad
            if g is None:
                continue
            p.grad = None
            if g._freed:
                continue
            g._freed = True
            g.data = None
            extent, pool = g.extent, g.device
            if extent is None:
                continue
            g.extent = None
            if (pool.__class__ is not Device or pool.on_free or extent.pool == "md"
                    or (device is not None and pool is not device)):
                pool.free(extent)
            else:
                device = pool
                extents += (extent,)
                sizes += (extent.size,)
                n += 1
        if n > 1:
            kept = self._frees
            if kept is None or kept[0] != sizes:
                kept = self._frees = (
                    sizes, Transition([~i for i in range(n)], n, sizes)
                )
            if device.apply(kept[1], extents, ()):
                return
        for extent in extents:
            device.free(extent)
