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

    def gather_grads(self, dtype=np.float32, *, missing_ok: bool = False) -> np.ndarray:
        """Concatenate gradients (zeros where a parameter has no grad)."""
        flat = np.zeros(self.numel, dtype=dtype)
        for p, s in zip(self.parameters, self.slots):
            if p.grad is None:
                if not missing_ok:
                    raise ValueError(f"parameter {p.name} has no gradient")
                continue
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

    def scatter_grad_range(self, flat_piece: np.ndarray, lo: int, hi: int) -> None:
        """Write values for the flat range [lo, hi) into overlapping grads."""
        if flat_piece.shape != (hi - lo,):
            raise ValueError(f"piece shape {flat_piece.shape} != ({hi - lo},)")
        for i in self._overlapping(lo, hi):
            p, s = self.parameters[i], self.slots[i]
            a, b = max(s.offset, lo), min(s.end, hi)
            if a >= b or p.grad is None:
                continue
            target = p.grad.numpy().reshape(-1)
            target[a - s.offset : b - s.offset] = flat_piece[a - lo : b - lo].astype(
                p.grad.dtype
            )


@dataclass(frozen=True, slots=True)
class OwnerSegment:
    """One partition owner's share of a bucket or unit.

    ``pieces`` are the flat ``[lo, hi)`` ranges the owner holds of each
    parameter, in the bucket's parameter order; concatenated in that order
    they are the owner's fused buffer of ``numel`` elements. ``copies``
    has one ``(parameter, source, destination)`` per piece: the slice of
    the parameter's flat view and the slice of the fused buffer it fills.
    """

    owner: int
    pieces: tuple[tuple[int, int], ...]
    numel: int
    copies: tuple[tuple[Parameter, slice, slice], ...]


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


class SegmentPlans:
    """One rank's segment plans over an Nd-way partitioned layout.

    A plan is a pure function of the layout, the group (``ranks``, this
    rank's ``my_index`` in it), the element size and the bucket's parameter
    names — none of which change while an engine lives — so each distinct
    bucket or unit is planned once and never invalidated.
    """

    def __init__(self, layout: FlatLayout, ranks: tuple[int, ...], my_index: int, itemsize: int):
        self.layout = layout
        self.ranks = ranks
        self.my_index = my_index
        self.itemsize = itemsize
        self._plans: dict[tuple[str, ...], SegmentPlan] = {}

    def plan(self, params: Sequence[Parameter]) -> SegmentPlan:
        key = tuple([p.name for p in params])
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._build(params)
        return plan

    def _build(self, params: Sequence[Parameter]) -> SegmentPlan:
        layout, nd = self.layout, len(self.ranks)
        by_owner: dict[int, list[tuple[int, int, Parameter, int]]] = {}
        for p in params:
            slot = layout.slot(p.name)
            for owner, lo, hi in layout.owner_segments(nd, slot.offset, slot.end):
                by_owner.setdefault(owner, []).append((lo, hi, p, slot.offset))
        segments = []
        for owner, held in sorted(by_owner.items()):
            pieces, copies, cursor = [], [], 0
            for lo, hi, p, offset in held:
                pieces.append((lo, hi))
                copies.append((p, slice(lo - offset, hi - offset), slice(cursor, cursor + hi - lo)))
                cursor += hi - lo
            segments.append(OwnerSegment(owner, tuple(pieces), cursor, tuple(copies)))
        owners = [seg.owner for seg in segments]
        return SegmentPlan(
            segments=tuple(segments),
            roots=tuple(self.ranks[o] for o in owners),
            nbytes=tuple(seg.numel * self.itemsize for seg in segments),
            mine=owners.index(self.my_index) if self.my_index in owners else None,
        )
