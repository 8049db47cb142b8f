"""The placement table: which model-state classes a ZeRO stage partitions,
and the tier each one lives on.

A data-parallel strategy is a choice per state class — replicated or
sharded across the DP group, on the device or on a lower tier — and memory
follows from the choice by rule (*Placement Semantics*, arXiv:2601.02311).
The paper defines ZeRO-DP cumulatively over three classes (Section 5: Pos,
Pos+g, Pos+g+p); ZeRO-Offload and ZeRO-Infinity add one tier per class.
``STATE_CLASSES`` is that table. The partitioned engine, the closed-form
memory model and the config validation all read it through
``state_placement``; nothing else decides what is sharded or where.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.optim.mixed_precision import ADAM_K


class StateClass(NamedTuple):
    name: str  # a tier config names its tier ``<name>_tier``
    bytes_per_param: int  # mixed-precision Adam, Section 3.1
    partitioned_from: int  # first ZeRO stage that shards it 1/Nd per rank


STATE_CLASSES = (
    StateClass("optimizer", ADAM_K, 1),  # fp32 master + momentum + variance: Pos
    StateClass("grad", 2, 2),  # fp16 gradients: Pos+g
    StateClass("param", 2, 3),  # fp16 parameters: Pos+g+p
)


class Placed(NamedTuple):
    partitioned: bool  # a 1/Nd shard per rank; otherwise a full replica
    tier: str  # "device" | "host" | "nvme"


def state_placement(stage: int, tiers=None) -> dict[str, Placed]:
    """``(partitioned, tier)`` per state class under ZeRO ``stage``.

    ``tiers`` is anything with ``optimizer_tier`` / ``grad_tier`` /
    ``param_tier`` (``OffloadConfig``, ``InfinityConfig``); None keeps
    every class on the device. A class may leave the device only if it is
    partitioned: the host-side Adam and the tier streams move this rank's
    ``part_numel`` range, and off-device parameters are paged in per unit
    gather — a replica is consumed whole, in place, by every rank.
    """
    if stage not in (0, 1, 2, 3):
        raise ValueError(f"ZeRO stage must be 0-3, got {stage}")
    placed = {}
    for row in STATE_CLASSES:
        tier = "device" if tiers is None else getattr(tiers, f"{row.name}_tier")
        partitioned = stage >= row.partitioned_from
        if tier != "device" and not partitioned:
            raise ValueError(
                f"ZeRO stage {stage} does not support offloading the {row.name} state: "
                f"off-device {row.name} requires a partitioned {row.name} "
                f"(stage >= {row.partitioned_from})"
            )
        placed[row.name] = Placed(partitioned, tier)
    return placed
