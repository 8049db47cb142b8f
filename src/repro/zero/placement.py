"""The placement table: the paper's four memory consumers, what shards each
one over which mesh axes, and the tier it lives on.

A training strategy is a choice per state class — replicated or sharded
across a process group, on the device or on a lower tier — and both memory
and communication volume follow from the choice by rule (*Placement
Semantics*, arXiv:2601.02311). The paper shards the three model states
cumulatively over the DP group (Section 5: Pos, Pos+g, Pos+g+p) and the
checkpointed activations over the MP group on request (Section 6.1: Pa,
Pa+cpu); ZeRO-Offload and ZeRO-Infinity add one tier per class.
``STATE_CLASSES`` is that table and ``state_placement`` resolves it. The
partitioned engine, the activation stores, the factory, the config
validation and every closed form in ``repro.analysis`` read the resolved
rows; nothing else decides what is sharded, where it lives or what is sent.

``Mesh`` sizes the axes the rows name. Model parallelism splits every
per-Psi row (Table 2: Psi / Nm; a pipeline stage holds 1/Np of the
layers), ZeRO-DP splits a partitioned row over ``dp`` (Table 1), and Pa
splits the checkpoints over ``mp``. ``Mesh.divide`` is the one place a
parallel degree divides a byte or element count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.optim.mixed_precision import ADAM_K


class StateClass(NamedTuple):
    name: str  # a tier config names its tier ``<name>_tier``
    bytes_per_param: int | None  # mixed-precision Adam, Section 3.1; None: not per-Psi
    partitioned_from: int | None  # first ZeRO stage that shards it; None: on request
    split: tuple[str, ...]  # mesh axes every rank's copy is already split over
    group: str  # the mesh axis a partitioned shard is further 1/N of


#: Megatron's tensor split, then the pipeline's layer split: every per-Psi
#: row is divided by both before ZeRO-DP partitions it.
MODEL_AXES = ("mp", "pp")

STATE_CLASSES = (
    StateClass("optimizer", ADAM_K, 1, MODEL_AXES, "dp"),  # fp32 master + momentum + variance: Pos
    StateClass("grad", 2, 2, MODEL_AXES, "dp"),  # fp16 gradients: Pos+g
    StateClass("param", 2, 3, MODEL_AXES, "dp"),  # fp16 parameters: Pos+g+p
    # Activation checkpoints, sized by ``ActivationModel``: a pipeline stage
    # holds its own layers' only, Pa shards them 1/Nm at any stage, Pa+cpu
    # parks the shard on the host.
    StateClass("activation", None, None, ("pp",), "mp"),
)


@dataclass(frozen=True)
class Mesh:
    """The parallel degrees of a job: ``dp`` x ``mp`` x ``pp`` ranks.

    Ranks are laid out Megatron-style, pipeline stage outermost:
    ``rank = (stage * dp + dp_index) * mp + mp_index``. MP partners are
    consecutive ranks (a group of at most a node's GPUs stays on its
    NVSwitch); DP partners are the ranks ``mp`` apart within a stage.
    """

    dp: int = 1
    mp: int = 1
    pp: int = 1

    def __post_init__(self) -> None:
        for axis in ("dp", "mp", "pp"):
            if getattr(self, axis) < 1:
                raise ValueError(f"mesh axis {axis} must be >= 1, got {getattr(self, axis)}")

    @classmethod
    def of_world(cls, n_gpus: int, mp: int = 1) -> Mesh:
        """The mesh of ``n_gpus`` ranks cut into ``mp``-wide model slices."""
        slices = cls(mp=mp)
        if n_gpus % mp:
            raise ValueError(f"n_gpus {n_gpus} not divisible by mp {mp}")
        return replace(slices, dp=n_gpus // mp)

    @property
    def world(self) -> int:
        return self.dp * self.mp * self.pp

    def divide(self, x: float, axes: tuple[str, ...]) -> float:
        """``x`` split over each of ``axes`` in turn."""
        for axis in axes:
            x /= getattr(self, axis)
        return x

    def mp_group(self, rank: int) -> range:
        """``rank``'s model-parallel partners: ``mp`` consecutive ranks."""
        start = rank - rank % self.mp
        return range(start, start + self.mp)

    def dp_group(self, rank: int) -> range:
        """``rank``'s data-parallel partners: its stage's ranks with its MP index."""
        stage = self.dp * self.mp
        start = rank - rank % stage + rank % self.mp
        return range(start, start + stage, self.mp)

    def pp_group(self, rank: int) -> range:
        """``rank``'s pipeline partners, one per stage in stage order: the
        ranks with its DP and MP index."""
        stage = self.dp * self.mp
        return range(rank % stage, self.world, stage)


class Placed(NamedTuple):
    partitioned: bool  # a 1/N shard per rank of the row's group; otherwise a full replica
    tier: str  # "device" | "host" | "nvme"


def state_placement(
    stage: int, tiers=None, activation: Placed = Placed(False, "device")
) -> dict[str, Placed]:
    """``(partitioned, tier)`` per state class: the resolved placement.

    ``tiers`` is anything with ``optimizer_tier`` / ``grad_tier`` /
    ``param_tier`` (an ``InfinityConfig``); None keeps
    every model state on the device. ``activation`` is the fourth row as
    asked for (no stage implies it). A class may leave the device only if
    it is partitioned: the host-side Adam and the tier streams move this
    rank's ``part_numel`` range, off-device parameters are paged in per
    unit gather, and Pa+cpu offloads the 1/Nm checkpoint shard — a replica
    is consumed whole, in place, by every rank.
    """
    if stage not in (0, 1, 2, 3):
        raise ValueError(f"ZeRO stage must be 0-3, got {stage}")
    placed = {}
    for row in STATE_CLASSES:
        if row.partitioned_from is None:
            partitioned, tier = activation
            asked, needs = "checkpointing without Pa", "Pa"
        else:
            partitioned = stage >= row.partitioned_from
            tier = "device" if tiers is None else getattr(tiers, f"{row.name}_tier")
            asked, needs = f"ZeRO stage {stage}", f"stage >= {row.partitioned_from}"
        if tier != "device" and not partitioned:
            raise ValueError(
                f"{asked} does not support offloading the {row.name} state: "
                f"off-device {row.name} requires a partitioned {row.name} ({needs})"
            )
        placed[row.name] = Placed(partitioned, tier)
    return placed
