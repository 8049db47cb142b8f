"""Closed-form communication-volume model (paper Sections 7 and 8).

Volumes are *nominal per-rank* element counts, the accounting the paper
uses (a Psi-element reduce-scatter or all-gather moves Psi elements per
rank; an all-reduce moves 2 Psi). Each volume is derived from the resolved
rows of ``repro.zero.placement`` — what is sent follows from what is
partitioned and where it lives — and stated here only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.zero.placement import Mesh, Placed, state_placement


def dp_volume_elements(psi: float, placement: dict[str, Placed] | int) -> float:
    """ZeRO-DP per-rank volume per step, in parameter elements (Section 7).

    ``placement`` is a resolved placement, or a ZeRO stage standing for its
    all-device one.

    Replicated optimizer: one gradient all-reduce = 2 Psi.
    Partitioned optimizer: gradients reduced to their owners (Psi), then
      replicated parameters — one boundary all-gather (Psi): 2 Psi in all;
      partitioned parameters — the per-unit forward and backward gathers
      (2 Psi): 3 Psi in all, the 1.5x of Section 7.2.2.
    """
    if isinstance(placement, int):
        placement = state_placement(placement)
    if not placement["optimizer"].partitioned:
        return 2.0 * psi
    gathers = 2.0 if placement["param"].partitioned else 1.0
    return (1.0 + gathers) * psi


@dataclass(frozen=True)
class MPCommModel:
    """Megatron-style MP communication per transformer block (Section 8)."""

    batch: int
    seq_len: int
    hidden: int

    @property
    def message_elements(self) -> float:
        return float(self.batch) * self.seq_len * self.hidden

    def baseline_elements_per_block(self, *, checkpointing: bool = True) -> float:
        """Two all-reduces in forward, two in backward, two more for the
        checkpoint recomputation; an all-reduce moves 2x its message:
        total 12 x batch x seq x hidden (Section 8)."""
        passes = 3 if checkpointing else 2  # fwd (+recompute) + bwd
        return passes * 2 * 2 * self.message_elements

    def gather_elements_per_block(self, placement: dict[str, Placed]) -> float:
        """A partitioned activation row (Pa) adds one all-gather of the
        block's input checkpoint before recomputation: batch x seq x hidden
        — <10% of baseline MP volume."""
        return self.message_elements if placement["activation"].partitioned else 0.0

    def pa_overhead_fraction(self) -> float:
        return self.message_elements / self.baseline_elements_per_block()

    def pcie_elements_per_block(self, placement: dict[str, Placed], mesh: Mesh) -> float:
        """An off-device activation row (Pa+cpu) moves each rank's 1/Nm
        checkpoint shard to the CPU and back: 2x the shard per block
        (Section 8's '2x added data movement')."""
        if placement["activation"].tier == "device":
            return 0.0
        return mesh.divide(2.0 * self.message_elements, ("mp",))
