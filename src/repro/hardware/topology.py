"""Cluster topology: global ranks laid out over multi-GPU nodes.

The paper's cluster is 25 DGX-2 nodes (400 GPUs). Rank placement matters:
model-parallel groups are placed *within* a node ("for ZeRO, the MP always
fit in a node"), while data-parallel groups span nodes. The topology answers
the one question the cost model needs: does a group of ranks stay inside a
node (NVSwitch bandwidth) or cross nodes (InfiniBand bandwidth)?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.hardware.specs import DGX2, InterconnectSpec, NodeSpec


@dataclass(frozen=True)
class ClusterTopology:
    """``n_nodes`` identical nodes; global rank r lives on node r // gpus_per_node.

    Ranks are dense: ``world_size == n_nodes * node.gpus_per_node`` unless a
    smaller ``world_size`` is given (last node partially used), mirroring the
    paper's 400-GPU cluster (25 full DGX-2 nodes).
    """

    node: NodeSpec = DGX2
    n_nodes: int = 25
    world_size: int = field(default=0)

    def __post_init__(self) -> None:
        capacity = self.n_nodes * self.node.gpus_per_node
        size = self.world_size or capacity
        if size <= 0 or size > capacity:
            raise ValueError(
                f"world_size {size} not in (0, {capacity}] for {self.n_nodes} x "
                f"{self.node.gpus_per_node}-GPU nodes"
            )
        object.__setattr__(self, "world_size", size)

    @classmethod
    def for_world_size(cls, world_size: int) -> "ClusterTopology":
        """Smallest cluster of DGX-2 servers holding ``world_size`` ranks."""
        n_nodes = -(-world_size // DGX2.gpus_per_node)  # ceil division
        return cls(node=DGX2, n_nodes=n_nodes, world_size=world_size)

    @property
    def pcie(self) -> InterconnectSpec:
        """The host link one GPU sees (offload stream / Pa+cpu traffic)."""
        return self.node.pcie

    @property
    def host_bytes_per_gpu(self) -> int:
        """Fair share of the node's DRAM per resident GPU — the budget the
        tier sweeps charge host-resident model states against."""
        return self.node.host_memory_bytes // self.node.gpus_per_node

    @property
    def nvme(self) -> InterconnectSpec:
        """Per-GPU effective link to the node's NVMe array (infinity tier)."""
        return self.node.nvme

    @property
    def nvme_bytes_per_gpu(self) -> int:
        """Fair share of the node's NVMe capacity per resident GPU."""
        return self.node.nvme_bytes // self.node.gpus_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting a global rank."""
        self._check_rank(rank)
        return rank // self.node.gpus_per_node

    def group_spans_nodes(self, ranks: Sequence[int]) -> bool:
        """True if the rank group crosses a node boundary."""
        if not ranks:
            raise ValueError("empty rank group")
        nodes = {self.node_of(r) for r in ranks}
        return len(nodes) > 1

    def link_for_group(self, ranks: Sequence[int]) -> InterconnectSpec:
        """Bottleneck interconnect for a collective over ``ranks``.

        Ring collectives are limited by the slowest link in the ring, so a
        group crossing any node boundary pays inter-node bandwidth.
        """
        if self.group_spans_nodes(ranks):
            return self.node.inter_node
        return self.node.intra_node

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")

