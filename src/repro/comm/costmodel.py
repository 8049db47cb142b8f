"""Alpha-beta time model for communication events.

Turns ledger events into seconds using ring-algorithm step counts and the
bottleneck link implied by the cluster topology: a group contained in one
node runs at NVSwitch bandwidth; a group crossing nodes runs at InfiniBand
bandwidth (the 300 -> 12.5 GB/s cliff of Section 10.2 that makes
cross-node model parallelism collapse).

Host<->device copies (Pa+cpu) go over PCIe, "whose bandwidth is severely
constrained" (Section 2.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.ledger import CommEvent
from repro.hardware.specs import PCIE_3_X16, InterconnectSpec
from repro.hardware.topology import ClusterTopology


@dataclass
class CommCostModel:
    """Maps CommEvents to seconds over a concrete topology.

    ``pcie`` defaults to the topology's node spec (hardware truth); pass a
    spec explicitly only to model a different host link.

    ``perf`` (optional) is a gray-failure view — an object with
    ``adjust_alpha_beta(rank, group_ranks, alpha, beta)``, in practice a
    ``repro.comm.faults.FaultPlan`` carrying ``degrade_link`` rules — and
    ``perf_rank`` is the rank whose clock this model prices (per-rank
    telemetry tracers each own one). With ``perf=None`` (the default,
    and what ``analysis.sim_time`` uses) pricing is the healthy-world
    alpha-beta model, unchanged.

    A group's healthy (latency_s, s/byte) is resolved from the topology
    once per ``group_ranks`` and kept in ``_links``; the gray-failure
    adjustment is applied on every event, since it depends on the step.
    """

    topology: ClusterTopology
    pcie: InterconnectSpec | None = None
    perf: object | None = None
    perf_rank: int | None = None
    _links: dict[tuple[int, ...], tuple[float, float]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def pcie_link(self) -> InterconnectSpec:
        return self.pcie if self.pcie is not None else self.topology.node.pcie

    def _alpha_beta(self, event: CommEvent) -> tuple[float, float]:
        """(latency_s, s/byte) of the group's bottleneck link, with any
        active gray-failure degradations applied."""
        ab = self._links.get(event.group_ranks)
        if ab is None:
            link = self.topology.link_for_group(event.group_ranks)
            ab = self._links[event.group_ranks] = (
                link.latency_s, 1.0 / link.bandwidth_bytes_per_s
            )
        alpha, beta = ab
        if self.perf is not None:
            alpha, beta = self.perf.adjust_alpha_beta(
                self.perf_rank, event.group_ranks, alpha, beta
            )
        return alpha, beta

    def event_time(self, event: CommEvent) -> float:
        if event.op in ("h2d", "d2h"):
            link = self.pcie_link
            return link.latency_s + event.message_bytes / link.bandwidth_bytes_per_s
        if event.op == "barrier":
            alpha, _ = self._alpha_beta(event)
            return alpha * max(event.group_size - 1, 0)
        n = event.group_size
        if n <= 1:
            return 0.0
        alpha, beta = self._alpha_beta(event)
        bytes_ = event.message_bytes
        ring = (n - 1) / n
        if event.op == "all_reduce":
            return 2 * (n - 1) * alpha + 2 * ring * bytes_ * beta
        if event.op in ("reduce_scatter", "all_gather", "reduce"):
            return (n - 1) * alpha + ring * bytes_ * beta
        if event.op == "broadcast":
            # Pipelined ring broadcast: ~1x message over the bottleneck link.
            return (n - 1) * alpha + bytes_ * beta
        if event.op in ("send", "recv"):
            return alpha + bytes_ * beta
        raise ValueError(f"unknown op {event.op!r}")
