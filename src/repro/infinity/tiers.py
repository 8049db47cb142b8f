"""Tier hierarchy: device HBM -> host DRAM -> NVMe, with per-link streams.

ZeRO-Infinity's central abstraction is a *memory hierarchy*: each rung has
a capacity and is reached over a full-duplex link with alpha-beta cost.
The capacities and links are ``repro.hardware`` truth (``ClusterTopology``'s
``pcie`` / ``nvme`` links and per-GPU shares); ``TierStream`` is the
per-link transfer scheduler.

``TierStream`` models one link as two independent lanes (full duplex: one
away from the device, one toward it — traffic in opposite directions does
not contend), each serializing its transfers under ``start = max(submit,
lane_free)`` and ``done = start + alpha + bytes/beta`` on a within-step
clock (t = 0 at forward begin). The PCIe stream and the NVMe stream are
the same class with different lane labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.ledger import CommLedger
from repro.hardware.specs import InterconnectSpec

#: canonical tier names, ordered from fastest to coldest.
TIER_NAMES = ("device", "host", "nvme")


def wire_seconds(link: InterconnectSpec, nbytes: int | float) -> float:
    """Alpha-beta wire time of one transfer on ``link`` (0 for 0 bytes):
    the form ``TierStream`` books each copy with."""
    if nbytes <= 0:
        return 0.0
    return link.latency_s + nbytes / link.bandwidth_bytes_per_s


@dataclass
class TransferHandle:
    """One async copy: submitted, scheduled onto a lane, completed at ``done_t``."""

    direction: str
    nbytes: int
    submit_t: float
    start_t: float
    done_t: float
    phase: str = ""
    synchronized: bool = False

    @property
    def wire_s(self) -> float:
        """Seconds the copy occupies the lane (latency + serialization)."""
        return self.done_t - self.start_t


class TierStream:
    """Full-duplex lane pair for one tier link, with async handle semantics.

    Callers pick the two lane labels: ``schedule.PCIE_LANES`` (``("d2h",
    "h2d")``) for the host link, ``schedule.NVME_LANES`` (``("nvme-out",
    "nvme-in")``) for the drive array. Every copy lands in the rank's
    CommLedger under its lane label so volume accounting sees tier traffic
    exactly like collective traffic.
    """

    def __init__(
        self,
        link: InterconnectSpec,
        *,
        directions: tuple[str, str],
        ledger: CommLedger | None = None,
        rank: int = 0,
    ):
        self.link = link
        self.ledger = ledger
        self.rank = rank
        self.directions = directions
        self._lane_free = {d: 0.0 for d in self.directions}
        self.handles: list[TransferHandle] = []

    def reset(self) -> None:
        """Start a fresh step timeline (t = 0 at forward begin)."""
        self._lane_free = {d: 0.0 for d in self.directions}
        self.handles.clear()

    def copy_async(
        self, nbytes: int, direction: str, *, submit_t: float = 0.0, phase: str = ""
    ) -> TransferHandle:
        """Enqueue a copy; returns immediately with its scheduled times."""
        if direction not in self.directions:
            raise ValueError(
                f"direction must be one of {self.directions}, got {direction!r}"
            )
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        start = max(float(submit_t), self._lane_free[direction])
        done = start + self.link.latency_s + nbytes / self.link.bandwidth_bytes_per_s
        self._lane_free[direction] = done
        if self.ledger is not None and nbytes > 0:
            self.ledger.record(direction, nbytes, (self.rank,), phase)
        handle = TransferHandle(
            direction=direction, nbytes=int(nbytes),
            submit_t=float(submit_t), start_t=start, done_t=done, phase=phase,
        )
        self.handles.append(handle)
        return handle

    def lane_busy_s(self, direction: str) -> float:
        """Total seconds this step's transfers occupy one lane."""
        return sum(h.wire_s for h in self.handles if h.direction == direction)
