"""Virtual process groups: one simulated rank of an arbitrarily large group.

Memory measurements only need ONE rank's allocator trace: partition sizes
depend on the group *size*, not on peers actually existing. A
``VirtualGroup`` reports any size/topology, records communication volume,
and supports only the meta-mode entry points (``meta_collective`` and a
data-free ``coalesced`` batch; real data collectives raise). This is how
the Table 2 "measured" column and the Figure 6/7 experiments simulate a
rank of a 400-GPU job in one thread.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.comm.ledger import CommLedger
from repro.utils.doors import RankDoors


class VirtualGroup(RankDoors):
    """ProcessGroup look-alike for single-rank meta-mode simulation, its
    collectives doors as ``ProcessGroup``'s are."""

    POINTS = ("_collective",)

    def __init__(self, ranks: Sequence[int], member_rank: int):
        self.ranks = tuple(sorted(ranks))
        if member_rank not in self.ranks:
            raise ValueError(f"member rank {member_rank} not in group {self.ranks}")
        self.member_rank = member_rank
        self._ledgers: dict[int, CommLedger] = {}

    @classmethod
    def of_size(cls, size: int, member_rank: int = 0) -> "VirtualGroup":
        return cls(tuple(range(size)), member_rank)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def group_index(self, rank: int) -> int:
        try:
            return self.ranks.index(rank)
        except ValueError:
            raise ValueError(f"rank {rank} is not in group {self.ranks}") from None

    def attach_ledger(self, rank: int, ledger: CommLedger) -> None:
        self._ledgers[rank] = ledger

    def meta_collective(self, rank: int, op: str, message_bytes: int, phase: str = "") -> None:
        ledger = self._ledgers.get(rank)
        if ledger is not None:
            ledger.record(op, int(message_bytes), self.ranks, phase)
        if self.on_collective:
            self._tell("_collective", rank, op, int(message_bytes), phase, True)

    def coalesced(
        self, rank: int, op: str, roots: Sequence[int], arrays=None,
        nbytes: Sequence[int] = (), phase: str = "",
    ) -> None:
        """``ProcessGroup.coalesced`` without peers: a data-free batch
        records its K events; one with arrays raises like every data
        collective here."""
        if arrays is not None:
            self._no_data()
        ledger = self._ledgers.get(rank)
        if ledger is not None:
            for n in nbytes:
                ledger.record(op, n, self.ranks, phase)
        if self.on_collective:
            self._tell("_collective", rank, op, None, phase, False)

    def barrier(self, rank: int) -> None:
        if self.on_collective:
            self._tell("_collective", rank, "barrier", 0, "", False)

    def _no_data(self, *_args, **_kwargs):
        raise RuntimeError(
            "VirtualGroup has no peers: only meta-mode (data-free) execution "
            "is supported. Use a real Cluster/ProcessGroup for numerics."
        )

    # Real-data collectives are unavailable by construction.
    all_reduce = _no_data
    reduce = _no_data
    reduce_scatter = _no_data
    all_gather = _no_data
    broadcast = _no_data
    send = _no_data
    recv = _no_data
