"""Buddy-shard redundancy: rollback-free recovery for ZeRO.

ZeRO's memory win is also its availability weakness: each rank holds the
*only* copy of its optimizer-state partition, so losing one rank loses
state nobody else can reconstruct and every recovery path degenerates to
a checkpoint rollback. ZeRO++ (hpZ) showed that deliberately
re-introducing bounded redundancy is a worthwhile trade, and
ZeRO-Infinity supplies a cheap place to keep it — host DRAM, which
costs zero device memory.

This package combines the two:

- ``RedundancyConfig`` — placement policy: a full replica (K = 1) in
  the next rank's host DRAM, refreshed at every optimizer boundary.
- ``BuddyStore`` — the supervisor-owned durability model: which bytes
  survive which rank deaths. It outlives every ``Cluster`` attempt.
- ``RedundancyManager`` — the per-engine companion that snapshots the
  owned shards after each optimizer boundary and prices the refresh
  (interconnect send/recv, PCIe staging) into the comm
  ledger and telemetry tracks.
- ``resume_from_buddies`` — the training-function hook that restores a
  prepared recovery snapshot bitwise at the fault step (zero lost
  steps), in place of a checkpoint read.
"""

from repro.redundancy.config import RedundancyConfig
from repro.redundancy.manager import RedundancyManager
from repro.redundancy.recovery import resume_from_buddies
from repro.redundancy.store import BuddyStore, RecoverySnapshot, ShardSnapshot

__all__ = [
    "BuddyStore",
    "RecoverySnapshot",
    "RedundancyConfig",
    "RedundancyManager",
    "ShardSnapshot",
    "resume_from_buddies",
]
