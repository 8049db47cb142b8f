"""RedundancyManager: per-engine buddy-refresh companion.

Built with the engine's step lifecycle (at its first ``train_step``) when
the rank context carries a ``BuddyStore`` (threaded from the Supervisor
through the Cluster). At every closed boundary it copies the engine's
owned-state record (``repro.zero.owned.capture`` — the integrity set plus
the DPU stale-parameter carry) into the store, and prices what that refresh
costs on this rank's modeled hardware:

- ``send``/``recv`` on the comm ledger for the interconnect hop to the
  buddy (phase ``buddy-replicate``), priced by the alpha-beta cost model
  through the ledger->tracer bridge like any collective;
- a ``d2h`` staging copy over the PCIe ``TierStream`` for the device-
  resident fraction of the shards (host-resident Adam state under
  ZeRO-Offload/Infinity skips it);
- a ``buddy-replicate`` span on the serialized clock plus explicit-
  interval lane spans on the ``redundancy`` track, so Perfscope can
  attribute replication stalls exactly like offload traffic.

The refresh itself is asynchronous in the modeled timeline (lane spans
overlap the next step's compute); the serialized clock charges the
submission cost the same way the offload runtime does. Bytes parked on
the buddy are accounted against its host pool so tier capacity stays
honest.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.infinity.tiers import TierStream, wire_seconds
from repro.integrity.digest import fast_digest_array
from repro.redundancy.config import KEEP
from repro.redundancy.store import BuddyStore, ShardSnapshot
from repro.tensor.tensor import Tensor
from repro.zero.owned import ADAM_KEYS, capture


class RedundancyManager:
    """One rank's view of the buddy-redundancy machinery."""

    def __init__(self, engine, store: BuddyStore):
        # The engine owns its manager; a strong back-pointer would make a
        # cycle that keeps a dead incarnation's state alive until a gc pass.
        self.engine = weakref.proxy(engine)
        self.store = store
        self.config = store.config
        ctx = engine.ctx
        self.ctx = ctx
        world = engine.dp_group.size
        self.world = world
        self.owner = engine.dp_group.group_index(ctx.rank)
        cfg = self.config
        self.dst = cfg.replica_holder(self.owner, world)
        # Ranks whose replicas land on *this* rank's tier.
        self.incoming = tuple(
            r for r in range(world)
            if r != self.owner and cfg.replica_holder(r, world) == self.owner
        )
        self.pcie = TierStream(
            ctx.topology.pcie, ledger=ctx.ledger, rank=ctx.rank,
            directions=("d2h", "h2d"),
        )
        self.refreshes = 0
        self.bytes_published = 0
        #: serialized seconds this rank's clock spent on refreshes (what
        #: the ``buddy-replicate`` spans sum to) — analytic, so benchmarks
        #: report it with or without telemetry attached.
        self.replication_s = 0.0
        self._resident: Tensor | None = None

    # -- the boundary hook ---------------------------------------------------

    def on_boundary(self, applied: bool) -> None:
        """Refresh this rank's snapshot after an optimizer boundary."""
        eng = self.engine
        snap = capture(eng)
        # The record's arrays are live views; a snapshot holds copies.
        snap.shards = {
            key: np.array(arr, dtype=arr.dtype, copy=True)
            for key, arr in snap.shards.items()
        }
        snap.digests = {key: fast_digest_array(arr) for key, arr in snap.shards.items()}
        if eng.integrity is not None:
            # The auditor fingerprinted the same shards moments ago
            # (after_optimizer): a replica leaving this rank must match
            # the digests the recovery path will verify against.
            eng.integrity.matches_recorded(snap.digests)
        self.store.publish(snap)
        self.refreshes += 1
        self._account(snap, applied=applied)

    # -- cost modeling -------------------------------------------------------

    def _host_resident_bytes(self, snap: ShardSnapshot) -> int:
        """Bytes that skip the PCIe staging copy on their way to the NIC:
        the fp32 Adam vectors, when they already live host-side."""
        if self.engine.placement["optimizer"].tier == "device":
            return 0
        return sum(snap.shards[key].nbytes for key in ADAM_KEYS)

    def _account(self, snap: ShardSnapshot, *, applied: bool) -> None:
        ctx = self.ctx
        tr = self.engine.tracer
        out_bytes, step = snap.nbytes, snap.step
        self.bytes_published += out_bytes
        in_bytes = len(self.incoming) * out_bytes
        d2h_bytes = out_bytes - self._host_resident_bytes(snap)
        t0 = tr.clock_s if tr is not None else 0.0
        if tr is not None:
            tr.begin(
                "buddy-replicate", step=step, applied=applied,
                bytes_out=out_bytes, bytes_in=in_bytes,
            )
        handles = []
        self.pcie.reset()
        if d2h_bytes:
            handles.append(self.pcie.copy_async(
                d2h_bytes, "d2h", submit_t=0.0, phase="buddy-replicate"
            ))
        if self.dst is not None and out_bytes:
            ctx.ledger.record(
                "send", out_bytes, (ctx.rank, self._world_rank(self.dst)),
                phase="buddy-replicate",
                peer=(ctx.rank, self._world_rank(self.dst)),
            )
        for src in self.incoming:
            ctx.ledger.record(
                "recv", out_bytes, (self._world_rank(src), ctx.rank),
                phase="buddy-replicate",
                peer=(self._world_rank(src), ctx.rank),
            )
        if tr is not None:
            tr.end()  # buddy-replicate
            for h in handles:
                tr.add_span(
                    h.direction, t0 + h.start_t, h.wire_s,
                    track="redundancy", bytes=h.nbytes, phase="buddy-replicate",
                )
        self.replication_s += self._analytic_seconds(
            out_bytes, in_bytes, d2h_bytes
        )
        self._account_residency(out_bytes, in_bytes)
        rec = ctx.recorder
        if rec is not None:
            rec.record(
                "buddy-refresh", rank=ctx.rank, step=step, t_s=self.engine.clock_s,
                bytes_out=out_bytes, bytes_in=in_bytes,
            )

    def _world_rank(self, dp_index: int) -> int:
        return self.engine.dp_group.ranks[dp_index]

    def _analytic_seconds(
        self, out_bytes: int, in_bytes: int, d2h_bytes: int
    ) -> float:
        """Closed-form serialized cost of one refresh on this rank's clock
        (matches what the ledger->tracer bridge prices, by construction:
        the same alpha-beta forms over the same links)."""
        total = 0.0
        if d2h_bytes:
            total += wire_seconds(self.pcie.link, d2h_bytes)
        topo = self.ctx.topology
        if self.dst is not None and out_bytes:
            link = topo.link_for_group(
                (self.ctx.rank, self._world_rank(self.dst))
            )
            total += wire_seconds(link, out_bytes)
        for src in self.incoming:
            link = topo.link_for_group((self._world_rank(src), self.ctx.rank))
            total += wire_seconds(link, out_bytes)
        return total

    def _account_residency(self, out_bytes: int, in_bytes: int) -> None:
        """Park the steady-state replica bytes against the landing pools
        once (history depth x own and incoming bytes on the host tier)."""
        if self._resident is not None:
            return
        nbytes = KEEP * (out_bytes + in_bytes)
        if nbytes <= 0:
            return
        self._resident = Tensor(
            (nbytes,), np.dtype(np.uint8), device=self.ctx.host, tag="redundancy-replica"
        )
