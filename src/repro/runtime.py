"""SPMD launcher: run the same function on N simulated ranks (threads).

Each rank gets a ``RankContext`` carrying its global rank, the world
process group, its simulated Device (own allocator), the shared host pool,
and its communication ledger. Exceptions on any rank abort the fabric so
peers fail fast, and the first exception is re-raised in the caller.

Usage::

    cluster = Cluster(world_size=4)

    def train(ctx):
        grads = ...  # per-rank work
        return ctx.world.all_reduce(ctx.rank, grads, op="avg")

    results = cluster.run(train)   # list of 4 per-rank return values

Ranks of a meta world that build the same engine over the world group
run the same step, so a ``Cluster`` groups them into *rank classes*
(``RankContext.rank_class``): each engine registers what its step
depends on, and once every rank has registered its engine the ranks with
equal keys form a class. Its lowest rank, the leader, runs each step and
publishes a record of it on the class's board (``repro.comm.fabric``);
every other member makes that same step from the record in one
``Device.apply``, its ledger events and its rendezvous tags, and runs the
step itself wherever that would not be bitwise (ARCHITECTURE §1, "Meta
worlds"). The threads stay: each rank still runs its program on its own.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.comm.fabric import Fabric, FabricAbortedError
from repro.comm.faults import FaultPlan, RetryPolicy
from repro.comm.group import ProcessGroup
from repro.comm.ledger import CommLedger
from repro.comm.virtual import VirtualGroup
from repro.hardware.specs import GPUSpec, V100_32GB
from repro.hardware.topology import ClusterTopology
from repro.memsim.device import Device, HostMemory


@dataclass
class RankContext:
    """Everything one simulated rank needs."""

    rank: int
    world_size: int
    world: ProcessGroup | VirtualGroup
    device: Device
    host: HostMemory
    #: node NVMe pool (ZeRO-Infinity third tier) — a ``HostMemory`` counter
    #: named "nvme"; shared per node like ``host``. Holds zero bytes unless
    #: an infinity placement parks state there.
    nvme: HostMemory
    ledger: CommLedger
    topology: ClusterTopology
    fabric: Fabric
    #: per-rank telemetry tracer (``repro.telemetry.Tracer``) — None unless
    #: a ``TelemetrySession`` is attached; engines must treat None as
    #: "telemetry disabled" and record nothing.
    tracer: Any = None
    #: buddy-shard redundancy store (``repro.redundancy.BuddyStore``) —
    #: None unless the Supervisor (or caller) enabled redundancy; engines
    #: treat None as "redundancy disabled" and allocate/record nothing.
    redundancy: Any = None
    #: Mission Control flight recorder (``repro.obs.RunLedger``) — None
    #: unless the Supervisor (or caller) enabled recording; instrumented
    #: layers treat None as "recording disabled" and append nothing.
    recorder: Any = None
    #: the ``FaultPlan`` subscribed to this rank's groups — None without
    #: one; the step lifecycle and ``save_checkpoint`` tell it too.
    faults: Any = None
    #: builds the group over a sorted rank tuple: ``Cluster._shared_group``
    #: (one ``ProcessGroup`` shared by all member threads) or, on a
    #: ``virtual_rank_context``, a peerless ``VirtualGroup``. Required.
    _new_group: Callable[[tuple[int, ...]], ProcessGroup | VirtualGroup] = field(kw_only=True)
    _groups: dict[tuple[int, ...], ProcessGroup | VirtualGroup] = field(default_factory=dict)
    #: the cluster's rank classes; None on a virtual context, whose one
    #: rank replays no peer's step
    _classes: _RankClasses | None = field(default=None, kw_only=True)

    def group(self, ranks: Sequence[int]) -> ProcessGroup | VirtualGroup:
        """The process group over ``ranks``, this rank's ledger attached.

        On a cluster the group object is shared with the other member
        threads; on a virtual context it is a ``VirtualGroup`` whose only
        member is this rank. Cached per context.
        """
        key = tuple(sorted(ranks))
        pg = self._groups.get(key)
        if pg is None:
            pg = self._groups[key] = self._new_group(key)
            pg.attach_ledger(self.rank, self.ledger)
        return pg

    def rank_class(self, key: Any) -> _Seat | None:
        """Register an engine whose step depends on ``key`` (None: on
        nothing a peer can vouch for) and return its seat in its rank
        class, or None where this context has no classes. Every engine a
        rank builds registers, in build order, so each rank's n-th engine
        is classed with its peers' n-th."""
        return None if self._classes is None else self._classes.join(self.rank, key)

    # Convenience pass-throughs for the world group.
    def barrier(self) -> None:
        self.world.barrier(self.rank)


class _Seat:
    """One engine's place in its rank class. ``board`` is None until every
    rank has registered its engine, and stays None for a rank alone in its
    class; ``leads`` marks the class's lowest rank, and ``member`` numbers
    the others."""

    __slots__ = ("board", "leads", "member")

    def __init__(self):
        self.leads = False
        self.member = 0
        self.board = None


class _RankClasses:
    """A cluster's engines by rank and build order, classed by key."""

    def __init__(self, fabric: Fabric, world_size: int):
        self._fabric = fabric
        self._joined: list[list[tuple[Any, _Seat]]] = [[] for _ in range(world_size)]
        self._lock = threading.Lock()

    def join(self, rank: int, key: Any) -> _Seat:
        seat = _Seat()
        with self._lock:
            joined = self._joined[rank]
            n = len(joined)
            joined.append((key, seat))
            if all(len(j) > n for j in self._joined):
                self._fix([j[n] for j in self._joined])
        return seat

    def _fix(self, row: list[tuple[Any, _Seat]]) -> None:
        """Class one build-order position of every rank: equal keys (never
        None) form a class; one of two or more ranks gets a board."""
        left = list(range(len(row)))
        while left:
            key, seat = row[left[0]]
            members = [r for r in left[1:] if key is not None and row[r][0] == key]
            classed = set(members)
            left = [r for r in left[1:] if r not in classed]
            if members:
                board = self._fabric.board(len(members))
                for i, r in enumerate(members):
                    row[r][1].member = i
                    row[r][1].board = board
                seat.leads = True
                seat.board = board


def virtual_rank_context(
    world_size: int,
    *,
    rank: int = 0,
    gpu: GPUSpec = V100_32GB,
) -> RankContext:
    """One simulated rank of an arbitrarily large world, no peer threads.

    Pairs with ``repro.comm.virtual.VirtualGroup``: meta-mode engines on
    this context execute every allocation and record every communication
    volume exactly as rank ``rank`` of a ``world_size``-GPU job would —
    the single-thread path behind the Table 2 / Figure 6 / Figure 7
    memory measurements.
    """
    world = VirtualGroup.of_size(world_size, member_rank=rank)
    ledger = CommLedger(rank=rank)
    world.attach_ledger(rank, ledger)
    fabric = Fabric(1)
    topo = ClusterTopology.for_world_size(world_size)
    return RankContext(
        rank=rank,
        world_size=world_size,
        world=world,
        device=Device(gpu, index=rank),
        host=HostMemory(topo.node.host_memory_bytes),
        ledger=ledger,
        topology=topo,
        fabric=fabric,
        nvme=HostMemory(topo.node.nvme_bytes, name="nvme"),
        _new_group=lambda ranks: VirtualGroup(ranks, member_rank=rank),
    )


class Cluster:
    """A world of simulated GPUs; ``run`` executes an SPMD function on all."""

    def __init__(
        self,
        world_size: int,
        *,
        gpu: GPUSpec = V100_32GB,
        topology: ClusterTopology | None = None,
        timeout_s: float = 120.0,
        host: HostMemory | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        telemetry=None,
        redundancy=None,
        recorder=None,
    ):
        self.world_size = world_size
        #: optional ``repro.redundancy.BuddyStore`` threaded into every
        #: rank context (the Supervisor owns it across attempts).
        self.redundancy = redundancy
        #: optional ``repro.obs.RunLedger`` threaded into every rank
        #: context (the Supervisor owns it across attempts).
        self.recorder = recorder
        #: optional ``repro.telemetry.TelemetrySession``; when None the
        #: cluster allocates no telemetry objects at all.
        self.telemetry = telemetry
        if telemetry is not None:
            health = getattr(telemetry, "health", None)
            if health is not None:
                # A fresh cluster is a fresh detection window: Supervisor
                # relaunches renumber survivors and shrink the world, so
                # stale per-rank history must not carry over.
                health.bind_world(world_size)
        self.topology = topology or ClusterTopology.for_world_size(world_size)
        if self.topology.world_size != world_size:
            raise ValueError(
                f"topology world_size {self.topology.world_size} != cluster {world_size}"
            )
        self.fabric = Fabric(world_size, timeout_s=timeout_s, retry_policy=retry_policy)
        #: subscribed, per member rank, to every group this cluster makes
        self.fault_plan = fault_plan
        #: process groups by sorted rank tuple, shared by all rank threads
        #: (beside the fabric's rendezvous cache, which they resolve into).
        self._groups: dict[tuple[int, ...], ProcessGroup] = {}
        self._groups_lock = threading.Lock()
        self.devices = [Device(gpu, index=i) for i in range(world_size)]
        # One shared host pool per cluster, sized to a single node's DRAM
        # (the simulated worlds here fit one node's worth of ranks).
        self.host = host or HostMemory(self.topology.node.host_memory_bytes)
        # One shared NVMe pool per cluster (the node's drive array); a bare
        # byte counter until an infinity placement parks state on it.
        self.nvme = HostMemory(self.topology.node.nvme_bytes, name="nvme")
        self.ledgers = [CommLedger(rank=i) for i in range(world_size)]
        self._world_group = self._shared_group(tuple(range(world_size)))
        self._classes = _RankClasses(self.fabric, world_size)

    def _shared_group(self, ranks: tuple[int, ...]) -> ProcessGroup:
        with self._groups_lock:
            pg = self._groups.get(ranks)
            if pg is None:
                pg = self._groups[ranks] = ProcessGroup(self.fabric, ranks)
                if self.fault_plan is not None:
                    for rank in ranks:
                        pg.subscribe(self.fault_plan, rank)
            return pg

    def context(self, rank: int) -> RankContext:
        """Build rank ``rank``'s context (exposed for single-rank tests)."""
        self._world_group.attach_ledger(rank, self.ledgers[rank])
        tracer = None
        if self.telemetry is not None:
            tracer = self.telemetry.tracer_for(
                rank, topology=self.topology, gpu=self.devices[rank].spec,
                fault_plan=self.fault_plan,
            )
            self.ledgers[rank].listener = tracer
        return RankContext(
            rank=rank,
            world_size=self.world_size,
            world=self._world_group,
            device=self.devices[rank],
            host=self.host,
            ledger=self.ledgers[rank],
            topology=self.topology,
            fabric=self.fabric,
            tracer=tracer,
            nvme=self.nvme,
            redundancy=self.redundancy,
            recorder=self.recorder,
            faults=self.fault_plan,
            _new_group=self._shared_group,
            _classes=self._classes,
        )

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` on every rank; return per-rank results.

        The first rank exception (by rank order) is re-raised after all
        threads stop; sibling ranks blocked in collectives are released by
        aborting the fabric. When every rank returned, a rank that issued
        fewer collectives than its peers on some rank set (which a
        data-free collective does not wait to find), or one that left a
        message sent to it unreceived, raises ``CollectiveMismatchError`` here.
        """
        results: list[Any] = [None] * self.world_size
        errors: list[BaseException | None] = [None] * self.world_size

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(self.context(rank), *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must not hang siblings
                errors[rank] = exc
                self.fabric.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank-{r}", daemon=True)
            for r in range(self.world_size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Prefer the root cause: a rank's own failure outranks the
        # FabricAbortedError its peers raised when the fabric was torn down.
        # Among aborts, one chained to a cause (e.g. a collective whose
        # retries were exhausted) outranks the bare peer-side aborts.
        root = [e for e in errors if e is not None and not isinstance(e, FabricAbortedError)]
        secondary = [e for e in errors if isinstance(e, FabricAbortedError)]
        chained = [e for e in secondary if e.__cause__ is not None]
        failure = (root or chained or secondary or [None])[0]
        if failure is None:
            # No rank raised, so none was left waiting; a data-free
            # collective that some rank never issued, or a message that no
            # rank received, is found here.
            failure = self.fabric._unmatched()
            if failure is not None:
                self.fabric.abort()
        # Success or failure, the fabric must not keep the last collectives'
        # arrays (two generations per rendezvous) or undelivered messages alive.
        self.fabric._release_payloads()
        if failure is None:
            return results
        try:
            raise failure
        finally:
            # The raised exception's traceback now holds this frame. Drop the
            # frame's own references to the rank exceptions (each of which
            # holds its rank's training frame — engine, model, context), or
            # the failed run stays alive as a cycle until a gc pass.
            errors.clear()
            del root, secondary, chained, failure
