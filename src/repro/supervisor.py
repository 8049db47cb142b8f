"""Elastic recovery supervisor: restart training across rank failures.

The paper's premise is that model states are partitioned 1/Nd across the
data-parallel ranks — which means a single rank failure destroys an
irreplaceable shard of optimizer state. At the 400-GPU scale of the
evaluation a job outliving any individual worker is the norm, so the
reproduction gets the same recovery story the real systems
(ZeRO-Infinity, ZeRO++) treat as a prerequisite: checkpoint durably,
detect the failure promptly, re-form a (possibly smaller) world from the
survivors, re-shard the partitioned state to the new degree, and resume.

``Supervisor.run(fn)`` executes an SPMD training function under a
``RestartPolicy``:

1. The function runs on a fresh ``Cluster``; an injected or organic rank
   failure aborts the fabric, so every rank raises promptly instead of
   hanging (``RankKilledError`` on the victim, ``FabricAbortedError`` on
   peers — the root cause is what ``Cluster.run`` re-raises).
2. The supervisor consults the fault plan for newly dead ranks, shrinks
   the world by that many slots, and relaunches. Survivor threads are
   re-numbered 0..M-1, exactly like a torch-elastic re-rendezvous.
3. The training function is responsible for resuming: call
   ``latest_checkpoint`` to find the newest *durable* checkpoint (torn
   saves from the crash are skipped) and ``load_checkpoint_resharded``
   to fold the old world's N shards into the new world's M partitions.
   Re-sharding is bitwise-neutral (Adam is elementwise over the flat
   space), so the recovered trajectory matches an uninterrupted M-rank
   run resumed from the same checkpoint exactly.

Silent data corruption (``CorruptionDetectedError`` from the
``repro.integrity`` detectors) follows the same loop with a different
policy: no rank died, so the world is relaunched at the *same* size — a
**rollback** — and the training function resumes from the newest
*verified* checkpoint (``VerifiedCheckpointRing.latest_verified`` /
``latest_checkpoint``, both of which reject shards failing checksum
verification). Resumption is bitwise-deterministic, so a rolled-back run
converges to exactly the fault-free trajectory. A rank implicated in
``RestartPolicy.quarantine_after`` corruption detections is presumed to
have bad hardware and is **quarantined**: the world shrinks by one via
the same elastic re-shard path a dead rank takes.

Fail-slow (gray) failures follow a third policy: a rank confirmed slow
by the ``repro.health`` detectors (``SlowRankDetectedError``) produced
bitwise-correct results the whole time — nothing to roll back — but
gates every synchronous collective, so it is **evicted**: the world
shrinks by one through the same elastic re-shard path a dead rank takes
(kind ``"slow-evict"``), the victim's performance-fault rules are
retired so they cannot re-attach to the survivor inheriting its rank
number, and the relaunch resumes from the latest durable checkpoint
bitwise-deterministically. The throughput-recovery contract —
post-eviction step time within tolerance of the healthy-world analytic
prediction — is checked by ``repro.health.verify_recovery``.

With ``redundancy=RedundancyConfig()`` the checkpoint ring stops being
the first resort: every rank's owned shards are replicated to buddy
tiers after each boundary (``repro.redundancy``), so on a kill or a
detected corruption the supervisor stages a digest-verified
``RecoverySnapshot`` from the buddies and the relaunch resumes via
``resume_from_buddies`` at the last globally-completed boundary — zero
completed steps lost, kind ``"fast-recovery"``. A double fault the
store cannot cover invalidates it and falls back to the ring path,
kind ``"ring-fallback"``. All restart kinds are the shared constants
in ``repro.restart``.

Only communication-layer failures (``RankKilledError``,
``FabricAbortedError``), detected corruption, and confirmed-slow
verdicts trigger a restart; programming errors in the training function
propagate immediately.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.comm.fabric import FabricAbortedError
from repro.comm.faults import FaultPlan, RankKilledError, RetryPolicy
from repro.hardware.specs import GPUSpec, V100_32GB
from repro.health.errors import SlowRankDetectedError
from repro.integrity.errors import CorruptionDetectedError
from repro.restart import ALL_KINDS, RestartKind, counter_name, instant_name
from repro.runtime import Cluster


@dataclass(frozen=True)
class RestartPolicy:
    """When the supervisor keeps going and when it gives up."""

    max_restarts: int = 3       # relaunches before the failure is re-raised
    # Corruption detections attributed to the same rank before that rank
    # is presumed bad hardware and quarantined (elastic shrink by one).
    # Below the threshold a detection triggers a same-world rollback.
    quarantine_after: int = 2

    def __post_init__(self):
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )


@dataclass(frozen=True)
class RestartEvent:
    """One failure-and-relaunch cycle."""

    attempt: int                  # 1-based restart number
    world_before: int
    world_after: int
    killed_ranks: tuple[int, ...]  # old-world numbering; empty for transients
    error: str
    # One of ``repro.restart.RestartKind``: "failure" (crash fault, ring
    # resume), "rollback" (corruption, same world), "quarantine"
    # (corruption, repeat offender removed), "slow-evict" (confirmed
    # fail-slow rank removed), "fast-recovery" (buddy redundancy served
    # the fault at the current step), or "ring-fallback" (redundancy was
    # on but could not serve — double fault / digest rejection).
    kind: str = RestartKind.FAILURE

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown restart kind {self.kind!r}")


@dataclass
class SupervisorReport:
    """Outcome of a supervised run."""

    results: list[Any]            # per-rank return values of the final attempt
    restarts: int
    final_world_size: int
    events: list[RestartEvent] = field(default_factory=list)


class Supervisor:
    """Run an SPMD training function under a restart policy.

    The training function must be *re-entrant*: each attempt calls it
    fresh on every rank of the current world, and it is expected to
    resume from the latest durable checkpoint itself (see module
    docstring). ``fault_plan`` is shared across attempts — fired rules
    stay consumed, so a kill does not re-trigger after the restart.
    """

    def __init__(
        self,
        world_size: int,
        *,
        gpu: GPUSpec = V100_32GB,
        policy: RestartPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        timeout_s: float = 120.0,
        telemetry=None,
        redundancy=None,
        recorder=None,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.gpu = gpu
        self.policy = policy or RestartPolicy()
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.timeout_s = timeout_s
        #: optional buddy-shard redundancy: a ``repro.redundancy``
        #: ``RedundancyConfig`` (a fresh ``BuddyStore`` is built around
        #: it) or an existing ``BuddyStore``. The store lives *here* —
        #: it models durable host/NVMe tier contents, which survive the
        #: per-attempt Cluster teardown the way DRAM survives a process
        #: crash on another node.
        self.redundancy = None
        if redundancy is not None:
            from repro.redundancy import BuddyStore, RedundancyConfig

            if isinstance(redundancy, RedundancyConfig):
                redundancy = BuddyStore(redundancy)
            if not isinstance(redundancy, BuddyStore):
                raise TypeError(
                    "redundancy must be a RedundancyConfig or BuddyStore, "
                    f"got {type(redundancy).__name__}"
                )
            self.redundancy = redundancy
        #: optional ``repro.telemetry.TelemetrySession`` threaded into every
        #: attempt's Cluster. Tracers are keyed by rank inside the session,
        #: so a relaunched rank continues its timeline, and each restart /
        #: rollback / quarantine / give-up appears as a supervisor-track
        #: instant event (plus a counter in the session registry).
        self.telemetry = telemetry
        #: optional Mission Control flight recorder: a ``repro.obs``
        #: ``RunLedger`` or a path to its durable JSONL file (a fresh
        #: ledger is opened over it — appending to an existing file
        #: replays the stream first, so a restarted supervisor process
        #: continues the same run). The ledger lives here, not in the
        #: per-attempt Cluster, because it spans restarts by design.
        self.recorder = None
        if recorder is not None:
            from repro.obs import RunLedger

            if not isinstance(recorder, RunLedger):
                recorder = RunLedger(recorder)
            self.recorder = recorder
        #: corruption detections attributed per rank (current-world
        #: numbering at detection time) — the quarantine escalation
        #: counter. Note rank numbers shift when the world shrinks, so
        #: attribution across a shrink is best-effort, like real
        #: node-health bookkeeping keyed on hostnames that get recycled.
        self.corruption_counts: dict[int, int] = {}

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> SupervisorReport:
        """Run ``fn(ctx, *args, **kwargs)`` to completion, restarting on
        rank failures per the policy. Returns the successful attempt's
        per-rank results plus the restart history."""
        world = self.world_size
        events: list[RestartEvent] = []
        restarts = 0
        # ``ctx.fabric`` is an attempt's identity to the training function
        # (per-attempt state gets keyed on it). A dead attempt is freed at
        # once, so its fabric is held until the run is over: a later
        # attempt's fabric must not be handed the same address.
        fabrics = []
        rec = self.recorder
        if rec is not None:
            from repro.obs import EventKind

            rec.record(EventKind.RUN_STARTED, world_size=world)
            if self.fault_plan is not None:
                # The fault fabric reports every fired injection to the
                # ledger, in firing order — the incident ground truth.
                self.fault_plan.recorder = rec
        while True:
            known_dead = len(self.fault_plan.killed_ranks) if self.fault_plan else 0
            if rec is not None:
                rec.begin_incarnation(world, session=self.telemetry)
            cluster = Cluster(
                world,
                gpu=self.gpu,
                timeout_s=self.timeout_s,
                fault_plan=self.fault_plan,
                retry_policy=self.retry_policy,
                telemetry=self.telemetry,
                redundancy=self.redundancy,
                recorder=rec,
            )
            fabrics.append(cluster.fabric)
            try:
                results = cluster.run(fn, *args, **kwargs)
            except (
                RankKilledError, FabricAbortedError,
                CorruptionDetectedError, SlowRankDetectedError,
            ) as exc:
                newly_dead = tuple(
                    self.fault_plan.killed_ranks[known_dead:]
                ) if self.fault_plan else ()
                restarts += 1
                kind = RestartKind.FAILURE
                quarantined: tuple[int, ...] = ()
                if isinstance(exc, SlowRankDetectedError):
                    # The slow rank produced correct results all along —
                    # nothing to roll back; evict it through the elastic
                    # shrink path and retire its performance-fault rules
                    # so they cannot re-attach to the survivor that
                    # inherits its rank number after renumbering.
                    kind = RestartKind.SLOW_EVICT
                    quarantined = (exc.rank,)
                    if self.fault_plan is not None:
                        self.fault_plan.retire_perf_rules(exc.rank)
                elif isinstance(exc, CorruptionDetectedError):
                    # Nobody died — relaunch at the same size and let the
                    # training function resume from the newest *verified*
                    # checkpoint (a rollback). A repeat offender gets
                    # quarantined through the elastic shrink path instead.
                    kind = RestartKind.ROLLBACK
                    if exc.rank is not None:
                        count = self.corruption_counts.get(exc.rank, 0) + 1
                        self.corruption_counts[exc.rank] = count
                        if count >= self.policy.quarantine_after:
                            kind = RestartKind.QUARANTINE
                            quarantined = (exc.rank,)
                            del self.corruption_counts[exc.rank]
                removed = newly_dead + quarantined
                new_world = world - len(removed)
                if self.redundancy is not None:
                    # Dead hardware takes its tier (primary + everything
                    # it held for others) down with it; quarantined and
                    # evicted ranks' tiers are alive and still serve.
                    self.redundancy.mark_dead(newly_dead)
                    fast = self.redundancy.prepare_recovery() is not None
                    if not fast:
                        # Buddies cannot serve this fault: drop the store
                        # (its snapshots are *ahead* of the checkpoint the
                        # ring will roll back to) and fall through.
                        self.redundancy.invalidate()
                    if kind in (RestartKind.FAILURE, RestartKind.ROLLBACK):
                        kind = (
                            RestartKind.FAST_RECOVERY if fast
                            else RestartKind.RING_FALLBACK
                        )
                events.append(
                    RestartEvent(restarts, world, new_world, removed, repr(exc),
                                 kind=kind)
                )
                if self.telemetry is not None:
                    # Unwind spans the crashed attempt left open, then mark
                    # the restart (or the give-up) on the supervisor track.
                    self.telemetry.close_open_spans()
                gave_up = (
                    restarts > self.policy.max_restarts or new_world < 1
                )
                if self.telemetry is not None:
                    self.telemetry.instant(
                        "supervisor-gave-up" if gave_up else instant_name(kind),
                        attempt=restarts,
                        kind=kind,
                        world_before=world,
                        world_after=new_world,
                        killed_ranks=list(removed),
                        error=repr(exc),
                    )
                    registry = getattr(self.telemetry, "registry", None)
                    if registry is not None:
                        registry.counter(counter_name(kind)).add(1)
                        # Labelled twin of the per-kind counter, so one
                        # name aggregates across kinds and each kind
                        # round-trips through the registry's labels.
                        registry.counter("supervisor_restarts", kind=kind).add(1)
                if rec is not None:
                    from repro.obs import EventKind

                    now = self._session_clock()
                    rec.record(
                        EventKind.FAULT_DETECTED, t_s=now,
                        rank=getattr(exc, "rank", None),
                        error=type(exc).__name__, detail=str(exc),
                    )
                    rec.record(
                        EventKind.RESTART, t_s=now,
                        kind=kind, attempt=restarts,
                        world_before=world, world_after=new_world,
                        removed=list(removed), gave_up=gave_up,
                        error=repr(exc),
                    )
                    if gave_up:
                        rec.record(
                            EventKind.RUN_ABORTED, t_s=now, error=repr(exc),
                        )
                if restarts > self.policy.max_restarts:
                    exc.add_note(
                        f"supervisor gave up: restart budget exhausted "
                        f"({self.policy.max_restarts} max_restarts)"
                    )
                    raise
                if new_world < 1:
                    exc.add_note("supervisor gave up: no rank survived")
                    raise
                world = new_world
                continue
            if rec is not None:
                from repro.obs import EventKind

                rec.record(
                    EventKind.RUN_FINISHED, t_s=self._session_clock(),
                    restarts=restarts, final_world_size=world,
                    frontier_step=rec.step_frontier(),
                )
            return SupervisorReport(
                results=results,
                restarts=restarts,
                final_world_size=world,
                events=events,
            )

    def _session_clock(self) -> float | None:
        """Frontier of the simulated clock across the session's tracers —
        what the ledger stamps supervisor-side events with. ``None``
        (ledger stamps at its own frontier) without telemetry."""
        if self.telemetry is None or not self.telemetry.tracers:
            return None
        return max(t.clock_s for t in self.telemetry.tracers.values())
