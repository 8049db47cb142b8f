"""Incident reconstruction: injection → detection → recovery, correlated.

A chaos campaign leaves three disconnected traces of each fault: the
``FaultPlan`` records the injection, the Supervisor records the
detection and the restart kind, and the resumed engines record when the
step frontier is re-attained. ``reconstruct_incidents`` correlates the
three out of the one RunLedger stream into ``Incident`` records carrying
the analytics the ROADMAP's control plane needs per fault: detection
latency (MTTD), recovery wall (MTTR), lost / re-executed steps, and
restart-kind attribution.

Correlation rules (one incident per detection→restart cycle):

* a restart that removed ranks is matched to the earliest unconsumed
  ``kill`` injection on one of those ranks;
* a corruption detection (rollback / quarantine / a same-world fast
  recovery) is matched to the most recent unconsumed ``scribble`` or
  ``bitflip`` injection;
* a slow-evict is matched to the most recent unconsumed performance
  onset (``throttle`` / ``jitter`` / ``degrade-link``), preferring the
  evicted rank;
* anything else is an *organic* incident (kind ``"unattributed"``) —
  with a seeded FaultPlan as ground truth there should be none, which is
  exactly what the chaos tests assert.

Injections that never cause a restart (transients absorbed by retries,
checkpoint rot absorbed by the verified ring, perf rules no detector
confirmed) stay unmatched — they were *absorbed*, not incidents.

Recovery accounting is frontier-based: ``frontier_step`` is the highest
step completed before the detection; the first step completed afterwards
fixes ``resume_step`` (so ``lost_steps = frontier - (resume - 1)``, the
completed work discarded and re-executed), and the first step completed
*beyond* the frontier stamps ``recovered_t_s`` — MTTR is the wall from
detection until the run is making new progress again. That stamp is the
minimum over the step's events of each rank's own clock (``rank_t_s``),
so it does not depend on the order in which the rank threads reached the
ledger (the ledger clock lifts a later arrival to an earlier one's time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import EventKind
from repro.restart import RestartKind

#: injection kinds that (when detected) force a restart.
_KILL_KINDS = ("kill",)
_CORRUPTION_KINDS = ("scribble", "bitflip")
_PERF_KINDS = ("throttle", "jitter", "degrade-link")


@dataclass(frozen=True)
class Incident:
    """One injection → detection → recovery arc."""

    index: int                       # 0-based, in detection order
    kind: str                        # injection kind, or "unattributed"
    injected_rank: int | None
    injected_t_s: float | None
    injected_detail: str
    detected_t_s: float
    error: str                       # detection error class name
    restart_kind: str                # repro.restart.RestartKind value
    attempt: int                     # 1-based restart number
    world_before: int
    world_after: int
    removed_ranks: tuple[int, ...]
    frontier_step: int               # highest step completed pre-detection
    resume_step: int | None          # first step completed post-restart
    recovered_t_s: float | None      # first step completed > frontier
    lost_steps: int                  # completed steps discarded (re-run)
    reexecuted_steps: int            # re-completions actually observed

    @property
    def mttd_s(self) -> float | None:
        """Injection → detection wall (simulated seconds)."""
        if self.injected_t_s is None:
            return None
        return self.detected_t_s - self.injected_t_s

    @property
    def mttr_s(self) -> float | None:
        """Detection → frontier re-attained wall (simulated seconds)."""
        if self.recovered_t_s is None:
            return None
        return self.recovered_t_s - self.detected_t_s


def _match_injection(pool: list, detect, restart):
    """Pick (and consume) the injection event explaining one restart."""
    kind = restart.args.get("kind", "")
    removed = tuple(restart.args.get("removed") or ())
    kills = [
        ev for ev in pool
        if ev.args.get("fault") in _KILL_KINDS and ev.rank in removed
    ]
    if kills:
        pool.remove(kills[0])
        return kills[0]
    if (
        detect.args.get("error") == "CorruptionDetectedError"
        or kind in (RestartKind.ROLLBACK, RestartKind.QUARANTINE)
    ):
        corruptions = [
            ev for ev in pool if ev.args.get("fault") in _CORRUPTION_KINDS
        ]
        if corruptions:
            pool.remove(corruptions[-1])
            return corruptions[-1]
    if kind == RestartKind.SLOW_EVICT:
        onsets = [ev for ev in pool if ev.args.get("fault") in _PERF_KINDS]
        preferred = [ev for ev in onsets if ev.rank in removed]
        pick = (preferred or onsets)[-1] if (preferred or onsets) else None
        if pick is not None:
            pool.remove(pick)
            return pick
    return None


def reconstruct_incidents(ledger) -> list[Incident]:
    """Correlate the ledger's stream into detection-ordered incidents."""
    events = list(ledger.events)
    # Prefix frontier: highest step completed before each event index.
    frontier_before = []
    frontier = 0
    for ev in events:
        frontier_before.append(frontier)
        if ev.kind == EventKind.STEP_COMPLETED and ev.step is not None:
            frontier = max(frontier, ev.step)

    cycles = []  # (detect index, detect event, restart index, restart event)
    pending_detect = None
    for idx, ev in enumerate(events):
        if ev.kind == EventKind.FAULT_DETECTED:
            pending_detect = (idx, ev)
        elif ev.kind == EventKind.RESTART and pending_detect is not None:
            cycles.append((*pending_detect, idx, ev))
            pending_detect = None

    pool = [ev for ev in events if ev.kind == EventKind.FAULT_INJECTED]
    incidents = []
    for n, (det_idx, detect, restart_idx, restart) in enumerate(cycles):
        injection = _match_injection(pool, detect, restart)
        frontier_step = frontier_before[det_idx]
        # Recovery window: events after this restart, up to the next
        # detection (or the end of the stream).
        end = cycles[n + 1][0] if n + 1 < len(cycles) else len(events)
        start = restart_idx + 1
        resume_step = None
        beyond = []  # (step, rank clock) of every completion past the frontier
        reexecuted: set[int] = set()
        for ev in events[start:end]:
            if ev.kind != EventKind.STEP_COMPLETED or ev.step is None:
                continue
            if resume_step is None:
                resume_step = ev.step
            if ev.step <= frontier_step:
                reexecuted.add(ev.step)
            else:
                beyond.append((ev.step, ev.args.get("rank_t_s", ev.t_s)))
        # The first step past the frontier, at the earliest clock of any
        # rank completing it — not the stamp of whichever rank's event
        # reached the ledger first.
        recovered_t = min(beyond)[1] if beyond else None
        lost = (
            max(0, frontier_step - (resume_step - 1))
            if resume_step is not None else 0
        )
        incidents.append(Incident(
            index=n,
            kind=injection.args["fault"] if injection else "unattributed",
            injected_rank=injection.rank if injection else None,
            injected_t_s=injection.t_s if injection else None,
            injected_detail=injection.args.get("detail", "") if injection else "",
            detected_t_s=detect.t_s,
            error=detect.args.get("error", ""),
            restart_kind=restart.args.get("kind", ""),
            attempt=int(restart.args.get("attempt", n + 1)),
            world_before=int(restart.args.get("world_before", 0)),
            world_after=int(restart.args.get("world_after", 0)),
            removed_ranks=tuple(restart.args.get("removed") or ()),
            frontier_step=frontier_step,
            resume_step=resume_step,
            recovered_t_s=recovered_t,
            lost_steps=lost,
            reexecuted_steps=len(reexecuted),
        ))
    return incidents


def absorbed_injections(ledger, incidents: list[Incident]) -> list:
    """Injections that never became incidents (retried transients,
    rotted-but-ringed checkpoints, unconfirmed perf onsets)."""
    consumed = {
        (i.kind, i.injected_rank, i.injected_t_s)
        for i in incidents if i.kind != "unattributed"
    }
    out = []
    for ev in ledger.events_of(EventKind.FAULT_INJECTED):
        key = (ev.args.get("fault"), ev.rank, ev.t_s)
        if key in consumed:
            consumed.remove(key)
        else:
            out.append(ev)
    return out
