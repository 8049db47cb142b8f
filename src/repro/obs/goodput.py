"""Goodput and SLO accounting over the RunLedger.

``compute_goodput`` partitions the total run wall (on the simulated
clock the ledger stamped) into four exclusive, exhaustive categories:

* **productive** — wall ending at a step boundary that advanced the run
  past every previously completed step (new progress);
* **re-execution** — wall ending at a step boundary re-completing a step
  an earlier incarnation had already finished (rollback replay);
* **recovery** — wall ending at a fault detection or a restart decision:
  the in-flight work the fault destroyed plus the detection latency;
* **idle** — everything else (the tail after the last boundary, time
  between run start and the first step).

The partition is a marker sweep: only step-completed, fault-detected,
restart, and run-finished/aborted events are markers; each inter-marker
gap is assigned to exactly one category, so the categories sum to the
total wall *by construction* — ``total_s`` is defined as that sum, and
the acceptance test asserts float equality, not tolerance.

``publish_goodput`` exports the run-level gauges (``run_goodput_pct``,
``mttd_s``, ``mttr_s``, ``lost_steps_total``, and the partition) into a
``MetricsRegistry``; ``SLOPolicy.check`` turns threshold breaches into
structured ``SLOViolation``s (and counts them in the registry when one
is attached).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import EventKind
from repro.obs.incidents import Incident

_MARKER_KINDS = frozenset({
    EventKind.STEP_COMPLETED,
    EventKind.FAULT_DETECTED,
    EventKind.RESTART,
    EventKind.RUN_FINISHED,
    EventKind.RUN_ABORTED,
})


@dataclass(frozen=True)
class GoodputReport:
    """The run-wall partition plus the derived run-level analytics."""

    total_s: float           # == productive + reexecution + recovery + idle
    productive_s: float
    reexecution_s: float
    recovery_s: float
    idle_s: float
    steps_completed: int     # distinct (incarnation, step) boundaries
    steps_reexecuted: int
    lost_steps_total: int    # summed over incidents
    n_incidents: int
    mttd_s: float            # mean over attributed incidents (0 if none)
    mttr_s: float            # mean over recovered incidents (0 if none)

    @property
    def goodput_pct(self) -> float:
        """Productive share of the total run wall (100 when no wall)."""
        if self.total_s <= 0.0:
            return 100.0
        return 100.0 * self.productive_s / self.total_s


def compute_goodput(ledger, incidents: list[Incident]) -> GoodputReport:
    """Sweep the ledger's markers into the four-way wall partition."""
    events = list(ledger.events)
    productive = reexec = recovery = idle = 0.0
    steps_completed = steps_reexecuted = 0
    # Frontier of *previous* incarnations: a step at or below it is a
    # re-execution; pushing past it is new progress.
    prev_frontier = 0
    cur_max_step = 0
    t_prev = events[0].t_s if events else 0.0
    for ev in events:
        if ev.kind == EventKind.INCARNATION_STARTED:
            prev_frontier = max(prev_frontier, cur_max_step)
            cur_max_step = 0
            continue
        if ev.kind not in _MARKER_KINDS:
            continue
        gap = max(0.0, ev.t_s - t_prev)
        t_prev = max(t_prev, ev.t_s)
        if ev.kind == EventKind.STEP_COMPLETED and ev.step is not None:
            if ev.step <= prev_frontier:
                reexec += gap
            else:
                productive += gap
            if ev.step > cur_max_step:
                cur_max_step = ev.step
                steps_completed += 1
                if ev.step <= prev_frontier:
                    steps_reexecuted += 1
        elif ev.kind in (EventKind.FAULT_DETECTED, EventKind.RESTART):
            recovery += gap
        else:  # run-finished / run-aborted
            idle += gap
    total = productive + reexec + recovery + idle
    attributed = [i.mttd_s for i in incidents if i.mttd_s is not None]
    recovered = [i.mttr_s for i in incidents if i.mttr_s is not None]
    return GoodputReport(
        total_s=total,
        productive_s=productive,
        reexecution_s=reexec,
        recovery_s=recovery,
        idle_s=idle,
        steps_completed=steps_completed,
        steps_reexecuted=steps_reexecuted,
        lost_steps_total=sum(i.lost_steps for i in incidents),
        n_incidents=len(incidents),
        mttd_s=sum(attributed) / len(attributed) if attributed else 0.0,
        mttr_s=sum(recovered) / len(recovered) if recovered else 0.0,
    )


def publish_goodput(report: GoodputReport, registry) -> None:
    """Export the run-level gauges into a ``MetricsRegistry``."""
    registry.gauge("run_goodput_pct").set(report.goodput_pct)
    registry.gauge("run_total_s").set(report.total_s)
    registry.gauge("run_productive_s").set(report.productive_s)
    registry.gauge("run_reexecution_s").set(report.reexecution_s)
    registry.gauge("run_recovery_s").set(report.recovery_s)
    registry.gauge("run_idle_s").set(report.idle_s)
    registry.gauge("mttd_s").set(report.mttd_s)
    registry.gauge("mttr_s").set(report.mttr_s)
    registry.gauge("lost_steps_total").set(report.lost_steps_total)
    registry.gauge("incidents_total").set(report.n_incidents)


@dataclass(frozen=True)
class SLOViolation:
    """One tripped SLO: which monitor, the limit, and what was measured."""

    name: str
    limit: float
    actual: float
    detail: str


@dataclass(frozen=True)
class SLOPolicy:
    """The run-level goodput SLO; ``None`` disables the monitor."""

    min_goodput_pct: float | None = None

    def check(self, report: GoodputReport, registry=None) -> list[SLOViolation]:
        """Evaluate the monitor, if armed; structured violations out.

        With a registry attached, each violation also bumps the
        ``slo_violations`` counter labelled by monitor name.
        """
        violations: list[SLOViolation] = []
        if (
            self.min_goodput_pct is not None
            and report.goodput_pct < self.min_goodput_pct
        ):
            violations.append(SLOViolation(
                "min_goodput_pct", self.min_goodput_pct, report.goodput_pct,
                f"run goodput {report.goodput_pct:.2f}% is below the "
                f"{self.min_goodput_pct:.2f}% floor",
            ))
        if registry is not None:
            for v in violations:
                registry.counter("slo_violations", slo=v.name).add(1)
        return violations
