"""TelemetrySession: the cluster-level telemetry hub.

One session owns the per-rank ``Tracer``s, the shared ``MetricsRegistry``,
and the supervisor-level instant events, and renders all of it into the
exportable artifacts. Wire-up is a single keyword::

    session = TelemetrySession()
    cluster = Cluster(4, telemetry=session)
    cluster.run(train)
    session.write_chrome_trace("trace.json")
    print(session.summary())

The session survives ``Supervisor`` restarts: tracers are keyed by rank,
so a relaunched rank continues its timeline (after the supervisor closes
any spans left open by the crash), and restart events appear as global
instant markers on the supervisor track.

Construction is lazy and lock-guarded; when no session is attached the
cluster never touches this module, so disabled telemetry allocates
nothing.
"""

from __future__ import annotations

import threading

from repro.telemetry.export import (
    ascii_summary,
    chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import InstantEvent, Tracer


class TelemetrySession:
    """Per-run container for tracers, metrics, and global events."""

    def __init__(self, *, health=None, perfscope: bool = False):
        self.registry = MetricsRegistry()
        self.tracers: dict[int, Tracer] = {}
        self.global_instants: list[InstantEvent] = []
        #: optional ``repro.health.HealthMonitor``; when attached every
        #: tracer feeds it step samples and priced comm events, and the
        #: summary table annotates straggler verdicts. None = disabled,
        #: byte-identical to a health-free session.
        self.health = health
        #: Perfscope recording switch: when True every tracer records its
        #: priced comm events as clock intervals plus the offload/infinity
        #: runtime captures, enabling ``perfscope_analysis``. False (the
        #: default) keeps tracers byte-identical to a perfscope-free run.
        self.perfscope = perfscope
        if health is not None and getattr(health, "registry", None) is None:
            health.registry = self.registry
        self._clock_s = 0.0  # global-track clock: max of rank clocks seen
        self._lock = threading.Lock()

    def tracer_for(self, rank: int, *, topology=None, gpu=None, fault_plan=None) -> Tracer:
        """Get-or-create rank ``rank``'s tracer (idempotent across
        ``Cluster`` relaunches, so a supervised run keeps one timeline).

        ``fault_plan`` threads performance-fault (gray-failure) rules
        into the tracer's cost model, so degraded links show up in the
        priced clock this rank observes."""
        with self._lock:
            tracer = self.tracers.get(rank)
            if tracer is None:
                cost = None
                if topology is not None:
                    from repro.comm.costmodel import CommCostModel

                    cost = CommCostModel(
                        topology, perf=fault_plan, perf_rank=rank,
                    )
                tracer = Tracer(rank, cost_model=cost, registry=self.registry)
                self.tracers[rank] = tracer
            tracer.health = self.health
            tracer.record_comm = self.perfscope
            return tracer

    def instant(self, name: str, **args) -> InstantEvent:
        """Record a global (supervisor-track) instant event."""
        with self._lock:
            self._clock_s = max(
                [self._clock_s] + [t.clock_s for t in self.tracers.values()]
            )
            ev = InstantEvent(name=name, rank=-1, t_s=self._clock_s, args=args)
            self.global_instants.append(ev)
            return ev

    def close_open_spans(self) -> None:
        """Unwind every rank's span stack (after a crashed attempt)."""
        with self._lock:
            tracers = list(self.tracers.values())
        for tracer in tracers:
            tracer.close_open_spans()

    # -- export --------------------------------------------------------------

    def _ranked(self) -> list[Tracer]:
        return [self.tracers[r] for r in sorted(self.tracers)]

    def chrome_trace(self) -> dict:
        return chrome_trace(self._ranked(), self.global_instants)

    def write_chrome_trace(self, path) -> dict:
        return write_chrome_trace(path, self._ranked(), self.global_instants)

    def summary(self, *, title: str = "telemetry step summary") -> str:
        exposed = None
        if self.perfscope:
            analysis = self.perfscope_analysis()
            if analysis.reports:
                exposed = analysis.exposed_comm_pct_by_step()
        return ascii_summary(
            self._ranked(), title=title, health=self.health,
            exposed_comm_pct=exposed,
        )

    def write_metrics_jsonl(self, path) -> None:
        self.registry.write_jsonl(path)

    # -- perfscope ------------------------------------------------------------

    def perfscope_analysis(self):
        """Run Perfscope over the recorded timeline (requires the session
        to have been built with ``perfscope=True``) and publish its
        ``perfscope_*`` gauges into the registry."""
        if not self.perfscope:
            raise RuntimeError(
                "Perfscope recording is off; construct the session with "
                "TelemetrySession(perfscope=True)"
            )
        from repro.perfscope import analyze

        analysis = analyze(self)
        analysis.publish(self.registry)
        return analysis
