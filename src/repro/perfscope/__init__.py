"""Perfscope: critical-path analytics over the traced step timeline.

The observability capstone on top of ``repro.telemetry``: reconstruct
each traced step as a blocking-dependency graph (``graph``), read the
offload/infinity runtimes' own step schedules into it (``runtime_replay``),
attribute every second of step time to a stall category (``critpath``),
answer counterfactuals by re-pricing the graph (``whatif``), and surface
it all as reports / gauges / trace annotation (``report``).

Entry point::

    session = TelemetrySession(perfscope=True)   # turn recording on
    ...train...
    analysis = session.perfscope_analysis()      # or analyze(session)
    print(analysis.summary())
    print(analysis.whatif_zero_comm().describe())

The core invariant (pinned by the test suite): for a serialized rank the
critical path equals the traced step time *exactly*; for an
offload/infinity rank it equals the runtime's modeled ``step_s``
bit-exactly; and it never exceeds the sum of per-track busy time.
"""

from __future__ import annotations

from repro.perfscope.critpath import (
    CATEGORIES,
    RankStats,
    fleet_scores,
    rank_scores,
    rank_stalls,
)
from repro.perfscope.graph import StepGraph, build_step_graph
from repro.perfscope.report import (
    StepReport,
    annotate_chrome_trace,
    publish_metrics,
)
from repro.perfscope.whatif import (
    WhatIf,
    reprice,
    whatif_links,
    whatif_zero_comm,
)

__all__ = [
    "CATEGORIES",
    "PerfscopeAnalysis",
    "RankStats",
    "StepGraph",
    "StepReport",
    "WhatIf",
    "analyze",
    "annotate_chrome_trace",
    "build_step_graph",
    "fleet_scores",
    "publish_metrics",
    "rank_scores",
    "rank_stalls",
    "reprice",
    "whatif_links",
    "whatif_zero_comm",
]


class PerfscopeAnalysis:
    """All analyzed steps of one run: graphs + reports + probes."""

    def __init__(self, graphs: list[StepGraph]):
        self.graphs = graphs
        self.reports = []
        for g in graphs:
            per_rank = fleet_scores(g)
            self.reports.append(StepReport(
                step_index=g.step_index,
                critical_path_s=g.critical_path_s,
                observed_s=max(g.observed_step_s.values()),
                total_busy_s=g.total_busy_s(),
                straggler_rank=max(per_rank, key=lambda r: (per_rank[r].step_s, r)),
                per_rank=per_rank,
            ))

    def graph(self, step: int) -> StepGraph:
        for g in self.graphs:
            if g.step_index == step:
                return g
        raise KeyError(f"no analyzed step {step}")

    def summary(self) -> str:
        if not self.reports:
            return "(no steps analyzed)"
        return "\n".join(r.render() for r in self.reports)

    def exposed_comm_pct_by_step(self) -> dict[int, float]:
        return {r.step_index: r.exposed_comm_pct for r in self.reports}

    def publish(self, registry) -> None:
        publish_metrics(self.reports, registry)

    def annotate_chrome_trace(self, trace: dict) -> dict:
        return annotate_chrome_trace(trace, self.graphs)

    def whatif_zero_comm(self, step: int | None = None) -> WhatIf:
        return whatif_zero_comm(self._pick(step))

    def whatif_links(self, step: int | None = None, **kw) -> WhatIf:
        return whatif_links(self._pick(step), **kw)

    def _pick(self, step: int | None) -> StepGraph:
        if not self.graphs:
            raise ValueError("no steps analyzed")
        return self.graphs[-1] if step is None else self.graph(step)


def analyze(source) -> PerfscopeAnalysis:
    """Analyze a run: accepts a ``TelemetrySession``, a rank->Tracer dict,
    or an iterable of tracers (with Perfscope recording having been on)."""
    if hasattr(source, "tracers"):
        tracers = dict(source.tracers)
    elif isinstance(source, dict):
        tracers = dict(source)
    else:
        tracers = {t.rank: t for t in source}
    n_steps = max((len(t.step_durations) for t in tracers.values()), default=0)
    graphs = (build_step_graph(tracers, step) for step in range(n_steps))
    return PerfscopeAnalysis([g for g in graphs if g is not None])
