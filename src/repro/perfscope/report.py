"""Perfscope surfaces: per-step reports, gauges, trace annotation.

``StepReport`` is the human-readable unit: the fleet critical path, the
straggler, and the stall taxonomy as ASCII breakdown bars, plus a
per-rank scorecard. ``publish_metrics`` pushes the same numbers into a
``MetricsRegistry`` as ``perfscope_*`` gauges, and
``annotate_chrome_trace`` paints the fleet critical path onto an exported
Chrome trace as a per-rank colored track.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfscope.critpath import CATEGORIES, RankStats
from repro.perfscope.graph import StepGraph

_US = 1e6
_BAR_WIDTH = 36  # characters of a whole critical path's bar

#: chrome://tracing reserved color names per stall category.
_CNAME = {
    "compute": "good",
    "host-adam": "olive",
    "exposed-comm": "terrible",
    "pcie-wait": "bad",
    "nvme-wait": "bad",
    "straggler-skew": "terrible",
    "bubble": "grey",
    "serialization": "yellow",
}


@dataclass(frozen=True)
class StepReport:
    """One step's fleet-wide critical-path verdict."""

    step_index: int
    critical_path_s: float   # fleet step time per the scheduled graph
    observed_s: float        # max of the ranks' own step accounting
    total_busy_s: float      # sum of busy time across every (rank, track)
    straggler_rank: int
    per_rank: dict[int, RankStats]

    @property
    def stalls(self) -> dict[str, float]:
        """Fleet stall taxonomy = the straggler rank's decomposition (its
        chain is what the fleet step time telescopes along)."""
        return self.per_rank[self.straggler_rank].stalls

    @property
    def exposed_comm_pct(self) -> float:
        return self.per_rank[self.straggler_rank].exposed_comm_pct

    @property
    def overlap_efficiency(self) -> float:
        """Fleet overlap: the fraction of all ranks' comm/transfer lane
        occupancy hidden behind compute."""
        busy = sum(rs.busy_comm_s for rs in self.per_rank.values())
        if busy <= 0:
            return 1.0
        exposed = sum(rs.exposed_s for rs in self.per_rank.values())
        return max(0.0, 1.0 - exposed / busy)

    @property
    def compute_utilization(self) -> float:
        if not self.per_rank:
            return 0.0
        vals = [rs.compute_utilization for rs in self.per_rank.values()]
        return sum(vals) / len(vals)

    def render(self) -> str:
        lines = [
            f"step {self.step_index}: critical path "
            f"{self.critical_path_s * 1e3:.3f} ms  "
            f"(straggler rank {self.straggler_rank}, "
            f"track busy {self.total_busy_s * 1e3:.3f} ms)"
        ]
        cp = self.critical_path_s
        for cat in CATEGORIES:
            val = self.stalls.get(cat, 0.0)
            if val <= 0 and cat != "compute":
                continue
            frac = val / cp if cp > 0 else 0.0
            bar = "#" * round(_BAR_WIDTH * frac)
            lines.append(
                f"  {cat:<15}|{bar:<{_BAR_WIDTH}}| {val * 1e3:9.3f} ms {100 * frac:5.1f}%"
            )
        for rank, rs in sorted(self.per_rank.items()):
            lines.append(
                f"  rank {rank}: step {rs.step_s * 1e3:.3f} ms  "
                f"compute-util {100 * rs.compute_utilization:.1f}%  "
                f"overlap {100 * rs.overlap_efficiency:.1f}%  "
                f"exposed-comm {rs.exposed_comm_pct:.1f}%"
            )
        return "\n".join(lines)


def publish_metrics(reports: list[StepReport], registry) -> None:
    """Push ``perfscope_*`` gauges (means over the analyzed steps; stall
    seconds as per-category totals)."""
    if not reports or registry is None:
        return
    n = len(reports)
    registry.gauge("perfscope_critical_path_s").set(
        sum(r.critical_path_s for r in reports) / n
    )
    registry.gauge("perfscope_overlap_efficiency").set(
        sum(r.overlap_efficiency for r in reports) / n
    )
    registry.gauge("perfscope_exposed_comm_pct").set(
        sum(r.exposed_comm_pct for r in reports) / n
    )
    ranks = sorted({r for rep in reports for r in rep.per_rank})
    for rank in ranks:
        stats = [rep.per_rank[rank] for rep in reports if rank in rep.per_rank]
        m = len(stats)
        registry.gauge("perfscope_overlap_efficiency", rank=rank).set(
            sum(s.overlap_efficiency for s in stats) / m
        )
        registry.gauge("perfscope_compute_utilization", rank=rank).set(
            sum(s.compute_utilization for s in stats) / m
        )
        registry.gauge("perfscope_exposed_comm_pct", rank=rank).set(
            sum(s.exposed_comm_pct for s in stats) / m
        )
        for cat in CATEGORIES:
            total = sum(s.stalls.get(cat, 0.0) for s in stats)
            if total > 0:
                registry.gauge(
                    "perfscope_stall_s", rank=rank, category=cat
                ).set(total)


#: tid the annotated critical-path track lands on (clear of the tracer's
#: own track allocator, which numbers from 0).
_CP_TID = 1000


def annotate_chrome_trace(trace: dict, graphs: list[StepGraph]) -> dict:
    """Paint each step's fleet critical path onto ``trace`` (in place) as
    a per-rank "critical-path" track of colored complete events."""
    from repro.perfscope.critpath import _node_category

    events = trace.get("traceEvents", [])
    named: set[int] = set()
    per_rank_events: dict[int, list[dict]] = {}
    for g in graphs:
        for node in g.critical_path():
            if node.rank < 0 or node.end_s <= node.start_s:
                continue
            cat = _node_category(node)
            if cat is None:
                continue
            t0 = g.step_start_s.get(node.rank, 0.0)
            per_rank_events.setdefault(node.rank, []).append({
                "name": node.label, "ph": "X", "pid": node.rank, "tid": _CP_TID,
                "ts": (t0 + node.start_s) * _US,
                "dur": (node.end_s - node.start_s) * _US,
                "cname": _CNAME.get(cat, "grey"),
                "args": {"category": cat, "kind": node.kind,
                         "step": g.step_index},
            })
            named.add(node.rank)
    for rank, evs in sorted(per_rank_events.items()):
        events.extend(sorted(evs, key=lambda e: e["ts"]))
    for rank in sorted(named):
        events.append({
            "name": "thread_name", "ph": "M", "pid": rank, "tid": _CP_TID,
            "args": {"name": "critical-path"},
        })
    return trace
