"""Step graphs: each traced step as an explicit blocking-dependency graph.

Perfscope reconstructs every step the telemetry layer saw as a DAG of
*nodes* (compute slices, priced communication events, tier transfers,
host work) and *edges* (same-track ordering, collective rendezvous across
ranks, p2p send->recv causality, stream handle waits). Two reconstruction
modes cover every engine:

- **Main-track reconstruction** (DDP, Megatron, GPipe, ZeRO stages 1-3
  without an offload runtime): the rank's serialized clock is decomposed
  into a contiguous chain of compute fillers and the ``CommInterval``s
  the tracer recorded, so the chain reproduces the traced step duration
  *exactly*. Cross-rank edges come from rendezvous matching: the k-th
  occurrence of a collective on a group couples all member ranks, and a
  recv depends on its matched send (peers are recorded in the ledger).
- **Runtime schedules** (ZeRO-Offload / ZeRO-Infinity boundaries): the
  runtime's own ``StepSchedule`` (``repro.infinity.schedule``) already is
  a dependency graph — ``repro.perfscope.runtime_replay`` copies its ops
  into nodes, so the rank's step end is
  ``InfinityStepReport.step_s`` and the full structure (prefetch windows,
  lane queueing, the NVMe in->update->out pipeline, DPU carry) is kept.

``schedule`` assigns start/end times (step-relative, t=0 at step begin).
With ``observed_floors=True`` (the baseline) reconstructed nodes keep
their observed times unless a cross-rank dependency pushes them later —
this is what makes the critical-path length equal the traced step time
exactly on SPMD engines, and what surfaces pipeline bubbles on GPipe
(whose per-rank local clocks never contain the waits). What-if re-pricing
(``repro.perfscope.whatif``) rebuilds the graph from the retained sources
with altered link/collective costs and schedules purely from dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.spans import STEP_SPAN

#: transfer ops and the link class they ride (for re-pricing).
XFER_LINK = {"h2d": "pcie", "d2h": "pcie", "nvme-in": "nvme", "nvme-out": "nvme"}
P2P_OPS = ("send", "recv")
#: node kinds whose duration is real occupancy (track busy accounting);
#: "window" nodes alias a slice of an already-counted compute node and
#: "milestone" nodes are zero-duration synchronization points.
BUSY_KINDS = ("compute", "comm", "xfer", "host", "carry")


@dataclass
class Node:
    """One unit of work (or synchronization point) in a step graph."""

    nid: int
    rank: int            # -1 for cross-rank rendezvous milestones
    kind: str            # compute | comm | xfer | host | carry | window | milestone
    label: str
    track: str
    dur_s: float = 0.0
    deps: list[int] = field(default_factory=list)
    # pricing provenance (what-if re-pricing re-derives dur_s from these)
    op: str | None = None
    nbytes: int = 0
    group_ranks: tuple[int, ...] | None = None
    peer: tuple[int, int] | None = None
    phase: str = ""
    link: str | None = None   # "pcie" | "nvme" for xfer nodes
    # observed step-relative interval (main-track reconstruction only)
    obs_start: float | None = None
    obs_end: float | None = None
    # runtime-schedule nodes carry authoritative times; schedule() keeps them
    fixed: bool = False
    # filled by schedule()
    start_s: float = 0.0
    end_s: float = 0.0

    @property
    def busy_s(self) -> float:
        """Scheduled occupancy (0 for milestones/windows)."""
        return self.end_s - self.start_s if self.kind in BUSY_KINDS else 0.0


class StepGraph:
    """The blocking-dependency graph of one traced step, fleet-wide."""

    def __init__(self, step_index: int):
        self.step_index = step_index
        self.nodes: list[Node] = []
        #: per-rank serialized spine (main-track chain, or the replay's
        #: compute chain) in time order, as node ids.
        self.rank_chain: dict[int, list[int]] = {}
        #: per-rank step-end node id.
        self.rank_end: dict[int, int] = {}
        #: per-rank observed step time (traced span duration, or the
        #: runtime report's modeled step_s) — what the critical path is
        #: checked against.
        self.observed_step_s: dict[int, float] = {}
        #: build sources kept for what-if re-pricing:
        #: rank -> ("main", [entry...]) | ("runtime", StepSchedule).
        self.sources: dict[int, tuple] = {}
        #: per-rank tracer-clock time of the step begin (graph times are
        #: step-relative; this rebases them for trace annotation).
        self.step_start_s: dict[int, float] = {}
        self.end_nid: int | None = None  # fleet end milestone

    # -- construction --------------------------------------------------------

    def add(self, **kw) -> Node:
        node = Node(nid=len(self.nodes), **kw)
        self.nodes.append(node)
        return node

    # -- scheduling ----------------------------------------------------------

    def _topo_order(self) -> list[Node]:
        indeg = [0] * len(self.nodes)
        children: list[list[int]] = [[] for _ in self.nodes]
        for node in self.nodes:
            for d in node.deps:
                children[d].append(node.nid)
                indeg[node.nid] += 1
        ready = [n.nid for n in self.nodes if indeg[n.nid] == 0]
        order: list[Node] = []
        while ready:
            nid = ready.pop()
            order.append(self.nodes[nid])
            for c in children[nid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.nodes):
            raise ValueError("step graph has a dependency cycle")
        return order

    def schedule(self, *, observed_floors: bool = True) -> None:
        """Assign start/end times by longest-path scheduling.

        ``observed_floors=True`` keeps reconstructed nodes at their
        observed clock times unless a dependency pushes them later, and
        lands each unpushed node exactly on its observed end (bit-exact
        equality with the traced timeline). ``False`` schedules purely
        from dependencies + durations (what-if mode).
        """
        for node in self._topo_order():
            if node.fixed:
                continue
            start = 0.0
            for d in node.deps:
                dep_end = self.nodes[d].end_s
                if dep_end > start:
                    start = dep_end
            if observed_floors and node.obs_start is not None and node.obs_start > start:
                start = node.obs_start
            if (
                observed_floors
                and node.obs_end is not None
                and start == node.obs_start
            ):
                node.start_s, node.end_s = start, node.obs_end
            else:
                node.start_s, node.end_s = start, start + node.dur_s

    # -- analysis ------------------------------------------------------------

    @property
    def critical_path_s(self) -> float:
        """Fleet step time: the end of the fleet end milestone."""
        if self.end_nid is None:
            return 0.0
        return self.nodes[self.end_nid].end_s

    def rank_step_s(self, rank: int) -> float:
        return self.nodes[self.rank_end[rank]].end_s

    def binding_dep(self, node: Node) -> Node | None:
        """The dependency that determines ``node``'s start (latest end;
        earliest-listed wins ties, which prefers the same-track pred)."""
        best = None
        for d in node.deps:
            nd = self.nodes[d]
            if best is None or nd.end_s > best.end_s:
                best = nd
        return best

    def critical_path(self, *, rank: int | None = None) -> list[Node]:
        """Binding-dependency walk from the fleet end (or one rank's step
        end) back to a step-begin node, returned in time order."""
        if rank is None:
            cur = self.nodes[self.end_nid] if self.end_nid is not None else None
        else:
            cur = self.nodes[self.rank_end[rank]]
        path: list[Node] = []
        while cur is not None:
            path.append(cur)
            cur = self.binding_dep(cur)
        return list(reversed(path))

    def track_busy_s(self) -> dict[tuple[int, str], float]:
        """Busy seconds per (rank, track) — milestones/windows excluded."""
        busy: dict[tuple[int, str], float] = {}
        for node in self.nodes:
            b = node.busy_s
            if b > 0:
                key = (node.rank, node.track)
                busy[key] = busy.get(key, 0.0) + b
        return busy

    def total_busy_s(self) -> float:
        return sum(self.track_busy_s().values())


# -- source extraction --------------------------------------------------------


def _step_spans(tracer):
    return [
        s for s in tracer.spans
        if s.name == STEP_SPAN and s.end_s is not None and s.track == "step"
    ]


def _phase_label(phases, t: float) -> str:
    """Deepest depth-1 phase containing ``t`` (fallback: "step")."""
    for name, start, end in phases:
        if start <= t < end or (start <= t <= end and start == end):
            return name
    return "step"


def extract_sources(tracer, step: int) -> tuple | None:
    """Build rank ``tracer.rank``'s source descriptor for one step.

    Returns ``("runtime", payload, duration)`` when the step closed
    an offload/infinity boundary, ``("main", entries, duration)`` for a
    serialized main-clock step, or None when this rank never traced the
    step. Main entries are ``("compute", label, dur, rel_start, rel_end)``
    and ``("event", op, phase, nbytes, group_ranks, peer, dur, rel_start,
    rel_end)`` tuples, contiguous over [0, duration].
    """
    spans = _step_spans(tracer)
    if step >= len(spans):
        return None
    span = spans[step]
    t0, t1 = span.start_s, span.end_s
    runtime = tracer.runtime_steps.get(step)
    if runtime is not None:
        return ("runtime", runtime, span.duration_s)
    phases = [
        (s.name, s.start_s, s.end_s)
        for s in tracer.spans
        if s.depth == 1 and s.end_s is not None and s.track == "step"
        and s.start_s >= t0 and s.end_s <= t1
    ]
    entries: list[tuple] = []
    cursor = t0
    for ci in tracer.comm_intervals:
        if ci.step != step:
            continue
        if ci.start_s > cursor:
            mid = 0.5 * (cursor + ci.start_s)
            entries.append((
                "compute", _phase_label(phases, mid),
                ci.start_s - cursor, cursor - t0, ci.start_s - t0,
            ))
        entries.append((
            "event", ci.op, ci.phase, ci.message_bytes, ci.group_ranks,
            ci.peer, ci.duration_s, ci.start_s - t0, ci.end_s - t0,
        ))
        cursor = ci.end_s
    if t1 > cursor or not entries:
        mid = 0.5 * (cursor + t1)
        entries.append((
            "compute", _phase_label(phases, mid),
            t1 - cursor, cursor - t0, span.duration_s,
        ))
    return ("main", entries, span.duration_s)


# -- graph assembly -----------------------------------------------------------


def _add_main_rank(g: StepGraph, rank: int, entries, duration: float, pricer=None):
    """Append one rank's serialized chain; ``pricer`` (what-if) maps an
    event entry to a replacement duration (None keeps the observed one)."""
    begin = g.add(
        rank=rank, kind="milestone", label="step-begin", track="main",
        obs_start=0.0, obs_end=0.0,
    )
    chain = [begin.nid]
    prev = begin
    for entry in entries:
        if entry[0] == "compute":
            _, label, dur, rs, re = entry
            node = g.add(
                rank=rank, kind="compute", label=label, track="main",
                dur_s=dur, deps=[prev.nid], obs_start=rs, obs_end=re,
            )
        else:
            _, op, phase, nbytes, group_ranks, peer, dur, rs, re = entry
            new_dur = pricer(entry) if pricer is not None else None
            kind = "xfer" if op in XFER_LINK else "comm"
            node = g.add(
                rank=rank, kind=kind, label=op, track="main",
                dur_s=dur if new_dur is None else new_dur,
                deps=[prev.nid], op=op, nbytes=nbytes,
                group_ranks=tuple(group_ranks), peer=peer, phase=phase,
                link=XFER_LINK.get(op),
                obs_start=None if new_dur is not None else rs,
                obs_end=None if new_dur is not None else re,
            )
        chain.append(node.nid)
        prev = node
    end = g.add(
        rank=rank, kind="milestone", label="step-end", track="main",
        deps=[prev.nid],
    )
    g.rank_chain[rank] = chain
    g.rank_end[rank] = end.nid
    g.observed_step_s[rank] = duration


def add_fleet_end(g: StepGraph) -> None:
    """Close the graph with the fleet end milestone (max over rank ends)."""
    end = g.add(
        rank=-1, kind="milestone", label="fleet-end", track="rendezvous",
        deps=sorted(g.rank_end.values()),
    )
    g.end_nid = end.nid


def couple_ranks(g: StepGraph) -> None:
    """Add cross-rank edges: collective rendezvous milestones (the k-th
    occurrence of (group, op) couples every member rank at its arrival
    time) and p2p send->recv causality; then the fleet end milestone."""
    pred_of: dict[int, int] = {}
    coll: dict[tuple, dict[int, int]] = {}
    sends: dict[tuple[int, int], list[int]] = {}
    recvs: list[tuple[int, tuple[int, int], int]] = []  # (nid, peer, occ)
    occ_count: dict[tuple, int] = {}
    for rank, chain in g.rank_chain.items():
        for pos, nid in enumerate(chain):
            node = g.nodes[nid]
            if node.kind not in ("comm", "xfer"):
                continue
            pred_of[nid] = chain[pos - 1]
            if node.op in P2P_OPS:
                if node.peer is None:
                    continue
                if node.op == "send":
                    sends.setdefault(node.peer, []).append(nid)
                else:
                    key = ("recv", node.peer, rank)
                    k = occ_count.get(key, 0)
                    occ_count[key] = k + 1
                    recvs.append((nid, node.peer, k))
            elif node.group_ranks and len(node.group_ranks) > 1:
                key = (node.group_ranks, node.op, rank)
                k = occ_count.get(key, 0)
                occ_count[key] = k + 1
                coll.setdefault((node.group_ranks, node.op, k), {})[rank] = nid
    for (group_ranks, op, _k), members in sorted(coll.items()):
        if len(members) < 2:
            continue
        milestone = g.add(
            rank=-1, kind="milestone", label=f"{op}-rendezvous",
            track="rendezvous", op=op, group_ranks=group_ranks,
            deps=[pred_of[nid] for _, nid in sorted(members.items())],
        )
        for nid in members.values():
            g.nodes[nid].deps.append(milestone.nid)
    for nid, peer, k in recvs:
        matched = sends.get(peer, [])
        if k < len(matched):
            g.nodes[nid].deps.append(matched[k])
    add_fleet_end(g)


def build_step_graph(tracers: dict[int, object], step: int) -> StepGraph | None:
    """Assemble and schedule one step's fleet graph (None if untraced),
    its ranks coupled by the cross-rank rendezvous/p2p edges — the true
    fleet timeline, which on a pipeline engine shows the bubble waits
    the local clocks do not contain."""
    from repro.perfscope.runtime_replay import replay_runtime

    g = StepGraph(step)
    for rank in sorted(tracers):
        source = extract_sources(tracers[rank], step)
        if source is None:
            continue
        g.sources[rank] = source
        g.step_start_s[rank] = _step_spans(tracers[rank])[step].start_s
        if source[0] == "runtime":
            replay_runtime(g, rank, source[1])
        else:
            _, entries, duration = source
            _add_main_rank(g, rank, entries, duration)
    if not g.rank_end:
        return None
    couple_ranks(g)
    g.schedule()
    return g
