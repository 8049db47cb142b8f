"""Telemetry exporters: Chrome trace-event JSON and ASCII step summaries.

``chrome_trace`` renders a telemetry session into the Trace Event Format
consumed by Perfetto / chrome://tracing: one process per rank, the main
span track as B/E duration events in causal order, offload side-tracks
(PCIe lanes, host Adam) as complete ("X") events, counter tracks ("C")
for allocated bytes and cumulative communication volume, and instant
events ("i") for fault retries and supervisor actions. Timestamps are the
simulated clock in microseconds.

``validate_chrome_trace`` is the invariant checker the smoke tests run on
exported artifacts: valid JSON shape, per-track monotonic timestamps, and
matched B/E pairs.

``ascii_summary`` renders the per-step table: phase times, communication
volume, peak memory, and the straggler rank.
"""

from __future__ import annotations

import json

from repro.utils.tables import format_table
from repro.utils.units import bytes_to_str

_US = 1e6  # simulated seconds -> trace microseconds

# Canonical column order for the summary table; other phases follow.
_PHASE_ORDER = ("forward", "backward", "grad-reduce", "optimizer")


def _tid_for(track: str, tids: dict[str, int]) -> int:
    if track not in tids:
        tids[track] = len(tids)
    return tids[track]


def _comm_flow_roles(tracers) -> dict[tuple[int, int], tuple[int, str]]:
    """Match each rank's comm intervals across the fleet into flows.

    The k-th occurrence of a collective on a group couples every member
    rank's k-th interval for that (group, op); a send couples with the
    matching recv via the recorded ``peer``. Returns ``(rank, interval
    index) -> (flow id, role)`` with role "s" on the flow's origin (lowest
    rank; the sender for p2p), "f" on its terminus, "t" in between.
    Singletons (nothing to link) get no flow.
    """
    occ: dict[tuple, int] = {}
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for tracer in tracers:
        for idx, ci in enumerate(getattr(tracer, "comm_intervals", ())):
            if ci.op in ("send", "recv"):
                if ci.peer is None:
                    continue
                okey = (ci.op, ci.peer, tracer.rank)
                k = occ.get(okey, 0)
                occ[okey] = k + 1
                key = ("p2p", ci.peer, k)
            elif len(ci.group_ranks) > 1:
                okey = (ci.group_ranks, ci.op, tracer.rank)
                k = occ.get(okey, 0)
                occ[okey] = k + 1
                key = ("coll", ci.group_ranks, ci.op, k)
            else:
                continue
            groups.setdefault(key, []).append((tracer.rank, idx))
    roles: dict[tuple[int, int], tuple[int, str]] = {}
    next_id = 1
    for key, members in groups.items():
        ranks = {r for r, _ in members}
        if len(ranks) < 2:
            continue
        fid = next_id
        next_id += 1
        if key[0] == "p2p":
            src, _dst = key[1]
            for rank, idx in members:
                roles[(rank, idx)] = (fid, "s" if rank == src else "f")
        else:
            lo, hi = min(ranks), max(ranks)
            for rank, idx in members:
                role = "s" if rank == lo else ("f" if rank == hi else "t")
                roles[(rank, idx)] = (fid, role)
    return roles


def tracer_events(tracer, tids, flow_roles, start=(0, 0, 0), end=(None, None, None), lane=""):
    """Trace events of one tracer's ``[start, end)`` slice of (causal log,
    side-lane spans, comm intervals), on tracks named ``lane + track`` —
    the whole tracer by default; one incarnation of it for the stitched
    cross-restart trace (``repro.obs.exporters``). Track ids are handed out
    from ``tids`` as tracks first appear."""
    pid = tracer.rank
    events: list[dict] = []
    main_tid = _tid_for(lane + "step", tids)
    # Causal log: begin/end/instant/counter entries in recorded order;
    # the clock is monotonic, so per-track timestamps are too.
    for kind, item in tracer.log[start[0]:end[0]]:
        if kind == "B":
            events.append({
                "name": item.name, "ph": "B", "pid": pid, "tid": main_tid,
                "ts": item.start_s * _US, "args": dict(item.args),
            })
        elif kind == "E":
            events.append({
                "name": item.name, "ph": "E", "pid": pid, "tid": main_tid,
                "ts": item.end_s * _US,
            })
        elif kind == "I":
            events.append({
                "name": item.name, "ph": "i", "s": "t", "pid": pid,
                "tid": main_tid, "ts": item.t_s * _US, "args": dict(item.args),
            })
        elif kind == "C":
            events.append({
                "name": item.name, "ph": "C", "pid": pid, "tid": main_tid,
                "ts": item.t_s * _US, "args": {"value": item.value},
            })
    # Tier side-tracks: explicit-interval spans, complete events.
    side = tracer.timeline_spans[start[1]:end[1]]
    for span in sorted(side, key=lambda s: (s.track, s.start_s)):
        events.append({
            "name": span.name, "ph": "X", "pid": pid,
            "tid": _tid_for(lane + span.track, tids),
            "ts": span.start_s * _US, "dur": span.duration_s * _US,
            "args": dict(span.args),
        })
    # Perfscope comm track: one complete event per priced comm event,
    # with flow events linking a collective's per-rank spans (and a
    # send to its recv). Interval lists are clock-ordered, and each
    # flow rides its own span's start ts, so the track stays monotonic.
    intervals = getattr(tracer, "comm_intervals", ())[start[2]:end[2]]
    if intervals:
        comm_tid = _tid_for(lane + "comm", tids)
        for idx, ci in enumerate(intervals, start[2]):
            events.append({
                "name": ci.op, "ph": "X", "pid": pid, "tid": comm_tid,
                "ts": ci.start_s * _US, "dur": ci.duration_s * _US,
                "args": {
                    "bytes": ci.message_bytes, "phase": ci.phase,
                    "step": ci.step,
                },
            })
            flow = flow_roles.get((tracer.rank, idx))
            if flow is not None:
                fid, role = flow
                ev = {
                    "name": ci.op, "cat": "comm-flow", "ph": role,
                    "id": fid, "pid": pid, "tid": comm_tid,
                    "ts": ci.start_s * _US,
                }
                if role == "f":
                    ev["bp"] = "e"
                events.append(ev)
    return events


def process_meta(pid: int, tids: dict[str, int]) -> list[dict]:
    """Metadata events naming rank ``pid``'s process and its tracks."""
    meta = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": f"rank {pid}"}},
        {"name": "process_sort_index", "ph": "M", "pid": pid,
         "args": {"sort_index": pid}},
    ]
    for track, tid in tids.items():
        meta.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
    return meta


def global_instant_events(instants) -> list[dict]:
    """Supervisor-process (pid -1, tid 0) instants, one per global event."""
    return [
        {"name": ev.name, "ph": "i", "s": "g", "pid": -1, "tid": 0,
         "ts": ev.t_s * _US, "args": dict(ev.args)}
        for ev in instants
    ]


def chrome_trace(tracers, global_instants=()) -> dict:
    """Build the trace-event dict for ``tracers`` (iterable of Tracer).

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — JSON-dump
    it (or use ``write_chrome_trace``) for a loadable artifact.
    """
    tracers = list(tracers)
    # Cross-rank flow links for the per-event comm tracks (empty — and
    # free — unless Perfscope recording populated comm_intervals).
    flow_roles = _comm_flow_roles(tracers)
    events: list[dict] = []
    for tracer in tracers:
        tids: dict[str, int] = {}
        events += tracer_events(tracer, tids, flow_roles)
        events += process_meta(tracer.rank, tids)
    events += global_instant_events(global_instants)
    if any(ev["pid"] == -1 for ev in events):
        events.append({
            "name": "process_name", "ph": "M", "pid": -1,
            "args": {"name": "supervisor"},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, tracers, global_instants=()) -> dict:
    trace = chrome_trace(tracers, global_instants)
    with open(path, "w") as f:
        json.dump(trace, f)
    return trace


def validate_chrome_trace(trace: dict | str) -> None:
    """Raise ``ValueError`` unless ``trace`` is a well-formed artifact:
    JSON-shaped, per-track monotonic timestamps, matched B/E pairs, and
    every flow (s/t/f) id carrying both a start and a finish."""
    if isinstance(trace, str):
        trace = json.loads(trace)  # raises on invalid JSON
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    last_ts: dict[tuple, float] = {}
    stacks: dict[tuple, list[str]] = {}
    flows: dict[object, set[str]] = {}
    for i, ev in enumerate(trace["traceEvents"]):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph not in ("B", "E", "X", "i", "C", "s", "t", "f"):
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        if ph in ("s", "t", "f"):
            if "id" not in ev:
                raise ValueError(f"event {i}: flow event without an id")
            flows.setdefault(ev["id"], set()).add(ph)
        track = (ev.get("pid"), ev.get("tid"), ev["name"] if ph == "C" else None)
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise ValueError(f"event {i}: missing numeric ts")
        if ts < last_ts.get(track, float("-inf")):
            raise ValueError(
                f"event {i}: ts {ts} goes backwards on track {track} "
                f"(last {last_ts[track]})"
            )
        last_ts[track] = ts
        if ph == "B":
            stacks.setdefault(track, []).append(ev["name"])
        elif ph == "E":
            stack = stacks.get(track) or []
            if not stack:
                raise ValueError(f"event {i}: E {ev['name']!r} with no open B")
            opened = stack.pop()
            if opened != ev["name"]:
                raise ValueError(
                    f"event {i}: E {ev['name']!r} closes B {opened!r} (mismatched pair)"
                )
        elif ph == "X" and ev.get("dur", 0) < 0:
            raise ValueError(f"event {i}: negative dur")
    for track, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed B events {stack} on track {track}")
    for fid, phs in flows.items():
        if "s" not in phs:
            raise ValueError(f"flow {fid!r} has no start ('s') event")
        if "f" not in phs:
            raise ValueError(f"flow {fid!r} has no finish ('f') event")


_METRIC_REQUIRED_FIELDS = {
    "counter": ("value",),
    "gauge": ("value", "max"),
    "histogram": ("count", "min", "max", "mean", "p95"),
}


def validate_metrics_jsonl(text: str) -> None:
    """Raise ``ValueError`` unless ``text`` is a well-formed metrics-JSONL
    export (``repro.telemetry.MetricsRegistry.to_jsonl``): one JSON object
    per line carrying the ``metrics-v1`` schema tag, a known kind with its
    kind-specific numeric fields, string-to-string labels, and no
    duplicate (name, labels) instance."""
    from repro.telemetry.metrics import METRICS_SCHEMA

    seen: set[tuple] = set()
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {i}: invalid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise ValueError(f"line {i}: not a JSON object")
        if row.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"line {i}: schema {row.get('schema')!r} != {METRICS_SCHEMA!r}"
            )
        name = row.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"line {i}: missing metric name")
        kind = row.get("kind")
        if kind not in _METRIC_REQUIRED_FIELDS:
            raise ValueError(f"line {i}: unknown metric kind {kind!r}")
        labels = row.get("labels")
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
        ):
            raise ValueError(f"line {i}: labels must map strings to strings")
        for field in _METRIC_REQUIRED_FIELDS[kind]:
            if not isinstance(row.get(field), (int, float)):
                raise ValueError(
                    f"line {i}: {kind} {name!r} lacks numeric {field!r}"
                )
        key = (name, tuple(sorted(labels.items())))
        if key in seen:
            raise ValueError(f"line {i}: duplicate metric instance {key}")
        seen.add(key)


def ascii_summary(
    tracers, *, title: str = "telemetry step summary", health=None,
    exposed_comm_pct=None,
) -> str:
    """Per-step table across ranks: phase times, comm volume, peak memory,
    and the straggler (slowest) rank. With a ``HealthMonitor`` attached
    (``health=``), the straggler cell also carries the monitor's verdict
    for that rank at that step when it is not plain healthy. With a
    Perfscope result attached (``exposed_comm_pct=``, a step ->
    percentage mapping), an exposed-comm column joins the straggler
    column; without one the table shape is unchanged."""
    tracers = list(tracers)
    if not tracers or not any(t.step_durations for t in tracers):
        return "(no steps traced)"
    n_steps = max(len(t.step_durations) for t in tracers)
    phase_names = []
    seen = set()
    for name in _PHASE_ORDER:
        for t in tracers:
            if any(name in per_step for per_step in t.step_phase_s):
                phase_names.append(name)
                seen.add(name)
                break
    extra = sorted({
        name
        for t in tracers
        for per_step in t.step_phase_s
        for name in per_step
    } - seen)
    phase_names += extra

    headers = (
        ["step"]
        + [f"{p} (ms)" for p in phase_names]
        + ["comm volume", "peak alloc", "step (ms)"]
        + (["exposed comm"] if exposed_comm_pct is not None else [])
        + ["straggler"]
    )
    rows = []
    for step in range(n_steps):
        live = [t for t in tracers if step < len(t.step_durations)]
        cells: list[str] = [str(step)]
        for name in phase_names:
            vals = [t.step_phase_s[step].get(name, 0.0) for t in live]
            cells.append(f"{1e3 * sum(vals) / len(vals):.3f}")
        comm = sum(t.step_comm_bytes[step] for t in live)
        peak = max(t.step_peak_alloc[step] for t in live)
        durations = [(t.step_durations[step], t.rank) for t in live]
        slowest, slow_rank = max(durations)
        mean_s = sum(d for d, _ in durations) / len(durations)
        lag = (slowest / mean_s - 1.0) * 100.0 if mean_s > 0 else 0.0
        straggler = f"rank {slow_rank} (+{lag:.1f}%)"
        if health is not None:
            verdict = health.verdict_for_row(step, slow_rank)
            if verdict is not None and verdict != "healthy":
                straggler += f" [{verdict}]"
        cells += [
            bytes_to_str(int(comm)),
            bytes_to_str(peak) if peak else "-",
            f"{1e3 * slowest:.3f}",
        ]
        if exposed_comm_pct is not None:
            pct = exposed_comm_pct.get(step)
            cells.append("-" if pct is None else f"{pct:.1f}%")
        cells.append(straggler)
        rows.append(cells)
    table = format_table(headers, rows, title=title)

    by_op: dict[str, float] = {}
    for t in tracers:
        for op, volume in t.comm_bytes_by_op().items():
            by_op[op] = by_op.get(op, 0.0) + volume
    if by_op:
        ops = "  ".join(
            f"{op}={bytes_to_str(int(v))}" for op, v in sorted(by_op.items())
        )
        table += f"\ncomm volume by op (all ranks): {ops}"
    return table
