"""Mission Control exporters: Prometheus dump, run report, stitched trace.

Three views over the same run:

* ``prometheus_text`` — a Prometheus text-format (0.0.4) dump of a
  ``MetricsRegistry``: ``# TYPE`` headers, sorted label sets, histograms
  rendered as summaries (p95 quantile + ``_sum``/``_count``). The output
  is deterministic (the registry's rows are sorted) so it can be diffed
  and golden-tested like the JSONL export.
* ``run_report`` — the "what happened in this run" Markdown timeline: run
  summary, goodput partition, incident table, and a collapsed event
  timeline. A pure function of the ledger's event list, so replaying a
  ledger file reproduces the report byte-identically.
* ``stitched_chrome_trace`` — one merged Chrome trace for a whole
  multi-restart run: per-rank processes with one *lane per incarnation*
  (``inc0:step``, ``inc1:step``, …), sliced out of the live tracers at
  the offsets the ledger marked when each incarnation began, plus a
  supervisor process carrying the ledger's own events as instants. Each
  lane gets its own tid, so per-track timestamps stay monotonic even
  though rank clocks persist across restarts.
"""

from __future__ import annotations

import json
import re

from repro.obs.events import EventKind
from repro.obs.goodput import compute_goodput
from repro.obs.incidents import absorbed_injections, reconstruct_incidents
from repro.telemetry.export import global_instant_events, process_meta, tracer_events

_US = 1e6  # simulated seconds -> trace microseconds


# -- Prometheus text format --------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    out = _NAME_OK.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for k in sorted(merged):
        v = str(merged[k]).replace("\\", r"\\").replace('"', r"\"")
        v = v.replace("\n", r"\n")
        parts.append(f'{_prom_name(k)}="{v}"')
    return "{" + ",".join(parts) + "}"


def _prom_num(value: float) -> str:
    return format(float(value), ".10g")


def prometheus_text(registry) -> str:
    """Render a ``MetricsRegistry`` in Prometheus exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for row in registry.rows():
        name = _prom_name(row["name"])
        kind = row["kind"]
        labels = row["labels"]
        if kind == "histogram":
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} summary")
            lines.append(
                f"{name}{_prom_labels(labels, {'quantile': '0.95'})} "
                f"{_prom_num(row['p95'])}"
            )
            lines.append(
                f"{name}_sum{_prom_labels(labels)} "
                f"{_prom_num(row['mean'] * row['count'])}"
            )
            lines.append(f"{name}_count{_prom_labels(labels)} {row['count']}")
        else:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name}{_prom_labels(labels)} {_prom_num(row['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- Markdown run report -----------------------------------------------------

#: high-volume event kinds collapsed into range lines in the timeline.
_COLLAPSE_KINDS = frozenset({EventKind.STEP_COMPLETED, EventKind.BUDDY_REFRESH})


def _fmt_t(t_s: float) -> str:
    return f"{t_s:.6f}s"


def _describe(ev) -> str:
    at = _fmt_t(ev.t_s)
    rank = "" if ev.rank is None else f" rank {ev.rank}"
    if ev.kind == EventKind.RUN_STARTED:
        return f"{at} — run started (world {ev.args.get('world_size')})"
    if ev.kind == EventKind.INCARNATION_STARTED:
        return (
            f"{at} — incarnation {ev.incarnation} started "
            f"(world {ev.args.get('world_size')})"
        )
    if ev.kind == EventKind.FAULT_INJECTED:
        detail = ev.args.get("detail", "")
        return (
            f"{at} — fault injected:{rank} {ev.args.get('fault')}"
            + (f" ({detail})" if detail else "")
        )
    if ev.kind == EventKind.FAULT_DETECTED:
        return f"{at} — fault detected: {ev.args.get('error')}{rank}"
    if ev.kind == EventKind.RESTART:
        removed = ev.args.get("removed") or []
        removal = f", removed {removed}" if removed else ""
        return (
            f"{at} — restart #{ev.args.get('attempt')} "
            f"[{ev.args.get('kind')}] world "
            f"{ev.args.get('world_before')} -> {ev.args.get('world_after')}"
            f"{removal}"
        )
    if ev.kind == EventKind.RESHARD:
        return (
            f"{at} — reshard from {ev.args.get('source')} "
            f"(world {ev.args.get('world_from')} -> {ev.args.get('world_to')}"
            f", step {ev.step})"
        )
    if ev.kind == EventKind.CHECKPOINT_SAVED:
        return f"{at} — checkpoint saved at step {ev.step}"
    if ev.kind == EventKind.CHECKPOINT_VERIFIED:
        verdict = "ok" if ev.args.get("ok") else "FAILED"
        return f"{at} — checkpoint verify {verdict} (step {ev.step})"
    if ev.kind == EventKind.RUN_FINISHED:
        return f"{at} — run finished (frontier step {ev.args.get('frontier_step')})"
    if ev.kind == EventKind.RUN_ABORTED:
        return f"{at} — run ABORTED: {ev.args.get('error')}"
    return f"{at} — {ev.kind}{rank}"


def _timeline_lines(events) -> list[str]:
    """One line per notable event; contiguous blocks of high-volume
    steady-state events (step boundaries, buddy refreshes — which
    interleave rank by rank) collapse into one range line per block."""
    lines: list[str] = []
    run: dict | None = None

    def flush() -> None:
        nonlocal run
        if run is None:
            return
        parts = []
        if run["boundaries"]:
            lo, hi = run["min_step"], run["max_step"]
            steps = f"step {lo}" if lo == hi else f"steps {lo}-{hi}"
            parts.append(
                f"{steps} completed ({run['boundaries']} boundary events)"
            )
        if run["refreshes"]:
            parts.append(f"{run['refreshes']} buddy refreshes")
        lines.append(
            f"- {_fmt_t(run['t0'])} .. {_fmt_t(run['t1'])} — "
            f"{', '.join(parts)} [incarnation {run['incarnation']}]"
        )
        run = None

    for ev in events:
        if ev.kind in _COLLAPSE_KINDS:
            if run is not None and run["incarnation"] != ev.incarnation:
                flush()
            if run is None:
                run = {
                    "incarnation": ev.incarnation,
                    "t0": ev.t_s, "t1": ev.t_s,
                    "boundaries": 0, "refreshes": 0,
                    "min_step": None, "max_step": 0,
                }
            run["t1"] = ev.t_s
            if ev.kind == EventKind.STEP_COMPLETED:
                run["boundaries"] += 1
                if ev.step is not None:
                    if run["min_step"] is None:
                        run["min_step"] = ev.step
                    run["min_step"] = min(run["min_step"], ev.step)
                    run["max_step"] = max(run["max_step"], ev.step)
            else:
                run["refreshes"] += 1
        else:
            flush()
            lines.append(f"- {_describe(ev)}")
    flush()
    return lines


def run_report(ledger) -> str:
    """Render the Markdown run report — a pure function of the ledger's
    events, so a replayed ledger produces identical bytes."""
    events = list(ledger.events)
    incidents = reconstruct_incidents(ledger)
    report = compute_goodput(ledger, incidents)
    absorbed = absorbed_injections(ledger, incidents)
    worlds = [
        ev.args.get("world_size")
        for ev in events if ev.kind == EventKind.INCARNATION_STARTED
    ]
    aborted = any(ev.kind == EventKind.RUN_ABORTED for ev in events)

    out = ["# Mission Control run report", ""]
    out += [
        "## Run summary",
        "",
        "| field | value |",
        "|---|---|",
        f"| events | {len(events)} |",
        f"| incarnations | {len(worlds)} |",
        f"| world sizes | {' -> '.join(str(w) for w in worlds) or '-'} |",
        f"| step frontier | {ledger.step_frontier()} |",
        f"| outcome | {'ABORTED' if aborted else 'finished'} |",
        f"| incidents | {report.n_incidents} |",
        f"| absorbed injections | {len(absorbed)} |",
        "",
    ]
    out += [
        "## Goodput",
        "",
        "| category | seconds | share |",
        "|---|---|---|",
    ]
    for label, secs in (
        ("productive", report.productive_s),
        ("re-execution", report.reexecution_s),
        ("recovery", report.recovery_s),
        ("idle", report.idle_s),
    ):
        share = 100.0 * secs / report.total_s if report.total_s > 0 else 0.0
        out.append(f"| {label} | {secs:.6f} | {share:.2f}% |")
    out += [
        f"| **total** | {report.total_s:.6f} | 100.00% |",
        "",
        f"run goodput: **{report.goodput_pct:.2f}%** · "
        f"mean MTTD {report.mttd_s:.6f}s · mean MTTR {report.mttr_s:.6f}s · "
        f"lost steps {report.lost_steps_total} · "
        f"re-executed boundaries {report.steps_reexecuted}",
        "",
    ]
    out += ["## Incidents", ""]
    if incidents:
        out += [
            "| # | kind | rank | restart | mttd (s) | mttr (s) | lost | "
            "re-exec | world |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for inc in incidents:
            mttd = f"{inc.mttd_s:.6f}" if inc.mttd_s is not None else "-"
            mttr = f"{inc.mttr_s:.6f}" if inc.mttr_s is not None else "-"
            rank = "-" if inc.injected_rank is None else str(inc.injected_rank)
            out.append(
                f"| {inc.index} | {inc.kind} | {rank} | {inc.restart_kind} | "
                f"{mttd} | {mttr} | {inc.lost_steps} | {inc.reexecuted_steps} "
                f"| {inc.world_before} -> {inc.world_after} |"
            )
    else:
        out.append("(no incidents)")
    out += ["", "## Timeline", ""]
    out += _timeline_lines(events)
    return "\n".join(out) + "\n"


# -- cross-restart Chrome-trace stitching ------------------------------------

#: ledger kinds mirrored onto the supervisor lane of the stitched trace.
_TRACE_LEDGER_KINDS = frozenset({
    EventKind.RUN_STARTED, EventKind.INCARNATION_STARTED,
    EventKind.FAULT_INJECTED, EventKind.FAULT_DETECTED, EventKind.RESTART,
    EventKind.RESHARD, EventKind.CHECKPOINT_SAVED,
    EventKind.CHECKPOINT_VERIFIED, EventKind.RUN_FINISHED,
    EventKind.RUN_ABORTED,
})


def _rank_slices(ledger, rank, tracer):
    """(incarnation, start offsets, end offsets) triples for one rank's
    tracer, cut at the offsets the ledger marked when each incarnation
    began. A rank missing from a mark had no tracer yet — empty slice."""
    marks = ledger.incarnation_marks
    ends = (
        len(tracer.log),
        len(tracer.timeline_spans),
        len(getattr(tracer, "comm_intervals", ())),
    )
    out = []
    for i in range(len(marks)):
        start = marks[i].get(rank, (0, 0, 0))
        end = marks[i + 1].get(rank, start) if i + 1 < len(marks) else ends
        out.append((i, start, end))
    return out


def stitched_chrome_trace(ledger, session) -> dict:
    """Merge a whole multi-restart run into one Chrome trace: per-rank
    processes with one thread lane per incarnation, plus the supervisor
    process (pid -1) carrying the session's global instants (tid 0) and
    the run ledger's events (tid 1)."""
    if session is None:
        raise ValueError("trace stitching needs the live TelemetrySession")
    if not ledger.incarnation_marks:
        raise ValueError(
            "ledger has no incarnation marks (replayed ledgers serve "
            "reports, not trace stitching)"
        )
    events: list[dict] = []
    for rank, tracer in sorted(session.tracers.items()):
        tids: dict[str, int] = {}
        for inc, start, end in _rank_slices(ledger, rank, tracer):
            if start != end:
                # No cross-rank flow links: lanes of different incarnations
                # would pair up by occurrence count.
                events += tracer_events(tracer, tids, {}, start, end, lane=f"inc{inc}:")
        events += process_meta(rank, tids)
    events += global_instant_events(session.global_instants)
    for ev in ledger.events:
        if ev.kind not in _TRACE_LEDGER_KINDS:
            continue
        args = dict(ev.args)
        args["incarnation"] = ev.incarnation
        if ev.rank is not None:
            args["rank"] = ev.rank
        if ev.step is not None:
            args["step"] = ev.step
        events.append({
            "name": ev.kind, "ph": "i", "s": "g", "pid": -1, "tid": 1,
            "ts": ev.t_s * _US, "args": args,
        })
    events.append({
        "name": "process_name", "ph": "M", "pid": -1,
        "args": {"name": "supervisor"},
    })
    events.append({
        "name": "thread_name", "ph": "M", "pid": -1, "tid": 0,
        "args": {"name": "supervisor"},
    })
    events.append({
        "name": "thread_name", "ph": "M", "pid": -1, "tid": 1,
        "args": {"name": "run-ledger"},
    })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_stitched_chrome_trace(path, ledger, session) -> dict:
    trace = stitched_chrome_trace(ledger, session)
    with open(path, "w") as f:
        json.dump(trace, f)
    return trace
