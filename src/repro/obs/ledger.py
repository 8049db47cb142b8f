"""RunLedger: the event-sourced flight recorder for supervised runs.

One ledger spans the *run* — every Supervisor attempt, every restart —
where a ``Tracer`` spans one rank's timeline and a ``FaultPlan`` spans
the injection schedule. The Supervisor, the engines, the fault fabric,
checkpoint I/O, and the redundancy layer all append typed ``RunEvent``s
(``repro.obs.events``), and everything Mission Control reports —
incidents, goodput, the run report — is derived from this one stream.

Durability follows ``zero/checkpoint_io``'s append-and-replay contract:
construct the ledger with a path and every event is appended to a JSONL
file as it happens (write-through, flushed per line); constructing a new
ledger over an existing file *replays* it, restoring the event list, the
sequence counter, the clock frontier, and the incarnation index, so a
restarted supervisor process continues the same stream where the old one
stopped. ``RunLedger.replay(path)`` loads a read-only copy for offline
analysis — same events, byte-identical derived reports.

Clock contract: the ledger clock is the maximum simulated time stamped
so far. Recorders pass their own rank clock (``t_s=tracer.clock_s``)
when they have one; the ledger stamps each event with
``max(ledger clock, t_s)`` so the stream's timeline is monotonic even
though per-rank clocks drift apart. Without telemetry every event lands
on the current frontier — step-count accounting still works, wall-time
analytics (MTTD/MTTR, goodput seconds) degenerate to zero-width.

Thread model: ``record`` is lock-guarded (rank threads and the
supervisor thread append concurrently); the ledger never calls back into
its callers, so holding the FaultPlan or engine locks while recording
cannot deadlock. The recorder's own cost is self-profiled
(``record_cpu_s`` / ``record_count``) so the overhead benchmark can
assert the ≤5 %-of-modeled-step-time contract without instrumentation.
"""

from __future__ import annotations

import pathlib
import threading
import time

from repro.obs.events import EventKind, RunEvent


class RunLedger:
    """Durable, append-only, replayable stream of run events."""

    def __init__(self, path: str | pathlib.Path | None = None):
        self.path = pathlib.Path(path) if path is not None else None
        self.events: list[RunEvent] = []
        self.clock_s = 0.0
        #: 0-based attempt index; -1 until the first ``begin_incarnation``.
        self.incarnation = -1
        #: per-incarnation tracer-log offsets for Chrome-trace stitching:
        #: ``marks[i][rank] = (len(log), len(timeline_spans),
        #: len(comm_intervals))`` at the moment incarnation ``i`` began.
        #: In-memory only — stitching needs the live session regardless.
        self.incarnation_marks: list[dict[int, tuple[int, int, int]]] = []
        #: self-profiled recording cost: thread-CPU seconds spent inside
        #: ``record`` (encode + append + flush). Thread CPU, not wall —
        #: a recorder descheduled mid-append by compute threads would
        #: otherwise be billed for their work.
        self.record_cpu_s = 0.0
        self.record_count = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._fh = None
        if self.path is not None:
            if self.path.exists():
                self._replay_file(self.path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def replay(cls, path: str | pathlib.Path) -> "RunLedger":
        """Load a read-only in-memory ledger from a JSONL file — the
        offline-analysis entry point. Derived reports (incidents,
        goodput, ``run_report``) are pure functions of the events, so a
        replayed ledger reproduces them byte-identically."""
        ledger = cls(path=None)
        ledger._replay_file(pathlib.Path(path))
        return ledger

    def _replay_file(self, path: pathlib.Path) -> None:
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            ev = RunEvent.from_json(line)
            self.events.append(ev)
            self.clock_s = max(self.clock_s, ev.t_s)
            self._seq = max(self._seq, ev.seq + 1)
            self.incarnation = max(self.incarnation, ev.incarnation)
        # Stitching marks are not replayable (they reference live tracer
        # state); a replayed ledger serves reports, not trace stitching.
        self.incarnation_marks = []

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- recording -----------------------------------------------------------

    def record(
        self,
        event_kind: str,
        *,
        rank: int | None = None,
        step: int | None = None,
        t_s: float | None = None,
        **args,
    ) -> RunEvent:
        """Append one event, stamped monotonically on the ledger clock.

        (The positional parameter is ``event_kind`` so payload keys like
        the restart event's ``kind=`` stay free for ``**args``.)
        """
        with self._lock:
            # Self-profile inside the lock: summing per-thread waits would
            # double-count one flush against every blocked recorder, so
            # the profile is the serialized cost of the recorder itself.
            cpu0 = time.thread_time()
            t = self.clock_s if t_s is None else max(self.clock_s, float(t_s))
            self.clock_s = t
            ev = RunEvent(
                seq=self._seq, kind=event_kind, t_s=t,
                incarnation=self.incarnation, rank=rank, step=step, args=args,
            )
            self._seq += 1
            self.events.append(ev)
            if self._fh is not None:
                self._fh.write(ev.to_json() + "\n")
                self._fh.flush()
            self.record_cpu_s += time.thread_time() - cpu0
            self.record_count += 1
        return ev

    def begin_incarnation(self, world_size: int, session=None) -> int:
        """Open the next attempt: bump the incarnation index, snapshot
        per-rank tracer-log offsets (for cross-restart trace stitching),
        and record the boundary event. The Supervisor calls this at the
        top of every attempt — after the previous crash's spans were
        closed, so each incarnation's log slice has balanced B/E pairs."""
        with self._lock:
            self.incarnation += 1
        mark: dict[int, tuple[int, int, int]] = {}
        if session is not None:
            for rank, tracer in sorted(session.tracers.items()):
                mark[rank] = (
                    len(tracer.log),
                    len(tracer.timeline_spans),
                    len(getattr(tracer, "comm_intervals", ())),
                )
        self.incarnation_marks.append(mark)
        self.record(EventKind.INCARNATION_STARTED, world_size=world_size)
        return self.incarnation

    # -- convenience hooks (what the instrumented layers call) ---------------

    def on_step_completed(
        self, rank: int, step: int, *, t_s: float | None = None,
        applied: bool = True,
    ) -> None:
        """Engine hook at every optimizer boundary (per rank). The event
        also keeps the rank's own clock (``rank_t_s``): the stamp is the
        ledger clock, which depends on which rank's thread arrived first."""
        clock = {} if t_s is None else {"rank_t_s": float(t_s)}
        self.record(
            EventKind.STEP_COMPLETED, rank=rank, step=step, t_s=t_s,
            applied=bool(applied), **clock,
        )

    def on_fault_injected(self, fault_event) -> None:
        """FaultPlan hook: one event per fired ``FaultEvent``, in firing
        order (called under the plan lock; the ledger lock nests safely
        because the ledger never calls back out)."""
        self.record(
            EventKind.FAULT_INJECTED, rank=fault_event.rank,
            fault=fault_event.kind, op=fault_event.op,
            detail=fault_event.detail,
        )

    # -- queries -------------------------------------------------------------

    def events_of(self, *kinds: str) -> list[RunEvent]:
        wanted = set(kinds)
        return [ev for ev in self.events if ev.kind in wanted]

    def step_frontier(self) -> int:
        """Highest step any rank has completed, across all incarnations."""
        frontier = 0
        for ev in self.events:
            if ev.kind == EventKind.STEP_COMPLETED and ev.step is not None:
                frontier = max(frontier, ev.step)
        return frontier

    def __len__(self) -> int:
        return len(self.events)
