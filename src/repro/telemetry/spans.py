"""Span tracer: nested, phase-labelled spans on the simulated per-rank clock.

A ``Tracer`` is one rank's timeline. Its clock is *model time*: it only
advances when instrumentation credits it — modeled GEMM seconds from the
engines' compute model, and alpha-beta seconds for every communication
event bridged from the rank's ``CommLedger`` (priced with the same
``CommCostModel`` that ``analysis.sim_time`` uses, so a trace's span
durations and the ledger-driven step-time estimate agree by construction).

Bridges rather than duplicates:

* ``CommLedger.listener = tracer`` — every recorded ``CommEvent`` advances
  the clock by its priced cost, feeds the per-phase/per-op byte counters,
  and emits a cumulative-comm-volume counter track; every ``RetryEvent``
  becomes an instant event (recorded even while the ledger's volume
  accounting is disabled, matching the ledger's own retry contract).
* ``sample_memory(device)`` — each step's start drops an
  allocated/reserved-bytes counter track point at the current clock.

Spans named ``"step"`` are the per-step unit of account: their durations
feed the ``step_time_s`` histogram and the per-step summary table.

Everything is append-only and single-threaded per rank (each rank thread
owns its tracer), so there is no locking on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.phase import normalize_phase

STEP_SPAN = "step"


@dataclass
class Span:
    """One nested phase interval on a rank's clock."""

    name: str
    rank: int
    start_s: float
    end_s: float | None = None
    depth: int = 0
    track: str = "step"
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (fault retry, supervisor action)."""

    name: str
    rank: int
    t_s: float
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One point on a counter track (allocated bytes, cumulative volume)."""

    name: str
    rank: int
    t_s: float
    value: float


@dataclass(frozen=True)
class CommInterval:
    """One priced communication event as a clock interval on one rank.

    Recorded only when Perfscope recording is on (``Tracer.record_comm``):
    the interval is the slice of the rank's serialized clock that
    ``on_comm_event`` credited to this event, which is what lets the
    step graph be reconstructed with per-event resolution. ``step`` is
    the step-span index the event fell inside (None outside any step).
    """

    op: str
    phase: str
    message_bytes: int
    group_ranks: tuple[int, ...]
    peer: tuple[int, int] | None
    start_s: float
    end_s: float
    step: int | None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Tracer:
    """Per-rank span tracer on the simulated clock.

    ``cost_model`` (a ``repro.comm.costmodel.CommCostModel``) prices
    bridged communication events into clock time; without one the clock
    only advances through explicit ``advance`` calls. ``registry`` (a
    ``MetricsRegistry``) receives the derived metrics; optional.
    """

    def __init__(self, rank: int, *, cost_model=None, registry=None):
        self.rank = rank
        self.cost = cost_model
        self.registry = registry
        #: optional ``repro.health.HealthMonitor`` fed from this tracer's
        #: step spans and priced comm events (set by the session); None
        #: means health monitoring is disabled and nothing extra runs.
        self.health = None
        self.clock_s = 0.0
        self.spans: list[Span] = []          # completed + open, in begin order
        self.instants: list[InstantEvent] = []
        self.counters: list[CounterSample] = []
        self.timeline_spans: list[Span] = []  # explicit-time spans (offload lanes)
        #: causal export log: ("B"|"E", Span) / ("I", InstantEvent) /
        #: ("C", CounterSample) in the exact order they happened — what
        #: keeps the Chrome trace's B/E pairs nested and ts monotonic.
        self.log: list[tuple[str, object]] = []
        #: Perfscope recording switch. Off (the default) nothing below is
        #: ever appended, keeping the tracer byte-identical to the
        #: pre-Perfscope behavior; the session flips it on.
        self.record_comm = False
        #: priced comm events as clock intervals (see CommInterval).
        self.comm_intervals: list[CommInterval] = []
        #: per-step ``StepSchedule`` captures keyed by step index, recorded
        #: by ``InfinityEngine.trace_step``: the boundary's overlapped
        #: schedule, for Perfscope.
        self.runtime_steps: dict[int, object] = {}
        self._stack: list[Span] = []
        self._open_steps = 0  # step spans on ``_stack``
        #: (raw phase, op) -> (by-phase counter, by-op counter), both None
        #: without a registry.
        self._comm_keys: dict[tuple[str, str], tuple] = {}
        self._comm_nominal_bytes = 0.0
        self._comm_by_op: dict[str, float] = {}
        # Per-step accounting for the summary table; one slot per step span.
        self.step_durations: list[float] = []
        self.step_phase_s: list[dict[str, float]] = []
        self.step_comm_bytes: list[float] = []
        self.step_peak_alloc: list[int] = []

    # -- clock -------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Credit modeled time (GEMM compute, explicit waits) to the clock."""
        if seconds > 0:
            self.clock_s += seconds

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, **args) -> Span:
        span = Span(
            name=name, rank=self.rank, start_s=self.clock_s,
            depth=len(self._stack), args=args,
        )
        self.spans.append(span)
        self._stack.append(span)
        self.log.append(("B", span))
        if name == STEP_SPAN:
            self._open_steps += 1
            self.step_phase_s.append({})
            self.step_comm_bytes.append(0.0)
            self.step_peak_alloc.append(0)
        return span

    def end(self) -> Span:
        if not self._stack:
            raise RuntimeError("Tracer.end() with no open span")
        span = self._stack.pop()
        span.end_s = self.clock_s
        self.log.append(("E", span))
        if span.depth == 1 and self.step_phase_s:
            phases = self.step_phase_s[-1]
            phases[span.name] = phases.get(span.name, 0.0) + span.duration_s
        if span.name == STEP_SPAN:
            self._open_steps -= 1
            self.step_durations.append(span.duration_s)
            if self.registry is not None:
                self.registry.histogram("step_time_s", rank=self.rank).observe(
                    span.duration_s
                )
            if self.health is not None:
                # May raise SlowRankDetectedError on a confirming row —
                # the fail-slow analogue of a kill firing in note_step.
                self.health.on_step(self, span.duration_s)
        return span

    def close_open_spans(self) -> None:
        """Close every open span at the current clock (crash unwinding)."""
        while self._stack:
            self.end()

    def add_span(
        self, name: str, start_s: float, duration_s: float, *,
        track: str, **args,
    ) -> Span:
        """Record an explicit-interval span on a named side track (the
        tier runtime's PCIe/NVMe/host lanes, whose overlap timeline does not
        live on the serialized main clock)."""
        span = Span(
            name=name, rank=self.rank, start_s=float(start_s),
            end_s=float(start_s) + max(0.0, float(duration_s)),
            depth=0, track=track, args=args,
        )
        self.timeline_spans.append(span)
        return span

    # -- instants and counters ---------------------------------------------

    def instant(self, name: str, **args) -> InstantEvent:
        ev = InstantEvent(name=name, rank=self.rank, t_s=self.clock_s, args=args)
        self.instants.append(ev)
        self.log.append(("I", ev))
        return ev

    def sdc_injected(self, name: str, kind: str, **args) -> None:
        """An injected silent corruption fired on this rank: the instant
        plus the ``sdc_injections`` counter detections are scored against."""
        self.instant(name, **args)
        if self.registry is not None:
            self.registry.counter("sdc_injections", rank=self.rank, kind=kind).add(1)

    def counter(self, name: str, value: float) -> None:
        sample = CounterSample(
            name=name, rank=self.rank, t_s=self.clock_s, value=float(value)
        )
        self.counters.append(sample)
        self.log.append(("C", sample))

    def sample_memory(self, device) -> None:
        """Drop allocated/reserved counter points and update peak gauges."""
        allocated = device.allocated_bytes
        reserved = device.reserved_bytes
        self.counter("allocated_bytes", allocated)
        self.counter("reserved_bytes", reserved)
        if self.step_peak_alloc:
            self.step_peak_alloc[-1] = max(self.step_peak_alloc[-1], allocated)
        if self.registry is not None:
            self.registry.gauge("peak_allocated_bytes", rank=self.rank).set_max(allocated)
            self.registry.gauge("peak_reserved_bytes", rank=self.rank).set_max(reserved)

    # -- CommLedger bridge ---------------------------------------------------

    def current_step_index(self) -> int | None:
        """Index of the step span currently open (None outside a step)."""
        return len(self.step_durations) if self._open_steps else None

    def record_runtime_step(self, schedule) -> None:
        """Stash one boundary's runtime-schedule capture for Perfscope
        (no-op unless recording is on)."""
        if not self.record_comm:
            return
        step = self.current_step_index()
        if step is not None:
            self.runtime_steps[step] = schedule

    def on_comm_event(self, event) -> None:
        """Price one recorded ``CommEvent`` into clock time + counters."""
        if self.cost is not None:
            start_s = self.clock_s
            seconds = self.cost.event_time(event)
            self.advance(seconds)
            if self.record_comm:
                self.comm_intervals.append(CommInterval(
                    op=event.op, phase=event.phase,
                    message_bytes=event.message_bytes,
                    group_ranks=event.group_ranks,
                    peer=event.peer,
                    start_s=start_s, end_s=self.clock_s,
                    step=len(self.step_durations) if self._open_steps else None,
                ))
            if self.health is not None:
                self.health.on_comm_event(self, event, seconds)
        op = event.op
        keys = self._comm_keys.get((event.phase, op))
        if keys is None:
            keys = self._comm_keys[(event.phase, op)] = self._comm_key(event.phase, op)
        by_phase, by_op = keys
        nominal = event.nominal_bytes
        self._comm_nominal_bytes += nominal
        self._comm_by_op[op] = self._comm_by_op.get(op, 0.0) + nominal
        if self.step_comm_bytes:
            self.step_comm_bytes[-1] += nominal
        self.counter("comm_nominal_bytes", self._comm_nominal_bytes)
        if by_phase is not None:
            by_phase.add(nominal)
            by_op.add(nominal)

    def _comm_key(self, raw_phase: str, op: str) -> tuple:
        """The two comm counters ``on_comm_event`` adds one (phase, op)
        event to, labelled by the normalized phase and the op."""
        if self.registry is None:
            return None, None
        return (
            self.registry.counter(
                "comm_nominal_bytes", rank=self.rank, phase=normalize_phase(raw_phase)
            ),
            self.registry.counter("comm_nominal_bytes_by_op", rank=self.rank, op=op),
        )

    def on_retry_event(self, retry) -> None:
        """Turn one ledger ``RetryEvent`` into an instant event + counters."""
        name = "retry-gave-up" if retry.gave_up else "retry"
        self.instant(
            name, op=retry.op, attempt=retry.attempt,
            backoff_s=retry.backoff_s, error=retry.error,
        )
        if self.registry is not None:
            self.registry.counter("retries", rank=self.rank, op=retry.op).add(1)
            if retry.gave_up:
                self.registry.counter(
                    "retries_gave_up", rank=self.rank, op=retry.op
                ).add(1)

    # -- analysis ------------------------------------------------------------

    def comm_bytes_by_op(self) -> dict[str, float]:
        return dict(self._comm_by_op)
