"""Online fail-slow detection from the telemetry clock.

A gray failure never raises: the sick rank keeps answering every
collective with bitwise-correct data — it is just *slow*, and because a
ZeRO step is a synchronous collective, one slow rank gates the whole
data-parallel world (the per-GPU throughput claims of §2/Fig. 2-3 die
silently). The ``HealthMonitor`` is the detection leg of the fail-slow
defense: it is fed from the existing telemetry spans and priced
communication events — **no new timers** — and turns them into per-rank
verdicts with enough hysteresis that transient jitter never triggers.

Detector math (row-aligned, deterministic):

* Every rank's ``step`` span duration is one *sample*; sample ``i`` of
  all ranks forms detector *row* ``i``. A row is evaluated only once
  every rank has reported it, under one lock, so the verdict sequence is
  a pure function of the simulated durations — independent of thread
  interleaving.
* Per rank, the observation is the **median of its last ``SMOOTH``
  samples** (de-noises single-step jitter); the baseline is the
  **median and MAD of the pooled last ``WINDOW`` rows across all
  ranks** (robust to <50% contamination, so the straggler's own inflated
  samples cannot drag the baseline up).
* A rank is *anomalous* on a row when both its robust z-score
  ``(x - med) / (1.4826 * MAD_floored)`` exceeds ``Z_THRESHOLD`` **and**
  its slowdown ratio ``x / med`` exceeds ``SLOWDOWN_THRESHOLD``. The MAD
  is floored at ``MAD_FLOOR_REL * med`` so noiseless (zero-jitter) runs
  do not divide by zero, and the ratio gate keeps small-sigma jitter
  from ever looking anomalous no matter how tight the MAD gets.
* Verdict state machine with hysteresis::

      healthy --anomalous x SUSPECT_AFTER--> suspect
      suspect --anomalous x CONFIRM_AFTER--> confirmed-slow
      suspect --clean x CLEAR_AFTER--> healthy     (streaks reset)

  On confirm the evaluating thread raises
  ``SlowRankDetectedError`` naming the victim; the Supervisor evicts it
  through the same elastic N->M re-shard path a dead rank takes.

Link health rides the same event stream: every priced collective event
updates a per-rank EWMA (weight ``EWMA_ALPHA``) of seconds-per-byte,
compared against a baseline captured from the rank's first few events. A degraded link inflates the
alpha-beta price of every group containing it — symmetrically, for all
members — so the EWMA separates *link* causes from *compute* causes
(throttled GPUs pay more compute seconds but unchanged s/byte) in the
eviction report.

Everything here is duck-typed against the telemetry ``Tracer`` and
``MetricsRegistry``; with no monitor attached the telemetry layer never
imports this module, and behavior is byte-identical to a health-free
build.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.health.errors import SlowRankDetectedError

HEALTHY = "healthy"
SUSPECT = "suspect"
CONFIRMED = "confirmed-slow"

#: gauge encoding for health_verdict{rank}
VERDICT_CODES = {HEALTHY: 0, SUSPECT: 1, CONFIRMED: 2}

SMOOTH = 3  # per-rank smoothing (median of the last k samples)
MIN_HISTORY = 4  # rows before any verdict can change
Z_THRESHOLD = 4.0  # robust z-score gate
MAD_FLOOR_REL = 0.02  # MAD floor as a fraction of the median
LINK_BASELINE_EVENTS = 8  # events pooled into the link baseline
LINK_THRESHOLD = 2.0  # EWMA / baseline ratio -> degraded
MIN_LINK_BYTES = 1024  # ignore latency-dominated tiny messages
# The thresholds confirm a persistent ~4x straggler within half a dozen
# steps while sigma<=0.1 jitter never leaves ``healthy`` (the ratio gate
# alone guarantees that).
WINDOW = 16  # pooled baseline rows (median + MAD)
SLOWDOWN_THRESHOLD = 1.5  # x / median ratio gate
SUSPECT_AFTER = 2  # consecutive anomalous rows -> suspect
CONFIRM_AFTER = 4  # consecutive anomalous rows -> confirmed
CLEAR_AFTER = 2  # consecutive clean rows -> healthy again
EWMA_ALPHA = 0.3  # link s/byte EWMA weight
RECOVERY_TOLERANCE = 0.10  # the recovery contract's step-time band


@dataclass(frozen=True)
class HealthConfig:
    """The monitor's configuration. The detector's thresholds are the
    module constants above; a confirm always raises
    ``SlowRankDetectedError``."""


@dataclass(frozen=True)
class HealthTransition:
    """One verdict change (for assertions / reports)."""

    row: int          # 0-based detector row
    rank: int
    before: str
    after: str
    slowdown: float
    z: float
    cause: str        # "compute" | "link"


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of the post-eviction throughput-recovery contract."""

    ok: bool
    mean_step_s: float
    predicted_step_s: float
    ratio: float          # mean / predicted
    tolerance: float
    steps: int


def verify_recovery(step_durations, predicted_step_s: float) -> RecoveryReport:
    """The throughput-recovery contract: post-eviction simulated step time
    must sit within ``RECOVERY_TOLERANCE`` of the healthy-world analytic
    prediction (``analysis.sim_time`` / a fault-free cost model)."""
    durations = [float(d) for d in step_durations]
    if not durations or predicted_step_s <= 0:
        return RecoveryReport(False, 0.0, predicted_step_s, 0.0, RECOVERY_TOLERANCE, 0)
    mean = sum(durations) / len(durations)
    ratio = mean / predicted_step_s
    return RecoveryReport(
        ok=abs(ratio - 1.0) <= RECOVERY_TOLERANCE,
        mean_step_s=mean,
        predicted_step_s=predicted_step_s,
        ratio=ratio,
        tolerance=RECOVERY_TOLERANCE,
        steps=len(durations),
    )


class _RankState:
    __slots__ = (
        "samples", "verdict", "anomalous_streak", "clean_streak",
        "slowdown", "z", "link_ewma", "link_baseline", "link_samples",
        "link_flagged", "link_gauge",
    )

    def __init__(self):
        self.samples: list[float] = []
        self.verdict = HEALTHY
        self.anomalous_streak = 0
        self.clean_streak = 0
        self.slowdown = 1.0
        self.z = 0.0
        self.link_ewma: float | None = None
        self.link_baseline: float | None = None
        self.link_samples: list[float] = []
        self.link_flagged = False
        self.link_gauge = None  # this rank's link_slowdown_factor gauge


class HealthMonitor:
    """Per-rank fail-slow verdicts from bridged telemetry samples.

    Attach through the session (``TelemetrySession(health=...)``, which
    sets ``registry``); the tracers call ``on_step`` / ``on_comm_event``
    and the ``Cluster`` binds the world size (``bind_world``) at launch —
    a Supervisor relaunch therefore resets the detector windows automatically, which
    is required: survivor ranks are renumbered and the world shrinks, so
    stale per-rank history would both misattribute and stall row
    completion.
    """

    def __init__(self, config: HealthConfig | None = None):
        self.config = config or HealthConfig()
        self.registry = None
        self.world_size: int | None = None
        self._lock = threading.Lock()
        self._ranks: dict[int, _RankState] = {}
        self._rows_evaluated = 0
        #: verdict snapshot per evaluated row: {rank: verdict}
        self.verdict_history: list[dict[int, str]] = []
        #: every verdict change, in evaluation order
        self.transitions: list[HealthTransition] = []
        self._raised_for: set[int] = set()

    # -- lifecycle ---------------------------------------------------------

    def bind_world(self, world_size: int) -> None:
        """(Re)bind to a world of ``world_size`` ranks and reset all
        detector state. Called by ``Cluster`` at launch; idempotent for
        a single run, a fresh window after every Supervisor relaunch."""
        with self._lock:
            self.world_size = world_size
            self._ranks = {}
            self._rows_evaluated = 0
            self._raised_for = set()
            # verdict_history / transitions are kept: they are the run's
            # forensic record across attempts (rows keep counting up).

    def reset(self) -> None:
        """Full reset, history included (tests / reuse across jobs)."""
        with self._lock:
            self._ranks = {}
            self._rows_evaluated = 0
            self._raised_for = set()
            self.verdict_history = []
            self.transitions = []

    # -- introspection -----------------------------------------------------

    def verdict(self, rank: int) -> str:
        with self._lock:
            state = self._ranks.get(rank)
            return state.verdict if state is not None else HEALTHY

    def slowdown(self, rank: int) -> float:
        """Last smoothed step-time ratio vs the pooled median."""
        with self._lock:
            state = self._ranks.get(rank)
            return state.slowdown if state is not None else 1.0

    def verdict_for_row(self, row: int, rank: int) -> str | None:
        """Verdict of ``rank`` as of detector row ``row`` (None if the
        row was never evaluated — e.g. summary steps past a crash)."""
        with self._lock:
            if 0 <= row < len(self.verdict_history):
                return self.verdict_history[row].get(rank)
            return None

    # -- tracer hooks (called from rank threads) ---------------------------

    def on_step(self, tracer, duration_s: float) -> None:
        """One completed ``step`` span on ``tracer``'s rank. Appends the
        sample, evaluates every newly completed row, and — on a confirm —
        raises ``SlowRankDetectedError`` from this thread (the victim is
        named in the error; the Supervisor treats it like a rank death)."""
        new_transitions: list[HealthTransition] = []
        evict: HealthTransition | None = None
        with self._lock:
            if self.world_size is None:
                return
            self._state_locked(tracer.rank).samples.append(float(duration_s))
            while self._row_complete_locked():
                for tr in self._evaluate_row_locked(self._rows_evaluated):
                    new_transitions.append(tr)
                    if tr.after == CONFIRMED and tr.rank not in self._raised_for:
                        self._raised_for.add(tr.rank)
                        evict = tr
                self._rows_evaluated += 1
        # Instants go on the *calling* tracer only (tracers are
        # single-threaded by contract); the victim rank rides in args.
        for tr in new_transitions:
            tracer.instant(
                "health-verdict", rank=tr.rank, verdict=tr.after,
                row=tr.row, slowdown=round(tr.slowdown, 4),
                z=round(tr.z, 2), cause=tr.cause,
            )
        if evict is not None:
            raise SlowRankDetectedError(
                evict.rank, step=evict.row + 1,
                slowdown=evict.slowdown, cause=evict.cause,
            )

    def on_comm_event(self, tracer, event, seconds: float) -> None:
        """One priced communication event from ``tracer``'s ledger
        bridge: update the rank's s/byte EWMA and baseline."""
        bytes_ = event.message_bytes
        if (
            bytes_ < MIN_LINK_BYTES
            or seconds <= 0.0
            or event.op in ("h2d", "d2h", "barrier")
        ):
            return
        sec_per_byte = seconds / bytes_
        flagged = None
        with self._lock:
            state = self._state_locked(tracer.rank)
            if len(state.link_samples) < LINK_BASELINE_EVENTS:
                state.link_samples.append(sec_per_byte)
                if len(state.link_samples) == LINK_BASELINE_EVENTS:
                    state.link_baseline = float(np.median(state.link_samples))
            state.link_ewma = (
                sec_per_byte if state.link_ewma is None
                else EWMA_ALPHA * sec_per_byte + (1.0 - EWMA_ALPHA) * state.link_ewma
            )
            if state.link_baseline:
                factor = state.link_ewma / state.link_baseline
                if self.registry is not None:
                    if state.link_gauge is None:
                        state.link_gauge = self.registry.gauge(
                            "link_slowdown_factor", rank=tracer.rank
                        )
                    state.link_gauge.set(factor)
                if factor > LINK_THRESHOLD and not state.link_flagged:
                    state.link_flagged = True
                    flagged = factor
        if flagged is not None:
            tracer.instant(
                "health-link-degraded", rank=tracer.rank,
                factor=round(flagged, 3),
            )

    # -- internals ---------------------------------------------------------

    def _state_locked(self, rank: int) -> _RankState:
        state = self._ranks.get(rank)
        if state is None:
            state = self._ranks[rank] = _RankState()
        return state

    def _row_complete_locked(self) -> bool:
        row = self._rows_evaluated
        return all(
            len(self._state_locked(r).samples) > row
            for r in range(self.world_size)
        )

    def _evaluate_row_locked(self, row: int) -> list[HealthTransition]:
        lo = max(0, row - WINDOW + 1)
        pooled = [
            self._ranks[r].samples[j]
            for r in range(self.world_size)
            for j in range(lo, row + 1)
        ]
        med = float(np.median(pooled))
        mad = float(np.median([abs(v - med) for v in pooled]))
        sigma = 1.4826 * max(mad, MAD_FLOOR_REL * med, 1e-12)
        transitions: list[HealthTransition] = []
        for r in range(self.world_size):
            state = self._ranks[r]
            s_lo = max(0, row - SMOOTH + 1)
            x = float(np.median(state.samples[s_lo:row + 1]))
            state.slowdown = x / med if med > 0 else 1.0
            state.z = (x - med) / sigma
            anomalous = (
                row + 1 >= MIN_HISTORY
                and state.z > Z_THRESHOLD
                and state.slowdown > SLOWDOWN_THRESHOLD
            )
            before = state.verdict
            if anomalous:
                state.anomalous_streak += 1
                state.clean_streak = 0
                if (
                    state.verdict == HEALTHY
                    and state.anomalous_streak >= SUSPECT_AFTER
                ):
                    state.verdict = SUSPECT
                if (
                    state.verdict == SUSPECT
                    and state.anomalous_streak >= CONFIRM_AFTER
                ):
                    state.verdict = CONFIRMED
            else:
                state.clean_streak += 1
                state.anomalous_streak = 0
                # Confirmed is sticky: remediation, not recovery, clears it.
                if state.verdict == SUSPECT and state.clean_streak >= CLEAR_AFTER:
                    state.verdict = HEALTHY
            if self.registry is not None:
                self.registry.gauge("health_verdict", rank=r).set(
                    VERDICT_CODES[state.verdict]
                )
                self.registry.gauge("rank_slowdown_factor", rank=r).set(
                    state.slowdown
                )
            if state.verdict != before:
                cause = (
                    "link"
                    if (
                        state.link_baseline
                        and state.link_ewma is not None
                        and state.link_ewma / state.link_baseline
                        > LINK_THRESHOLD
                    )
                    else "compute"
                )
                tr = HealthTransition(
                    row=row, rank=r, before=before, after=state.verdict,
                    slowdown=state.slowdown, z=state.z, cause=cause,
                )
                state_counter = f"health_{state.verdict.replace('-', '_')}"
                if self.registry is not None:
                    self.registry.counter(state_counter, rank=r).add(1)
                self.transitions.append(tr)
                transitions.append(tr)
        self.verdict_history.append(
            {r: self._ranks[r].verdict for r in range(self.world_size)}
        )
        return transitions
