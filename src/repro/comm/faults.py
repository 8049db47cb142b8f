"""Deterministic fault injection for the thread-SPMD fabric.

At the 400-GPU scale the paper evaluates, model states are partitioned
1/Nd across data-parallel ranks, so a single rank failure destroys an
irreplaceable shard of optimizer state — fault tolerance is part of the
system, not an afterthought. This module provides the *injection* side: a
``FaultPlan`` is a seeded, deterministic schedule of failures. It enters
the job only as a subscriber of the doors it injects at
(``repro.utils.doors``), answering the question each door asks:

* ``_attempting``  — may this collective attempt proceed? (told by a
  ``ProcessGroup`` before every attempt: kill-after-N-collectives and
  transient-failure rules raise here);
* ``_carrying``    — what does this collective carry? (asked ``"pre"`` for
  a contribution, ``"post"`` for a result: flip rules answer);
* ``_sending``     — does this send arrive, and when? (drop / delay rules);
* ``step_begin``   — the step lifecycle's ``faults`` point (kill-at-step
  and scribble rules fire at optimizer boundaries; it also advances the
  perf-rule window clock);
* ``checkpoint_written`` — told by ``save_checkpoint`` once a rank file
  is durable (rot rules).

``Cluster(fault_plan=...)`` subscribes the plan to every group it makes,
for each member rank, and sets each ``RankContext.faults``. Without a plan
no door has a subscriber, and behavior is byte-identical to a fault-free
build. How a fault is applied is known here and nowhere else; retrying a
transient fault is ``ProcessGroup._admit``'s semantics.

Fault taxonomy:

* **Transient** collective faults raise ``TransientCollectiveFault``.
  ``ProcessGroup`` retries them with exponential backoff under a
  ``RetryPolicy`` and records every retry in the rank's ``CommLedger``;
  a retried step produces results bitwise identical to a fault-free run
  because the rendezvous only happens once the fault clears.
* **Permanent** rank kills raise ``RankKilledError`` on the victim. The
  fabric is aborted so every peer blocked in a rendezvous raises
  ``FabricAbortedError`` promptly; the ``Supervisor`` (repro.supervisor)
  can then re-form a smaller world from the survivors.
* **P2P faults** drop a send (the receiver's timeout then aborts the
  whole fabric — see ``Fabric.recv``) or delay it by a fixed interval.
* **Performance faults** (gray failures) also raise *nothing*: the rank
  keeps participating in every collective and produces bitwise-correct
  results — it is just *slow*. ``throttle_rank`` stretches the victim's
  modeled compute time by a constant factor, ``jitter`` stretches it by
  a seeded per-step random factor, and ``degrade_link`` scales the
  alpha-beta cost of any collective whose group includes the degraded
  link. All three carry onset/duration windows (``from_step`` /
  ``until_step``) so a fault can be transient or persistent. Because a
  ZeRO step is a synchronous collective, one degraded rank gates the
  whole data-parallel world — observable only through the
  ``repro.health`` detectors reading the telemetry clock.
* **Corruption faults** raise *nothing* — that is the point. They model
  silent data corruption (SDC), the failure mode sharded state is most
  fragile to, and are only observable through the ``repro.integrity``
  detectors. Three corruption rules mirror the crash taxonomy:
  ``flip_bits`` flips seeded bits in collective payloads (``when="pre"``
  corrupts this rank's contribution before the reduction, so *every*
  rank agrees on the wrong sum — only the anomaly sentinels can see it;
  ``when="post"`` corrupts this rank's received result, so its replica
  diverges — the cross-rank audit catches it), ``scribble_tensor``
  flips bits in a resident owned shard (master / Adam moments / the
  stage-3 parameter shard) at a step boundary, and ``rot_checkpoint``
  flips bits in a checkpoint rank-file right after it is durably
  written (bit rot at rest; caught by checksum verify-on-load).

Rules fire a bounded number of times and stay consumed afterwards, so a
supervisor restart does not immediately re-trigger the same failure.
All bookkeeping is lock-guarded; random injection draws from per-rank
``numpy`` generators seeded from ``(seed, rank)`` so outcomes do not
depend on thread interleaving.
"""

from __future__ import annotations

import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np


class TransientCollectiveFault(RuntimeError):
    """A collective attempt failed transiently; the caller may retry."""


class RankKilledError(RuntimeError):
    """This rank was permanently killed by the fault plan."""

    def __init__(self, rank: int, reason: str):
        super().__init__(f"rank {rank} killed by fault plan: {reason}")
        self.rank = rank
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline policy for transient collective faults.

    ``max_attempts`` counts *total* tries (first try + retries). The
    backoff before retry ``k`` (1-based failure count) is
    ``base_backoff_s * backoff_multiplier**(k-1)`` capped at
    ``max_backoff_s``. ``deadline_s``, when set, bounds the wall-clock
    budget of one logical collective across all its attempts; a retry
    that would overshoot the deadline escalates instead of sleeping.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.005
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 0.25
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be non-negative")

    def backoff_s(self, failure_count: int) -> float:
        """Sleep before the retry following the ``failure_count``-th failure."""
        return min(
            self.base_backoff_s * self.backoff_multiplier ** max(failure_count - 1, 0),
            self.max_backoff_s,
        )


@dataclass(frozen=True)
class FaultEvent:
    """One fault the plan actually injected (for assertions/reports).

    Performance-fault rules fire continuously while their window is
    active, so they record a single onset event per rule (kinds
    "degrade-link" / "throttle" / "jitter") instead of one per firing.
    """

    kind: str  # "kill" | "transient" | "drop_send" | "delay_send"
               # | "bitflip" | "scribble" | "ckpt-rot"
               # | "degrade-link" | "throttle" | "jitter"
    rank: int  # victim rank (src rank for p2p/link faults)
    op: str    # collective op, "step", "send", "checkpoint", or "perf"
    detail: str = ""


@dataclass
class _KillRule:
    rank: int
    at_step: int | None = None
    after_collectives: int | None = None
    fired: bool = False


@dataclass
class _TransientRule:
    rank: int | None  # None = any rank
    op: str | None    # None = any collective
    nth: int          # first matching attempt to fail (1-based)
    times: int        # number of consecutive matching attempts to fail
    counts: dict[int, int] = field(default_factory=dict)  # per-rank matches


@dataclass
class _RandomRule:
    prob: float
    op: str | None
    max_faults: int
    fired: int = 0


@dataclass
class _SendRule:
    kind: str  # "drop" | "delay"
    src: int
    dst: int | None
    tag: Any | None
    nth: int
    times: int
    delay_s: float = 0.0
    counts: dict[int, int] = field(default_factory=dict)  # per-src matches


@dataclass
class _FlipRule:
    rank: int | None  # None = any rank
    op: str | None    # None = any collective payload
    when: str         # "pre" (contribution) | "post" (received result)
    nth: int
    times: int
    bits: int
    counts: dict[int, int] = field(default_factory=dict)  # per-rank matches


@dataclass
class _ScribbleRule:
    rank: int
    target: str  # "master" | "m" | "v" | "param_shard"
    at_step: int
    bits: int
    fired: bool = False


def _check_window(from_step: int, until_step: int | None) -> None:
    if from_step < 1:
        raise ValueError(f"from_step must be >= 1, got {from_step}")
    if until_step is not None and until_step < from_step:
        raise ValueError(
            f"until_step {until_step} must be >= from_step {from_step}"
        )


@dataclass
class LinkDegradeRule:
    """Gray failure on one link: collectives whose group contains both
    endpoints run with bandwidth scaled by ``bw_factor`` (0 < f <= 1)
    and per-message latency increased by ``latency_add_s``. ``dst=None``
    degrades every link out of ``src`` (a sick NIC rather than one bad
    cable). Active while the *pricing* rank's optimizer step is inside
    [``from_step``, ``until_step``]; ``until_step=None`` is persistent.
    Never raises — only the alpha-beta clock sees it."""

    src: int
    dst: int | None = None
    bw_factor: float = 0.25
    latency_add_s: float = 0.0
    from_step: int = 1
    until_step: int | None = None
    fired: bool = False    # onset event recorded
    retired: bool = False  # deactivated (victim evicted)

    def __post_init__(self):
        if not 0.0 < self.bw_factor <= 1.0:
            raise ValueError(f"bw_factor must be in (0, 1], got {self.bw_factor}")
        if self.latency_add_s < 0:
            raise ValueError(
                f"latency_add_s must be non-negative, got {self.latency_add_s}"
            )
        _check_window(self.from_step, self.until_step)

    def matches_group(self, group_ranks: tuple[int, ...]) -> bool:
        if self.src not in group_ranks:
            return False
        return self.dst is None or self.dst in group_ranks


@dataclass
class RankThrottleRule:
    """Gray failure on one GPU: the victim's modeled compute time is
    stretched by ``compute_factor`` (>= 1) while its optimizer step is
    inside the window. Never raises."""

    rank: int
    compute_factor: float = 4.0
    from_step: int = 1
    until_step: int | None = None
    fired: bool = False
    retired: bool = False

    def __post_init__(self):
        if self.compute_factor < 1.0:
            raise ValueError(
                f"compute_factor must be >= 1, got {self.compute_factor}"
            )
        _check_window(self.from_step, self.until_step)


@dataclass
class RankJitterRule:
    """Stochastic slowdown: the victim's modeled compute time is
    stretched by ``1 + |N(0, sigma)|`` drawn deterministically per
    ``(plan seed, rank, step)`` — thread-interleaving independent.
    Never raises."""

    rank: int
    sigma: float = 0.05
    from_step: int = 1
    until_step: int | None = None
    fired: bool = False
    retired: bool = False

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        _check_window(self.from_step, self.until_step)


def _match(rule, rank: int) -> int:
    """Count one more match of a count-window rule (transient, send, flip,
    rot) for ``rank``: its number when it is one of ``nth .. nth+times-1``,
    else 0."""
    c = rule.counts[rank] = rule.counts.get(rank, 0) + 1
    return c if rule.nth <= c < rule.nth + rule.times else 0


def _window_active(rule, step: int) -> bool:
    if rule.retired or step < rule.from_step:
        return False
    return rule.until_step is None or step <= rule.until_step


@dataclass
class _RotRule:
    rank: int | None  # None = any rank's checkpoint file
    nth: int
    times: int
    bits: int
    counts: dict[int, int] = field(default_factory=dict)  # per-rank saves


class FaultPlan:
    """A deterministic, seeded schedule of injected failures.

    Builder methods return ``self`` so plans read as one expression::

        plan = (FaultPlan(seed=7)
                .fail_collective(rank=1, op="all_reduce", times=2)
                .kill_rank(2, at_step=3))
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._lock = threading.Lock()
        self._kills: list[_KillRule] = []
        self._transients: list[_TransientRule] = []
        self._randoms: list[_RandomRule] = []
        self._sends: list[_SendRule] = []
        self._flips: list[_FlipRule] = []
        self._scribbles: list[_ScribbleRule] = []
        self._rots: list[_RotRule] = []
        # Performance (gray-failure) rules — never raise; observable only
        # through the telemetry clock and the repro.health detectors.
        self._links: list[LinkDegradeRule] = []
        self._throttles: list[RankThrottleRule] = []
        self._jitters: list[RankJitterRule] = []
        self._rngs: dict[int, np.random.Generator] = {}
        self._collective_count: dict[int, int] = {}
        #: last optimizer step noted per rank (perf-rule window clock)
        self._steps: dict[int, int] = {}
        #: every fault that actually fired, in firing order
        self.events: list[FaultEvent] = []
        #: ranks killed so far, in order of death (old-world numbering)
        self.killed_ranks: list[int] = []
        #: optional Mission Control recorder (``repro.obs.RunLedger``):
        #: when set, every fired event is mirrored into the run ledger in
        #: the same firing order (the Supervisor attaches it).
        self.recorder = None

    def _record_event(self, event: FaultEvent) -> None:
        """Append one fired event (and mirror it to the run ledger)."""
        self.events.append(event)
        rec = self.recorder
        if rec is not None:
            rec.on_fault_injected(event)

    # -- builders ----------------------------------------------------------

    def kill_rank(
        self, rank: int, *, at_step: int | None = None,
        after_collectives: int | None = None,
    ) -> "FaultPlan":
        """Permanently kill ``rank`` when its optimizer step reaches
        ``at_step``, or after it has issued ``after_collectives``
        collective attempts. Exactly one trigger must be given; the rule
        fires once."""
        if (at_step is None) == (after_collectives is None):
            raise ValueError("specify exactly one of at_step / after_collectives")
        self._kills.append(_KillRule(rank, at_step, after_collectives))
        return self

    def fail_collective(
        self, *, rank: int | None = None, op: str | None = None,
        nth: int = 1, times: int = 1,
    ) -> "FaultPlan":
        """Make matching collective attempts fail transiently: per rank,
        matching attempts ``nth .. nth+times-1`` (1-based) raise
        ``TransientCollectiveFault``. Retries count as new attempts, so
        ``times`` consecutive failures are cleared by ``times`` retries."""
        if nth < 1 or times < 1:
            raise ValueError("nth and times must be >= 1")
        self._transients.append(_TransientRule(rank, op, nth, times))
        return self

    def fail_randomly(
        self, *, prob: float, op: str | None = None, max_faults: int = 8
    ) -> "FaultPlan":
        """Fail collective attempts at probability ``prob`` (per attempt,
        per rank), drawn from a per-rank generator seeded from the plan
        seed — deterministic regardless of thread scheduling."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        self._randoms.append(_RandomRule(prob, op, max_faults))
        return self

    def drop_send(
        self, *, src: int, dst: int | None = None, tag: Any | None = None,
        nth: int = 1, times: int = 1,
    ) -> "FaultPlan":
        """Silently drop matching point-to-point sends (matches
        ``nth .. nth+times-1``). The receiver's timeout then aborts the
        fabric so every rank fails fast."""
        self._sends.append(_SendRule("drop", src, dst, tag, nth, times))
        return self

    def delay_send(
        self, *, src: int, delay_s: float, dst: int | None = None,
        tag: Any | None = None, nth: int = 1, times: int = 1,
    ) -> "FaultPlan":
        """Delay matching point-to-point sends by ``delay_s`` seconds."""
        if delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {delay_s}")
        self._sends.append(_SendRule("delay", src, dst, tag, nth, times, delay_s))
        return self

    def flip_bits(
        self, *, rank: int | None = None, op: str | None = None,
        when: str = "post", nth: int = 1, times: int = 1, bits: int = 1,
    ) -> "FaultPlan":
        """Silently flip ``bits`` seeded bits in matching collective
        payloads — matches ``nth .. nth+times-1`` per rank (1-based),
        counting only data-bearing payloads (barriers and meta
        collectives carry none). ``when="pre"`` corrupts the rank's
        *contribution* before the rendezvous (every rank then reduces
        the same wrong value — undetectable by replica comparison, the
        sentinels' job); ``when="post"`` corrupts the rank's *received
        result* (its replica diverges — the cross-rank audit's job).
        Raises nothing, ever."""
        if when not in ("pre", "post"):
            raise ValueError(f"when must be 'pre' or 'post', got {when!r}")
        if nth < 1 or times < 1 or bits < 1:
            raise ValueError("nth, times, and bits must be >= 1")
        self._flips.append(_FlipRule(rank, op, when, nth, times, bits))
        return self

    def scribble_tensor(
        self, *, rank: int, at_step: int, target: str = "master", bits: int = 1,
    ) -> "FaultPlan":
        """Silently flip ``bits`` seeded bits in a resident owned shard of
        ``rank`` at the start of optimizer step ``at_step`` — modeling a
        device-memory bit flip in state nobody else holds a copy of.
        ``target`` is one of the engine's owned shards: ``"master"``,
        ``"m"``, ``"v"`` (fp32 Adam state), or ``"param_shard"``
        (stage 3). Fires once; raises nothing."""
        if target not in ("master", "m", "v", "param_shard"):
            raise ValueError(
                f"target must be master/m/v/param_shard, got {target!r}"
            )
        if at_step < 1 or bits < 1:
            raise ValueError("at_step and bits must be >= 1")
        self._scribbles.append(_ScribbleRule(rank, target, at_step, bits))
        return self

    def degrade_link(
        self, *, src: int, dst: int | None = None, bw_factor: float = 0.25,
        latency_add_s: float = 0.0, from_step: int = 1,
        until_step: int | None = None,
    ) -> "FaultPlan":
        """Degrade the ``src``<->``dst`` link (all of ``src``'s links when
        ``dst`` is None): any collective whose group contains the link
        runs at ``bw_factor`` x bandwidth with ``latency_add_s`` extra
        latency, while the window is active. Raises nothing, ever — the
        fault is visible only to the alpha-beta cost model (and hence the
        telemetry clock and the health detectors)."""
        return self.add_perf_rule(LinkDegradeRule(
            src, dst, bw_factor, latency_add_s, from_step, until_step,
        ))

    def throttle_rank(
        self, *, rank: int, compute_factor: float = 4.0, from_step: int = 1,
        until_step: int | None = None,
    ) -> "FaultPlan":
        """Stretch ``rank``'s modeled compute time by ``compute_factor``
        while the window is active (a thermally throttled / degraded
        GPU). Raises nothing, ever."""
        return self.add_perf_rule(RankThrottleRule(
            rank, compute_factor, from_step, until_step,
        ))

    def jitter(
        self, *, rank: int, sigma: float = 0.05, from_step: int = 1,
        until_step: int | None = None,
    ) -> "FaultPlan":
        """Stretch ``rank``'s modeled compute time by a seeded random
        ``1 + |N(0, sigma)|`` factor, redrawn each step (OS noise,
        shared-host interference). Raises nothing, ever."""
        return self.add_perf_rule(RankJitterRule(rank, sigma, from_step, until_step))

    def add_perf_rule(
        self, rule: "LinkDegradeRule | RankThrottleRule | RankJitterRule",
    ) -> "FaultPlan":
        """Attach an already-constructed performance-fault rule."""
        if isinstance(rule, LinkDegradeRule):
            self._links.append(rule)
        elif isinstance(rule, RankThrottleRule):
            self._throttles.append(rule)
        elif isinstance(rule, RankJitterRule):
            self._jitters.append(rule)
        else:
            raise TypeError(f"not a performance-fault rule: {rule!r}")
        return self

    def rot_checkpoint(
        self, *, rank: int | None = None, nth: int = 1, times: int = 1,
        bits: int = 1,
    ) -> "FaultPlan":
        """Silently flip ``bits`` seeded bits in a rank's checkpoint file
        right after it is durably written — bit rot at rest, matching
        saves ``nth .. nth+times-1`` per rank. The save itself succeeds;
        only checksum verify-on-load (``zero/checkpoint_io``) or the
        ``VerifiedCheckpointRing``'s post-save verification can tell.
        Raises nothing."""
        if nth < 1 or times < 1 or bits < 1:
            raise ValueError("nth, times, and bits must be >= 1")
        self._rots.append(_RotRule(rank, nth, times, bits))
        return self

    # -- door answers (ProcessGroup points, the step lifecycle, saves) ------

    def note_step(self, rank: int, step: int) -> None:
        """Advance ``rank``'s perf-rule window clock to optimizer step
        ``step`` and fire its kill-at-step rules (``RankKilledError``)."""
        with self._lock:
            self._steps[rank] = step
            for rule in self._kills:
                if rule.fired or rule.rank != rank or rule.at_step is None:
                    continue
                if step >= rule.at_step:
                    self._fire_kill(rule, f"at step {step}")

    def step_begin(self, engine, boundary: bool) -> None:
        """The lifecycle's ``faults`` subscriber: at a boundary, note the
        step, then silently flip bits in the owned shards scribble rules
        aim at — only the integrity detectors can tell. A consumed rule
        stays consumed across restarts, so a rolled-back run does not
        re-corrupt itself."""
        if not boundary:
            return
        rank, step = engine.ctx.rank, engine.step_count
        self.note_step(rank, step)
        if not self._scribbles:
            return
        with self._lock:
            due = [r for r in self._scribbles if not r.fired and r.rank == rank and step >= r.at_step]
            # no shards to hit in a meta engine; no param_shard below stage 3
            shards = engine.integrity_shards() if due and not engine.is_meta else {}
            for rule in due:
                rule.fired = True
                self._record_event(FaultEvent(
                    "scribble", rank, "step", f"{rule.target} at step {step}, {rule.bits} bit(s)"
                ))
                if rule.target in shards:
                    self._flip_array_locked(rank, shards[rule.target], rule.bits)
        if engine.tracer is not None:
            for rule in due:
                if rule.target in shards:
                    engine.tracer.sdc_injected("sdc-scribble", "scribble", target=rule.target, step=step)

    def _attempting(self, group, rank: int, op: str) -> None:
        """Before every collective attempt: kill-after-N-collectives rules
        raise ``RankKilledError``, transient rules
        ``TransientCollectiveFault``."""
        with self._lock:
            count = self._collective_count.get(rank, 0) + 1
            self._collective_count[rank] = count
            for rule in self._kills:
                if rule.fired or rule.rank != rank or rule.after_collectives is None:
                    continue
                if count > rule.after_collectives:
                    self._fire_kill(rule, f"after {rule.after_collectives} collectives")
            for t in self._transients:
                if t.rank not in (None, rank) or t.op not in (None, op):
                    continue
                c = _match(t, rank)
                if c:
                    self._record_event(FaultEvent("transient", rank, op, f"match {c}"))
                    raise TransientCollectiveFault(
                        f"injected transient fault: {op!r} on rank {rank} "
                        f"(match {c} in group {group.ranks})"
                    )
            for r in self._randoms:
                if r.op not in (None, op) or r.fired >= r.max_faults:
                    continue
                rng = self._rng_for_locked(rank)
                if rng.random() < r.prob:
                    r.fired += 1
                    self._record_event(FaultEvent("transient", rank, op, "random"))
                    raise TransientCollectiveFault(
                        f"injected random transient fault: {op!r} on rank {rank}"
                    )

    def _sending(self, group, src: int, payload, dst: int, tag: Any):
        """What a point-to-point send delivers: the payload, after a delay
        rule's sleep, or None when a drop rule fires."""
        with self._lock:
            # each rule that matches counts the send, up to the first that fires
            rule = next((r for r in self._sends if r.src == src and r.dst in (None, dst)
                         and r.tag in (None, tag) and _match(r, src)), None)
            if rule is None:
                return payload
            detail = f"dst {dst} tag {tag!r}"
            if rule.kind == "drop":
                self._record_event(FaultEvent("drop_send", src, "send", detail))
                return None
            self._record_event(FaultEvent("delay_send", src, "send", f"{detail} delay {rule.delay_s}s"))
        time.sleep(rule.delay_s)
        return payload

    def _carrying(self, group, rank: int, payload, op: str, when: str):
        """What a collective carries: flip rules return a corrupted *copy*
        of a data payload (the caller's resident array is never touched —
        in-flight corruption) and tell the rank's tracer; otherwise the
        payload itself. Never raises."""
        if not self._flips or not isinstance(payload, np.ndarray) or payload.size == 0:
            return payload
        with self._lock:
            out = payload
            for rule in self._flips:
                if rule.when != when or rule.rank not in (None, rank) or rule.op not in (None, op):
                    continue
                c = _match(rule, rank)
                if not c:
                    continue
                if out is payload:
                    out = np.array(payload, copy=True)
                self._flip_array_locked(rank, out, rule.bits)
                self._record_event(
                    FaultEvent("bitflip", rank, op,
                               f"{when}-reduce, {rule.bits} bit(s), match {c}")
                )
        if out is not payload:
            tracer = getattr(group._ledgers.get(rank), "listener", None)
            if tracer is not None:
                tracer.sdc_injected("sdc-bitflip", "bitflip", op=op, when=when)
        return out

    def checkpoint_written(self, engine, path) -> None:
        """``save_checkpoint`` hands each rank file here once it is durably
        written: rot rules flip bits in it. The save itself succeeded; only
        checksum verify-on-load or the ``VerifiedCheckpointRing``'s
        post-save verification can tell. Never raises."""
        if not self._rots:
            return
        rank, path = engine.ctx.rank, pathlib.Path(path)
        rotted = False
        with self._lock:
            for rule in self._rots:
                if rule.rank not in (None, rank):
                    continue
                c = _match(rule, rank)
                if not c:
                    continue
                self._rot_file_locked(rank, path, rule.bits)
                self._record_event(
                    FaultEvent("ckpt-rot", rank, "checkpoint",
                               f"{path.name}, {rule.bits} bit(s), save {c}")
                )
                rotted = True
        if rotted and engine.tracer is not None:
            engine.tracer.sdc_injected("sdc-ckpt-rot", "ckpt-rot", path=str(path))

    # -- performance-fault hooks (raise nothing, by design) ----------------

    @property
    def has_perf_rules(self) -> bool:
        return bool(self._links or self._throttles or self._jitters)

    def compute_scale(self, rank: int, step: int) -> float:
        """Engine hook: multiplier on this rank's modeled compute seconds
        for optimizer step ``step`` (1.0 when no rule is active). Jitter
        draws are deterministic per ``(seed, rank, step)`` so the scale
        does not depend on thread interleaving or call count. Never
        raises."""
        if not (self._throttles or self._jitters):
            return 1.0
        scale = 1.0
        with self._lock:
            for rule in self._throttles:
                if rule.rank != rank or not _window_active(rule, step):
                    continue
                scale *= rule.compute_factor
                self._note_perf_onset_locked(
                    rule, "throttle", rank,
                    f"compute x{rule.compute_factor} from step {step}",
                )
            for rule in self._jitters:
                if rule.rank != rank or not _window_active(rule, step):
                    continue
                draw = np.random.default_rng(
                    np.random.SeedSequence([self.seed, rank, step, 0x7177E5])
                ).normal(0.0, rule.sigma)
                scale *= 1.0 + abs(float(draw))
                self._note_perf_onset_locked(
                    rule, "jitter", rank,
                    f"sigma {rule.sigma} from step {step}",
                )
        return scale

    def adjust_alpha_beta(
        self, rank: int | None, group_ranks: tuple[int, ...],
        alpha: float, beta: float,
    ) -> tuple[float, float]:
        """Cost-model hook: (latency_s, s/byte) for a collective over
        ``group_ranks`` as priced by ``rank``'s clock, with active link
        degradations applied — a ring collective is gated by its slowest
        link, so every group containing the degraded link pays. The
        window is checked against the pricing rank's last noted step.
        Never raises."""
        if not self._links:
            return alpha, beta
        with self._lock:
            # Events priced before the first noted boundary belong to
            # step 1 (the boundary increments before compute and comm).
            step = max(self._steps.get(rank, 0), 1) if rank is not None else 1
            for rule in self._links:
                if not _window_active(rule, step):
                    continue
                if not rule.matches_group(group_ranks):
                    continue
                alpha += rule.latency_add_s
                beta /= rule.bw_factor
                self._note_perf_onset_locked(
                    rule, "degrade-link", rule.src,
                    f"dst {rule.dst if rule.dst is not None else 'any'} "
                    f"bw x{rule.bw_factor} +{rule.latency_add_s}s latency",
                )
        return alpha, beta

    def retire_perf_rules(self, rank: int) -> int:
        """Deactivate every performance rule whose victim is ``rank`` —
        called by the Supervisor when the slow rank is evicted, so rules
        keyed on old-world numbering cannot re-attach to the survivor
        that inherits the number. Returns how many rules were retired."""
        retired = 0
        with self._lock:
            for rule in self._throttles + self._jitters:
                if rule.rank == rank and not rule.retired:
                    rule.retired = True
                    retired += 1
            for rule in self._links:
                if not rule.retired and (rule.src == rank or rule.dst == rank):
                    rule.retired = True
                    retired += 1
        return retired

    def _note_perf_onset_locked(self, rule, kind: str, rank: int, detail: str) -> None:
        if not rule.fired:
            rule.fired = True
            self._record_event(FaultEvent(kind, rank, "perf", detail))

    # -- internals ---------------------------------------------------------

    def _rng_for_locked(self, rank: int) -> np.random.Generator:
        rng = self._rngs.get(rank)
        if rng is None:
            rng = self._rngs[rank] = np.random.default_rng(
                np.random.SeedSequence([self.seed, rank])
            )
        return rng

    def _flip_array_locked(self, rank: int, array: np.ndarray, bits: int) -> None:
        rng = self._rng_for_locked(rank)
        flat = array.reshape(-1).view(np.uint8)
        for _ in range(bits):
            flat[int(rng.integers(flat.size))] ^= np.uint8(
                1 << int(rng.integers(8))
            )

    def _rot_file_locked(self, rank: int, path: pathlib.Path, bits: int) -> None:
        rng = self._rng_for_locked(rank)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            for _ in range(bits):
                offset = int(rng.integers(size))
                f.seek(offset)
                byte = f.read(1)[0]
                f.seek(offset)
                f.write(bytes([byte ^ (1 << int(rng.integers(8)))]))

    def _fire_kill(self, rule: _KillRule, detail: str) -> None:
        rule.fired = True
        self.killed_ranks.append(rule.rank)
        self._record_event(FaultEvent("kill", rule.rank, "step"
                                      if rule.at_step is not None else "collective",
                                      detail))
        raise RankKilledError(rule.rank, detail)
