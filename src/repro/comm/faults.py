"""Deterministic fault injection for the thread-SPMD fabric.

At the 400-GPU scale the paper evaluates, model states are partitioned
1/Nd across data-parallel ranks, so a single rank failure destroys an
irreplaceable shard of optimizer state — fault tolerance is part of the
system, not an afterthought. This module provides the *injection* side: a
``FaultPlan`` is a seeded, deterministic schedule of failures. It enters
the job only as a subscriber of the doors it injects at
(``repro.utils.doors``). ``Cluster(fault_plan=...)`` subscribes the plan
to every group it makes, for each member rank, and sets each
``RankContext.faults``. Without a plan no door has a subscriber, and
behavior is byte-identical to a fault-free build. How a fault is applied
is known here and nowhere else; retrying a transient fault is
``ProcessGroup._admit``'s semantics.

A fault is one rule: *at which door, on what match, in which window, with
what effect*. The twelve builders only validate their arguments and file
one ``_Rule`` in the list of its door (docs/ARCHITECTURE.md §7 has the
full table)::

    door     answered by               window             effects
    step     step_begin / note_step    step, fires once   kill, scribble
    attempt  _attempting               per-rank count     kill, transient, random
    send     _sending                  per-src count      drop, delay
    carry    _carrying                 per-rank count     flip
    save     checkpoint_written        per-rank count     rot
    compute  compute_scale             step range         throttle, jitter
    link     adjust_alpha_beta         step range         link

A door evaluates its rules in one loop, in effect order (kills before
scribbles and transients, transients before random faults, throttles
before jitter) and by insertion within an effect; the first rule that
raises ends the loop. A count window fires on matches ``nth ..
nth+times-1`` per rank; a step window while the rank's optimizer step is
in ``from_step .. until_step``; a random rule has no window, only a budget
of ``max_faults`` fires over all ranks.

Effects by family:

* **Transient** collective faults raise ``TransientCollectiveFault``;
  ``ProcessGroup`` retries them under a ``RetryPolicy`` and ledgers every
  retry, and the retried step is bitwise a fault-free one.
* **Kills** raise ``RankKilledError`` on the victim; the fabric aborts so
  every peer raises promptly and the ``Supervisor`` can re-form a smaller
  world from the survivors.
* **P2P faults** drop a send (the receiver's timeout aborts the fabric)
  or delay it.
* **Performance faults** (gray failures: throttle, jitter, link) raise
  nothing and keep results bitwise correct; they only stretch the modeled
  clock, so only the ``repro.health`` detectors see them. Each records one
  onset event, and the ``Supervisor`` retires them when it evicts the
  victim.
* **Corruption faults** (flip, scribble, rot) raise nothing either: they
  model silent data corruption, seen only by the ``repro.integrity``
  detectors.

Rules stay consumed after they fire, so a supervisor restart does not
re-trigger the same failure. All bookkeeping is lock-guarded; random
injection draws from per-rank ``numpy`` generators seeded from ``(seed,
rank)`` so outcomes do not depend on thread interleaving.
"""

from __future__ import annotations

import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

BACKOFF_MULTIPLIER = 2.0  # each retry's backoff over the previous one
MAX_BACKOFF_S = 0.25  # the backoff's cap


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
    """Retry/backoff policy for transient collective faults.

    ``max_attempts`` counts *total* tries (first try + retries). The
    backoff before retry ``k`` (1-based failure count) is
    ``base_backoff_s * BACKOFF_MULTIPLIER**(k-1)`` capped at
    ``MAX_BACKOFF_S``.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.005

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0:
            raise ValueError("backoff times must be non-negative")

    def backoff_s(self, failure_count: int) -> float:
        """Sleep before the retry following the ``failure_count``-th failure."""
        return min(
            self.base_backoff_s * BACKOFF_MULTIPLIER ** max(failure_count - 1, 0),
            MAX_BACKOFF_S,
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


#: The doors a plan answers at, each with its own list of rules.
_DOORS = ("step", "attempt", "send", "carry", "save", "compute", "link")
#: An effect's place in its door's evaluation order; equal places keep
#: insertion order (drops and delays share one, as do all the rest).
_EVAL_ORDER = {"scribble": 1, "transient": 1, "jitter": 1, "random": 2}


@dataclass(eq=False)
class _Rule:
    """One fault: the ``effect`` it has, the door fields it ``match``es
    (a tuple in the door's field order, None = any), its ``window``, the
    effect's ``argument`` and its ``state``: per-rank match counts keyed by
    rank, ``"fired"`` (fires so far) and ``"retired"``."""

    effect: str
    match: tuple
    window: tuple  # (nth, times) a count window; (from_step, until_step) a step window
    argument: Any = None
    state: dict = field(default_factory=dict)

    def count(self, rank: int) -> int:
        """Count one more match for ``rank``: its number when it is one of
        ``nth .. nth+times-1``, else 0."""
        c = self.state[rank] = self.state.get(rank, 0) + 1
        nth, times = self.window
        return c if nth <= c < nth + times else 0

    def active(self, step: int) -> bool:
        """Whether ``step`` is in the step window (never once retired)."""
        lo, hi = self.window
        return lo <= step and (hi is None or step <= hi) and not self.state.get("retired")


def _check_window(from_step: int, until_step: int | None) -> None:
    if from_step < 1:
        raise ValueError(f"from_step must be >= 1, got {from_step}")
    if until_step is not None and until_step < from_step:
        raise ValueError(f"until_step {until_step} must be >= from_step {from_step}")


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
        #: each door's rules, in evaluation order
        self._rules: dict[str, list[_Rule]] = {door: [] for door in _DOORS}
        self._rngs: dict[int, np.random.Generator] = {}
        #: collective attempts seen per rank
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

    def _add(self, door: str, effect: str, match: tuple, window: tuple,
             argument: Any = None) -> "FaultPlan":
        """File one rule in ``door``'s list, in evaluation order. The list
        is replaced, not edited, so a door reading it never sees it move."""
        with self._lock:
            rules = [*self._rules[door], _Rule(effect, match, window, argument)]
            rules.sort(key=lambda rule: _EVAL_ORDER.get(rule.effect, 0))
            self._rules[door] = rules
        return self

    # -- builders ----------------------------------------------------------

    def kill_rank(self, rank: int, *, at_step: int | None = None,
                  after_collectives: int | None = None) -> "FaultPlan":
        """Permanently kill ``rank`` when its optimizer step reaches
        ``at_step``, or after it has issued ``after_collectives``
        collective attempts. Exactly one trigger must be given; the rule
        fires once."""
        if (at_step is None) == (after_collectives is None):
            raise ValueError("specify exactly one of at_step / after_collectives")
        if at_step is not None:
            return self._add("step", "kill", (rank,), (at_step, None))
        return self._add("attempt", "kill", (rank, None), (after_collectives + 1, 1))

    def fail_collective(self, *, rank: int | None = None, op: str | None = None,
                        nth: int = 1, times: int = 1) -> "FaultPlan":
        """Make matching collective attempts fail transiently: per rank,
        matching attempts ``nth .. nth+times-1`` (1-based) raise
        ``TransientCollectiveFault``. Retries count as new attempts, so
        ``times`` consecutive failures are cleared by ``times`` retries."""
        if nth < 1 or times < 1:
            raise ValueError("nth and times must be >= 1")
        return self._add("attempt", "transient", (rank, op), (nth, times))

    def fail_randomly(self, *, prob: float, max_faults: int = 8) -> "FaultPlan":
        """Fail collective attempts at probability ``prob`` (per attempt,
        per rank), drawn from a per-rank generator seeded from the plan
        seed — deterministic regardless of thread scheduling. At most
        ``max_faults`` fire over all ranks."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        return self._add("attempt", "random", (None, None), (), (prob, max_faults))

    def drop_send(self, *, src: int, dst: int | None = None, tag: Any | None = None,
                  nth: int = 1, times: int = 1) -> "FaultPlan":
        """Silently drop matching point-to-point sends (matches
        ``nth .. nth+times-1``). The receiver's timeout then aborts the
        fabric so every rank fails fast."""
        return self._add("send", "drop", (src, dst, tag), (nth, times))

    def delay_send(self, *, src: int, delay_s: float, dst: int | None = None,
                   tag: Any | None = None, times: int = 1) -> "FaultPlan":
        """Delay matching point-to-point sends by ``delay_s`` seconds."""
        if delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {delay_s}")
        return self._add("send", "delay", (src, dst, tag), (1, times), delay_s)

    def flip_bits(self, *, rank: int | None = None, op: str | None = None,
                  when: str = "post", nth: int = 1, times: int = 1, bits: int = 1) -> "FaultPlan":
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
        return self._add("carry", "flip", (rank, op, when), (nth, times), bits)

    def scribble_tensor(self, *, rank: int, at_step: int, target: str = "master",
                        bits: int = 1) -> "FaultPlan":
        """Silently flip ``bits`` seeded bits in a resident owned shard of
        ``rank`` at the start of optimizer step ``at_step`` — modeling a
        device-memory bit flip in state nobody else holds a copy of.
        ``target`` is one of the engine's owned shards: ``"master"``,
        ``"m"``, ``"v"`` (fp32 Adam state), or ``"param_shard"``
        (stage 3). Fires once; raises nothing."""
        if target not in ("master", "m", "v", "param_shard"):
            raise ValueError(f"target must be master/m/v/param_shard, got {target!r}")
        if at_step < 1 or bits < 1:
            raise ValueError("at_step and bits must be >= 1")
        return self._add("step", "scribble", (rank,), (at_step, None), (target, bits))

    def degrade_link(self, *, src: int, dst: int | None = None, bw_factor: float = 0.25,
                     latency_add_s: float = 0.0, from_step: int = 1,
                     until_step: int | None = None) -> "FaultPlan":
        """Degrade the ``src``<->``dst`` link (all of ``src``'s links when
        ``dst`` is None — a sick NIC rather than one bad cable): any
        collective whose group contains the link runs at ``bw_factor``
        (0 < f <= 1) x bandwidth with ``latency_add_s`` extra latency,
        while the *pricing* rank's optimizer step is inside the window
        (``until_step=None`` is persistent). Raises nothing, ever — the
        fault is visible only to the alpha-beta cost model (and hence the
        telemetry clock and the health detectors)."""
        if not 0.0 < bw_factor <= 1.0:
            raise ValueError(f"bw_factor must be in (0, 1], got {bw_factor}")
        if latency_add_s < 0:
            raise ValueError(f"latency_add_s must be non-negative, got {latency_add_s}")
        _check_window(from_step, until_step)
        return self._add("link", "link", (src, dst), (from_step, until_step),
                         (bw_factor, latency_add_s))

    def throttle_rank(self, *, rank: int, compute_factor: float = 4.0, from_step: int = 1,
                      until_step: int | None = None) -> "FaultPlan":
        """Stretch ``rank``'s modeled compute time by ``compute_factor``
        (>= 1) while the window is active (a thermally throttled /
        degraded GPU). Raises nothing, ever."""
        if compute_factor < 1.0:
            raise ValueError(f"compute_factor must be >= 1, got {compute_factor}")
        _check_window(from_step, until_step)
        return self._add("compute", "throttle", (rank,), (from_step, until_step), compute_factor)

    def jitter(self, *, rank: int, sigma: float = 0.05, from_step: int = 1,
               until_step: int | None = None) -> "FaultPlan":
        """Stretch ``rank``'s modeled compute time by a random
        ``1 + |N(0, sigma)|`` factor, drawn per ``(plan seed, rank, step)``
        (OS noise, shared-host interference) — thread-interleaving
        independent. Raises nothing, ever."""
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        _check_window(from_step, until_step)
        return self._add("compute", "jitter", (rank,), (from_step, until_step), sigma)

    def rot_checkpoint(self, *, rank: int | None = None, nth: int = 1, times: int = 1,
                       bits: int = 1) -> "FaultPlan":
        """Silently flip ``bits`` seeded bits in a rank's checkpoint file
        right after it is durably written — bit rot at rest, matching
        saves ``nth .. nth+times-1`` per rank. The save itself succeeds;
        only checksum verify-on-load (``zero/checkpoint_io``) or the
        ``VerifiedCheckpointRing``'s post-save verification can tell.
        Raises nothing."""
        if nth < 1 or times < 1 or bits < 1:
            raise ValueError("nth, times, and bits must be >= 1")
        return self._add("save", "rot", (rank,), (nth, times), bits)

    # -- door answers (ProcessGroup points, the step lifecycle, saves) ------

    def step_begin(self, engine, boundary: bool) -> None:
        """The lifecycle's ``faults`` subscriber: at a boundary, note the
        step (``note_step``) with ``engine`` as the scribble rules' target."""
        if boundary:
            self.note_step(engine.ctx.rank, engine.step_count, engine)

    def note_step(self, rank: int, step: int, engine=None) -> None:
        """Advance ``rank``'s perf-rule window clock to optimizer step
        ``step`` and fire its due step rules, each once: a kill raises
        ``RankKilledError``; a scribble silently flips bits in ``engine``'s
        owned shard (none in a meta engine; no ``param_shard`` below stage
        3) — only the integrity detectors can tell. A consumed rule stays
        consumed across restarts, so a rolled-back run does not re-corrupt
        itself."""
        shards, hit = None, []
        with self._lock:
            self._steps[rank] = step
            for rule in self._rules["step"]:
                if rule.match[0] != rank or "fired" in rule.state or not rule.active(step):
                    continue
                if rule.effect == "kill":
                    self._fire_kill(rule, "step", f"at step {step}")
                if engine is None:
                    continue
                rule.state["fired"] = 1
                target, bits = rule.argument
                self._record_event(FaultEvent(
                    "scribble", rank, "step", f"{target} at step {step}, {bits} bit(s)"
                ))
                if shards is None:
                    shards = {} if engine.is_meta else engine.integrity_shards()
                if target in shards:
                    self._flip_array_locked(rank, shards[target], bits)
                    hit.append(target)
        if hit and engine.tracer is not None:
            for target in hit:
                engine.tracer.sdc_injected("sdc-scribble", "scribble", target=target, step=step)

    def _attempting(self, group, rank: int, op: str) -> None:
        """Before every collective attempt: kill rules raise
        ``RankKilledError``, transient and random rules
        ``TransientCollectiveFault``."""
        with self._lock:
            self._collective_count[rank] = self._collective_count.get(rank, 0) + 1
            for rule in self._rules["attempt"]:
                r, o = rule.match
                if r not in (None, rank) or o not in (None, op):
                    continue
                if rule.effect == "random":
                    prob, budget = rule.argument
                    fired = rule.state.get("fired", 0)
                    if fired >= budget or self._rng_for_locked(rank).random() >= prob:
                        continue
                    rule.state["fired"] = fired + 1
                    self._record_event(FaultEvent("transient", rank, op, "random"))
                    raise TransientCollectiveFault(
                        f"injected random transient fault: {op!r} on rank {rank}"
                    )
                c = rule.count(rank)
                if not c:
                    continue
                if rule.effect == "kill":
                    self._fire_kill(rule, "collective", f"after {rule.window[0] - 1} collectives")
                self._record_event(FaultEvent("transient", rank, op, f"match {c}"))
                raise TransientCollectiveFault(
                    f"injected transient fault: {op!r} on rank {rank} "
                    f"(match {c} in group {group.ranks})"
                )

    def _sending(self, group, src: int, payload, dst: int, tag: Any):
        """What a point-to-point send delivers: the payload, after a delay
        rule's sleep, or None when a drop rule fires."""
        with self._lock:
            # each rule that matches counts the send, up to the first that fires
            for rule in self._rules["send"]:
                s, d, t = rule.match
                if s == src and d in (None, dst) and t in (None, tag) and rule.count(src):
                    break
            else:
                return payload
            detail = f"dst {dst} tag {tag!r}"
            if rule.effect == "drop":
                self._record_event(FaultEvent("drop_send", src, "send", detail))
                return None
            self._record_event(
                FaultEvent("delay_send", src, "send", f"{detail} delay {rule.argument}s"))
        time.sleep(rule.argument)
        return payload

    def _carrying(self, group, rank: int, payload, op: str, when: str):
        """What a collective carries: flip rules return a corrupted *copy*
        of a data payload (the caller's resident array is never touched —
        in-flight corruption) and tell the rank's tracer; otherwise the
        payload itself. Never raises."""
        rules = self._rules["carry"]
        if not rules or not isinstance(payload, np.ndarray) or payload.size == 0:
            return payload
        with self._lock:
            out = payload
            for rule in rules:
                r, o, w = rule.match
                if w != when or r not in (None, rank) or o not in (None, op):
                    continue
                c = rule.count(rank)
                if not c:
                    continue
                if out is payload:
                    out = np.array(payload, copy=True)
                self._flip_array_locked(rank, out, rule.argument)
                self._record_event(FaultEvent(
                    "bitflip", rank, op, f"{when}-reduce, {rule.argument} bit(s), match {c}"
                ))
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
        rules = self._rules["save"]
        if not rules:
            return
        rank, path = engine.ctx.rank, pathlib.Path(path)
        rotted = False
        with self._lock:
            for rule in rules:
                if rule.match[0] not in (None, rank):
                    continue
                c = rule.count(rank)
                if not c:
                    continue
                self._rot_file_locked(rank, path, rule.argument)
                self._record_event(FaultEvent(
                    "ckpt-rot", rank, "checkpoint", f"{path.name}, {rule.argument} bit(s), save {c}"
                ))
                rotted = True
        if rotted and engine.tracer is not None:
            engine.tracer.sdc_injected("sdc-ckpt-rot", "ckpt-rot", path=str(path))

    # -- performance-fault hooks (raise nothing, by design) ----------------

    @property
    def has_perf_rules(self) -> bool:
        return bool(self._rules["compute"] or self._rules["link"])

    def compute_scale(self, rank: int, step: int) -> float:
        """Engine hook: multiplier on this rank's modeled compute seconds
        for optimizer step ``step`` (1.0 when no rule is active). Jitter
        draws are deterministic per ``(seed, rank, step)`` so the scale
        does not depend on thread interleaving or call count. Never
        raises."""
        rules = self._rules["compute"]
        scale = 1.0
        if not rules:
            return scale
        with self._lock:
            for rule in rules:
                if rule.match[0] != rank or not rule.active(step):
                    continue
                if rule.effect == "throttle":
                    scale *= rule.argument
                    self._onset_locked(rule, "throttle", rank,
                                       f"compute x{rule.argument} from step {step}")
                    continue
                draw = np.random.default_rng(
                    np.random.SeedSequence([self.seed, rank, step, 0x7177E5])
                ).normal(0.0, rule.argument)
                scale *= 1.0 + abs(float(draw))
                self._onset_locked(rule, "jitter", rank, f"sigma {rule.argument} from step {step}")
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
        rules = self._rules["link"]
        if not rules:
            return alpha, beta
        with self._lock:
            # Events priced before the first noted boundary belong to
            # step 1 (the boundary increments before compute and comm).
            step = max(self._steps.get(rank, 0), 1) if rank is not None else 1
            for rule in rules:
                src, dst = rule.match
                hit = src in group_ranks and (dst is None or dst in group_ranks)
                if not hit or not rule.active(step):
                    continue
                bw_factor, latency_add_s = rule.argument
                alpha += latency_add_s
                beta /= bw_factor
                self._onset_locked(rule, "degrade-link", src,
                                   f"dst {'any' if dst is None else dst} "
                                   f"bw x{bw_factor} +{latency_add_s}s latency")
        return alpha, beta

    def retire_perf_rules(self, rank: int) -> int:
        """Deactivate every performance rule whose victim is ``rank`` (a
        link rule's either end) — called by the Supervisor when the slow
        rank is evicted, so rules keyed on old-world numbering cannot
        re-attach to the survivor that inherits the number. Returns how
        many rules were retired."""
        retired = 0
        with self._lock:
            for rule in self._rules["compute"] + self._rules["link"]:
                if rank in rule.match and not rule.state.get("retired"):
                    rule.state["retired"] = True
                    retired += 1
        return retired

    def _onset_locked(self, rule: _Rule, kind: str, rank: int, detail: str) -> None:
        """A perf rule fires continuously; record its first firing only."""
        if "fired" not in rule.state:
            rule.state["fired"] = 1
            self._record_event(FaultEvent(kind, rank, "perf", detail))

    # -- internals ---------------------------------------------------------

    def _rng_for_locked(self, rank: int) -> np.random.Generator:
        rng = self._rngs.get(rank)
        if rng is None:
            seq = np.random.SeedSequence([self.seed, rank])
            rng = self._rngs[rank] = np.random.default_rng(seq)
        return rng

    def _flip_array_locked(self, rank: int, array: np.ndarray, bits: int) -> None:
        rng = self._rng_for_locked(rank)
        flat = array.reshape(-1).view(np.uint8)
        for _ in range(bits):
            flat[int(rng.integers(flat.size))] ^= np.uint8(1 << int(rng.integers(8)))

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

    def _fire_kill(self, rule: _Rule, op: str, detail: str) -> None:
        rule.state["fired"] = 1
        rank = rule.match[0]
        self.killed_ranks.append(rank)
        self._record_event(FaultEvent("kill", rank, op, detail))
        raise RankKilledError(rank, detail)
