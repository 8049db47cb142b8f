"""Integrity auditor: digest guards, cross-rank audits, sentinels.

Under ZeRO every rank is the *sole* owner of a 1/Nd shard of optimizer
state (Section 5), so a silent bit flip in one shard poisons the whole
run with nobody else holding a clean copy. The auditor layers three
detectors over an engine, ordered cheapest-first:

1. **Shard digest guard** (every optimizer boundary): CRC-32 digests of
   the state this rank solely owns (fp32 master / Adam moments, the
   stage-3 fp16 parameter shard) are recorded after each optimizer
   update and re-verified at the next boundary — *before* the optimizer
   consumes the shard, so a scribble cannot be laundered into a
   legitimate-looking update. Purely local, no communication.
2. **Cross-rank audit** (every ``audit_cadence`` steps): state that ZeRO
   *replicates* — the fp16 parameters in stages 0-2, the scalar
   step/loss-scale everywhere — must be bitwise identical across the DP
   group. Each rank contributes a tiny digest vector through an
   all-gather (a control message, excluded from volume accounting like
   the overflow vote) and every rank independently computes the same
   majority verdict, so all ranks raise in lockstep — no hangs,
   and the offending rank is identified by vote.
3. **Anomaly sentinels** (every applied step): rolling-median spike
   windows over the loss and global gradient norm catch pre-reduce
   payload flips that no replica comparison can see (all ranks agree on
   the same wrong sum). Layered on the ``LossScaler`` path: only
   *applied* steps are observed, so an ordinary overflow-and-skip is
   never mistaken for corruption.

Everything is off unless ``ZeROConfig.audit_cadence > 0``, which the
engine reads; a disabled build allocates nothing and is byte-identical
to pre-integrity behavior.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.integrity.digest import digest_array, digest_scalars, fast_digest_array
from repro.integrity.errors import CorruptionDetectedError
from repro.integrity.sentinel import SpikeWindow
from repro.zero.owned import capture_scalars


#: rolling window and warm-up of both spike sentinels (applied steps).
SENTINEL_WINDOW = 16
SENTINEL_MIN_HISTORY = 4
#: flag a loss (grad norm) exceeding this factor x the rolling median.
LOSS_SPIKE_FACTOR = 1e3
GRAD_SPIKE_FACTOR = 1e4


class IntegrityAuditor:
    """Per-engine SDC detector stack (see module docstring)."""

    def __init__(self, engine, audit_cadence: int):
        # The engine owns its auditor; a strong back-pointer would make a
        # cycle that keeps a dead incarnation's state alive until a gc pass.
        self.engine = weakref.proxy(engine)
        #: cross-rank replicated-state audit every N optimizer steps.
        self.audit_cadence = audit_cadence
        self.rank = engine.ctx.rank
        self._recorded: dict[str, int] = {}
        common = dict(window=SENTINEL_WINDOW, min_history=SENTINEL_MIN_HISTORY)
        self._loss_sentinel = SpikeWindow("loss", spike_factor=LOSS_SPIKE_FACTOR, **common)
        self._grad_sentinel = SpikeWindow("grad-norm", spike_factor=GRAD_SPIKE_FACTOR, **common)
        self.record_shards()

    # -- telemetry ---------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        tracer = self.engine.tracer
        if tracer is not None and tracer.registry is not None:
            tracer.registry.counter(name, rank=self.rank, **labels).add(1)

    def _detected(self, kind: str, *, rank: int | None, step: int, detail: str):
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.instant("sdc-detected", kind=kind, step=step, detail=detail)
        self._count("sdc_detections", kind=kind)
        return CorruptionDetectedError(kind, rank=rank, step=step, detail=detail)

    # -- shard digest guard ------------------------------------------------

    def record_shards(self) -> None:
        """Fingerprint the owned shards; call after any legitimate write
        (optimizer update, checkpoint restore)."""
        self._recorded = {
            name: fast_digest_array(arr)
            for name, arr in self.engine.integrity_shards().items()
        }

    def verify_shards(self, step: int) -> None:
        """Raise if an owned shard changed since the last legitimate write."""
        for name, arr in self.engine.integrity_shards().items():
            expect = self._recorded.get(name)
            if expect is not None and fast_digest_array(arr) != expect:
                raise self._detected(
                    "shard-digest", rank=self.rank, step=step,
                    detail=f"owned shard {name!r} digest changed outside an "
                    f"optimizer update",
                )

    def matches_recorded(self, digests: dict[str, int]) -> None:
        """Raise unless ``digests`` — another reader's fingerprints of the
        owned shards (the buddy refresh's copies) — equal the recorded ones:
        a replica leaving this rank must be the state the guard vouched for."""
        for key, digest in digests.items():
            if self._recorded.get(key, digest) != digest:
                raise RuntimeError(
                    f"shard {key!r} changed between the integrity fingerprint "
                    f"and the redundancy refresh (step {self.engine.step_count})"
                )

    # -- cross-rank replicated-state audit ---------------------------------

    def replicated_digests(self) -> np.ndarray:
        """[param_digest, scalar_digest] as float64 (CRC-32 fits exactly)."""
        e = self.engine
        param_digest = 0
        if not e.placement["param"].partitioned:
            # Only a replicated fp16 copy can be compared across ranks
            # (stage 3's per-unit materializations are transient).
            crc = 0
            for p in e.layout.parameters:
                crc = digest_array(p.data.numpy()) ^ ((crc << 1) & 0xFFFFFFFF)
            param_digest = crc
        scalar_digest = digest_scalars(*capture_scalars(e).values())
        return np.array([param_digest, scalar_digest], dtype=np.float64)

    def cross_rank_audit(self, step: int) -> None:
        """All-gather replicated-state digests and majority-vote.

        Every rank computes the identical verdict from the identical
        gathered vector, so on a mismatch all ranks raise together
        (SPMD-safe) and the offender is the minority rank.
        """
        e = self.engine
        mine = self.replicated_digests()
        if e.dp_group.size == 1:
            self._count("integrity_audits", result="pass")
            return
        # Tiny control message; excluded from volume accounting like the
        # overflow vote and the grad-clip norm exchange.
        e.ctx.ledger.enabled = False
        try:
            gathered = e.dp_group.all_gather(
                e.ctx.rank, mine, phase="integrity-audit"
            )
        finally:
            e.ctx.ledger.enabled = True
        table = gathered.reshape(e.dp_group.size, mine.shape[0])
        offenders: list[int] = []
        columns = ("fp16-params", "scalar-state")
        reasons: list[str] = []
        for col in range(table.shape[1]):
            values, counts = np.unique(table[:, col], return_counts=True)
            if len(values) == 1:
                continue
            majority = values[int(np.argmax(counts))]
            bad = [i for i in range(table.shape[0]) if table[i, col] != majority]
            offenders.extend(e.dp_group.ranks[i] for i in bad)
            reasons.append(
                f"{columns[col]} digests disagree "
                f"(minority group indices {bad} of {table.shape[0]})"
            )
        if offenders:
            raise self._detected(
                "cross-rank", rank=min(offenders), step=step,
                detail="; ".join(reasons),
            )
        self._count("integrity_audits", result="pass")

    # -- engine hooks ------------------------------------------------------

    def on_boundary(self, step: int) -> None:
        """Optimizer-boundary hook, before gradients are reduced: verify
        the owned shards the optimizer is about to consume, then (at the
        configured cadence) run the cross-rank audit."""
        self.verify_shards(step)
        if step % self.audit_cadence == 0:
            self.cross_rank_audit(step)

    def after_optimizer(self, step: int, applied: bool, loss: float | None) -> None:
        """Post-update hook: re-fingerprint the legitimately rewritten
        shards, then feed the sentinels (applied steps only — overflow
        skips belong to the loss scaler, not the corruption detectors)."""
        self.record_shards()
        if applied and loss is not None:
            reason = self._loss_sentinel.observe(loss)
            if reason is not None:
                raise self._detected(
                    "sentinel", rank=self.rank, step=step, detail=reason
                )

    def note_grad_norm(self, norm_sq: float) -> None:
        """Global-grad-norm observation from the clip path (applied steps)."""
        reason = self._grad_sentinel.observe(float(np.sqrt(norm_sq)))
        if reason is not None:
            raise self._detected(
                "sentinel", rank=self.rank, step=self.engine.step_count,
                detail=reason,
            )
