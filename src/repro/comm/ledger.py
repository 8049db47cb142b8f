"""Per-rank communication accounting.

Section 7 of the paper reasons in *nominal* volume: a reduce-scatter or an
all-gather of a Psi-element message moves Psi elements per rank (the exact
ring figure is (N-1)/N x Psi; the paper drops the (N-1)/N). The ledger
records both so tests can check exact ring volumes while experiment output
reports the paper's clean 2-Psi / 3-Psi numbers.

Every entry also keeps the group size and message bytes so the cost model
can turn the ledger into time under the alpha-beta model.

An event is a value: a rank's ledger holds one ``CommEvent`` object per
*distinct* event and appends that same object each time the collective
recurs, so a steady step adds list slots, not objects for the garbage
collector to rescan.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.utils.phase import normalize_phase

# Nominal per-rank volume as a multiple of the full message size, by op —
# the accounting convention of the paper's Sections 7 and 8.
NOMINAL_FACTOR = {
    "all_reduce": 2.0,      # reduce-scatter + all-gather
    "reduce_scatter": 1.0,
    "all_gather": 1.0,
    "broadcast": 1.0,       # each rank receives the full message once
    "reduce": 1.0,
    "send": 1.0,
    "recv": 1.0,
    "h2d": 1.0,             # host->device copy (Pa+cpu accounting)
    "d2h": 1.0,             # device->host copy
    "nvme-in": 1.0,         # NVMe->host read (ZeRO-Infinity tier paging)
    "nvme-out": 1.0,        # host->NVMe write
    "barrier": 0.0,
}


def exact_ring_factor(op: str, group_size: int) -> float:
    """Per-rank wire traffic as a multiple of message size, ring algorithms."""
    n = group_size
    ring = (n - 1) / n if n > 1 else 0.0
    return {
        "all_reduce": 2.0 * ring,
        "reduce_scatter": ring,
        "all_gather": ring,
        "broadcast": ring,
        "reduce": ring,
        "send": 1.0,
        "recv": 1.0,
        "h2d": 1.0,
        "d2h": 1.0,
        "nvme-in": 1.0,
        "nvme-out": 1.0,
        "barrier": 0.0,
    }[op]


@dataclass(frozen=True)
class RetryEvent:
    """One retried (or abandoned) collective attempt on one rank.

    Retries are control-plane bookkeeping: they are recorded even while
    the ledger is ``enabled = False`` and carry no volume — the
    collective's traffic is recorded once, when it finally succeeds.
    """

    op: str
    group_ranks: tuple[int, ...]
    attempt: int       # 1-based attempt number that failed
    backoff_s: float   # sleep before the next attempt (0.0 when giving up)
    error: str
    gave_up: bool = False  # True when this failure escalated to an abort


@dataclass(frozen=True)
class CommEvent:
    """One collective (or copy) as seen by one rank."""

    op: str
    message_bytes: int
    group_size: int
    group_ranks: tuple[int, ...]
    phase: str = ""  # caller-supplied label, e.g. "grad-reduce", "param-allgather"
    #: point-to-point endpoints as (src, dst); None for collectives and
    #: copies. Lets timeline analysis pair a send with its matching recv
    #: (group_ranks alone is ambiguous in a >2-member pipeline group).
    peer: tuple[int, int] | None = None

    @property
    def nominal_bytes(self) -> float:
        return NOMINAL_FACTOR[self.op] * self.message_bytes

    @property
    def exact_bytes(self) -> float:
        return exact_ring_factor(self.op, self.group_size) * self.message_bytes


class CommLedger:
    """Accumulates one rank's communication events."""

    def __init__(self, rank: int):
        self.rank = rank
        self.events: list[CommEvent] = []
        self.retries: list[RetryEvent] = []
        # (op, message_bytes, group_ranks, phase, peer) -> the one event
        # object with those fields; events are immutable, so they are shared.
        self._distinct: dict[tuple, CommEvent] = {}
        self.enabled = True
        #: optional telemetry bridge: an object with ``on_comm_event`` /
        #: ``on_retry_event`` (duck-typed; ``repro.telemetry.Tracer``).
        #: None by default so the hot path costs one attribute check.
        self.listener = None

    def record(
        self,
        op: str,
        message_bytes: int,
        group_ranks: tuple[int, ...],
        phase: str = "",
        peer: tuple[int, int] | None = None,
    ) -> None:
        if not self.enabled:
            return
        if op not in NOMINAL_FACTOR:
            raise ValueError(f"unknown communication op {op!r}")
        # Normalise what a caller may pass (numpy integers, lists, ranges) so
        # events stay hashable and JSON-exportable; process groups already
        # pass int and tuple, and that path pays two identity checks, no call.
        if message_bytes.__class__ is not int:
            message_bytes = int(message_bytes)
        if group_ranks.__class__ is not tuple:
            group_ranks = tuple(group_ranks)
        if peer is not None and peer.__class__ is not tuple:
            peer = tuple(peer)
        key = (op, message_bytes, group_ranks, phase, peer)
        try:
            event = self._distinct[key]
        except KeyError:
            event = self._distinct[key] = CommEvent(
                op, message_bytes, len(group_ranks), group_ranks, phase, peer
            )
        self.events.append(event)
        if self.listener is not None:
            self.listener.on_comm_event(event)

    def record_retry(
        self,
        op: str,
        group_ranks: tuple[int, ...],
        attempt: int,
        backoff_s: float,
        error: str,
        *,
        gave_up: bool = False,
    ) -> None:
        """Record one failed collective attempt (see RetryEvent).

        Like the events themselves, retries reach the telemetry listener
        even while ``enabled`` is False — they are control-plane
        bookkeeping, not volume."""
        event = RetryEvent(
            op=op,
            group_ranks=tuple(group_ranks),
            attempt=int(attempt),
            backoff_s=float(backoff_s),
            error=error,
            gave_up=gave_up,
        )
        self.retries.append(event)
        if self.listener is not None:
            self.listener.on_retry_event(event)

    def clear(self) -> None:
        self.events.clear()
        self.retries.clear()

    # -- aggregation -------------------------------------------------------

    def nominal_bytes(self, *, phase: str | None = None) -> float:
        return sum(e.nominal_bytes for e in self.events if phase is None or e.phase == phase)

    def exact_bytes(self) -> float:
        return sum(e.exact_bytes for e in self.events)

    def by_op(self) -> dict[str, float]:
        """Nominal bytes per op name."""
        totals: dict[str, float] = defaultdict(float)
        for e in self.events:
            totals[e.op] += e.nominal_bytes
        return dict(totals)

    def by_phase(self) -> dict[str, float]:
        """Nominal bytes per caller phase label; events recorded without a
        label report under ``"(unlabelled)"`` (the ascii_plot convention)."""
        totals: dict[str, float] = defaultdict(float)
        for e in self.events:
            totals[normalize_phase(e.phase)] += e.nominal_bytes
        return dict(totals)

