"""Thread-SPMD rendezvous fabric.

Every simulated rank is an OS thread running the same program (the mpi4py
model from the domain guides). Each rank set has one rendezvous, shared
by every process group over it, and one SPMD sequence in it: every
collective a member issues takes that member's next position. The first
member to reach a position stores its tag there; every later member
compares its own, under the rendezvous's mutex, and a mismatch raises
``CollectiveMismatchError`` instead of deadlocking. A position every
member has passed is dropped, so the sequence holds only the members' lag.

Only a collective that carries something waits. A data-free collective
(a meta-mode one: nothing deposited) takes its position, is checked and
returns. One that deposits a contribution (or a barrier's token) also
rendezvous on shared slots:

    deposit own contribution -> arrive (the same mutex section) -> wait
    to be woken by the last arriver -> read everyone's

There is one wait per such collective, not two, because the slots are
double-buffered by generation parity: a rank cannot deposit generation
g+2 (the next use of g's buffer) before every peer has arrived at g+1,
and a peer arrives at g+1 only after it has read g. Any rank failure or
timeout aborts the fabric so peers fail fast instead of hanging
(``FabricAbortedError``), at their next collective if none is waiting.
A rank that returns before a collective its peers issued, or before a
message sent to it, is found when the launcher joins the threads
(``Fabric._unmatched``).

The rendezvous does not know what it carries. A deposit may be one
collective's contribution or a batch of them (``ProcessGroup.coalesced``:
a list of arrays and a tag naming every member's kind, root and size);
either way it is one slot write, one tag comparison and one wake-up.
"""

from __future__ import annotations

import queue
import threading
from typing import Any

from repro.comm.faults import RetryPolicy


class CollectiveMismatchError(RuntimeError):
    """Ranks disagreed about which collective to run (SPMD order violated)."""


class FabricAbortedError(RuntimeError):
    """A peer rank failed; this rank's pending rendezvous was aborted."""


#: what ``abort()`` puts in every mailbox to wake a rank blocked in ``recv``
_ABORTED = object()


class Fabric:
    """Shared state for one world of ``world_size`` rank-threads.

    ``retry_policy`` governs how process groups retry transient
    collective faults (see repro.comm.faults).
    """

    def __init__(
        self,
        world_size: int,
        *,
        timeout_s: float = 60.0,
        retry_policy: RetryPolicy | None = None,
    ):
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        self.world_size = world_size
        self.timeout_s = timeout_s
        self.retry_policy = retry_policy or RetryPolicy()
        self._rendezvous: dict[tuple[int, ...], _Rendezvous] = {}
        self._rendezvous_lock = threading.Lock()
        self._mailboxes: dict[tuple[int, int, Any], queue.Queue] = {}
        self._mailbox_lock = threading.Lock()
        self._aborted = False

    def rendezvous_for(self, ranks: tuple[int, ...]) -> "_Rendezvous":
        """The (lazily created, shared) rendezvous for a rank group."""
        with self._rendezvous_lock:
            rv = self._rendezvous.get(ranks)
            if rv is None:
                rv = _Rendezvous(ranks, self.timeout_s)
                if self._aborted:
                    rv.abort()
                self._rendezvous[ranks] = rv
            return rv

    def abort(self) -> None:
        """Break every rendezvous and wake every mailbox so all blocked
        ranks raise promptly."""
        self._aborted = True
        with self._rendezvous_lock:
            for rv in self._rendezvous.values():
                rv.abort()
        with self._mailbox_lock:
            for box in self._mailboxes.values():
                box.put(_ABORTED)

    def _unmatched(self) -> CollectiveMismatchError | None:
        """For the launcher, once every rank has returned: the error of a
        rank set on which some member issued fewer collectives than its
        peers, or of a message no rank received, or None. A data-free
        collective does not wait for the member that never comes, and a
        ``send`` waits for no one, so only this check finds them. An
        aborted fabric answers None: its abort already explains the run."""
        if self._aborted:
            return None
        with self._rendezvous_lock:
            for rv in self._rendezvous.values():
                error = rv.unmatched()
                if error is not None:
                    return error
        with self._mailbox_lock:
            for (src, dst, tag), box in self._mailboxes.items():
                if box.qsize():
                    return CollectiveMismatchError(
                        f"rank {dst} returned without receiving {box.qsize()} message(s) "
                        f"rank {src} sent it with tag {tag!r}"
                    )
        return None

    def _release_payloads(self) -> None:
        """Drop every payload reference the fabric still holds: the two
        buffered generations of each rendezvous and undelivered messages.
        For the launcher, once no rank thread is running."""
        with self._rendezvous_lock:
            for rv in self._rendezvous.values():
                rv.release_payloads()
        with self._mailbox_lock:
            self._mailboxes.clear()

    # -- point-to-point ----------------------------------------------------

    def _mailbox(self, src: int, dst: int, tag: Any) -> queue.Queue:
        key = (src, dst, tag)
        box = self._mailboxes.get(key)
        if box is None:
            with self._mailbox_lock:
                box = self._mailboxes.setdefault(key, queue.Queue())
        return box

    def send(self, src: int, dst: int, payload: Any, tag: Any = 0) -> None:
        self._mailbox(src, dst, tag).put(payload)

    def recv(self, src: int, dst: int, tag: Any = 0) -> Any:
        box = self._mailbox(src, dst, tag)
        try:
            # A message queued before an abort is still delivered. After
            # one, an empty mailbox is not waited on: one made after the
            # abort holds no wake-up.
            payload = box.get(not self._aborted, self.timeout_s)
        except queue.Empty:
            if not self._aborted:
                # A lost message means the sender is gone or the link is
                # dead: abort the whole fabric so peers blocked in
                # rendezvous fail fast instead of waiting out their own
                # timeout.
                self.abort()
                raise FabricAbortedError(
                    f"recv timed out: rank {dst} waiting on rank {src} tag {tag!r}"
                ) from None
            payload = _ABORTED
        if payload is _ABORTED:
            raise FabricAbortedError(
                f"recv aborted: rank {dst} waiting on rank {src} tag {tag!r} "
                "(a peer failed or timed out)"
            )
        return payload


class _Rendezvous:
    """One rank set's SPMD sequence, plus the arrival counter, wake locks
    and double-buffered slots of the collectives that carry something.

    ``_sequence`` maps each position that not every member has passed to
    ``[tag, members still to pass it]``; ``_issued`` counts each member's
    collectives, which is the position its next one takes.

    A collective that deposits costs a rank one section under ``_mutex``
    (abort check, sequence check, count) and one blocking acquire of its
    own wake lock, held (pre-acquired) whenever its owner is not being
    woken; the last arriver does not block and releases the others' locks
    instead. A woken rank holds its lock again, which is the pre-acquired
    state the next generation needs. A data-free collective is that mutex
    section without the count.
    """

    def __init__(self, ranks: tuple[int, ...], timeout_s: float):
        self.ranks = ranks
        self.index_of = {r: i for i, r in enumerate(ranks)}
        self.timeout_s = timeout_s
        n = self._size = len(ranks)
        self._mutex = threading.Lock()
        self._issued = [0] * n
        self._sequence: dict[int, list[Any]] = {}
        self._arrived = 0
        self._completed = 0  # generations whose last member arrived
        self._aborted = False
        self._wake = [threading.Lock() for _ in range(n)]
        for lock in self._wake:
            lock.acquire()
        # Slots of even and odd generations; each rank counts its own
        # generations (only its parity is kept, touched by that rank alone).
        self._slots: tuple[list[Any], list[Any]] = ([None] * n, [None] * n)
        self._parity = [0] * n

    def abort(self) -> None:
        """Sticky: every blocked member raises now, every later exchange
        raises on entry."""
        with self._mutex:
            self._abort_locked()

    def _abort_locked(self) -> None:
        self._aborted = True
        for lock in self._wake:
            try:
                lock.release()
            except RuntimeError:
                pass  # already released: its owner is awake or about to be

    def release_payloads(self) -> None:
        for slots in self._slots:
            slots[:] = [None] * len(slots)

    def unmatched(self) -> CollectiveMismatchError | None:
        """Once no member runs: the error naming a member that issued
        fewer collectives than a peer, or None."""
        with self._mutex:
            fewest, most = min(self._issued), max(self._issued)
            if fewest == most:
                return None
            rank = self.ranks[self._issued.index(fewest)]
            return CollectiveMismatchError(
                f"rank {rank} returned after {fewest} collective(s) in group "
                f"{self.ranks}, but a peer issued {most}; the next was "
                f"{self._sequence[fewest][0]!r}"
            )

    def exchange(self, rank: int, value: Any, tag: Any) -> list[Any] | None:
        """Take ``rank``'s next position in the SPMD sequence with ``tag``.

        A ``value`` of None is a data-free collective: checked, it returns
        None without waiting. Any other value is deposited, and the call
        returns all group members' values ordered by group index once every
        member has arrived. ``value`` objects must be treated read-only by
        receivers."""
        try:
            idx = self.index_of[rank]
        except KeyError:
            raise self.not_a_member(rank) from None
        if value is not None:
            parity = self._parity[idx]
            self._parity[idx] = parity ^ 1
            slots = self._slots[parity]
            slots[idx] = value
        with self._mutex:
            if self._aborted:
                raise self._aborted_error()
            position = self._issued[idx]
            self._issued[idx] = position + 1
            sequence = self._sequence
            if position in sequence:
                entry = sequence[position]
                if tag != entry[0]:
                    self._abort_locked()
                    raise CollectiveMismatchError(
                        f"rank {rank} ran collective {tag!r} but a peer in group "
                        f"{self.ranks} ran {entry[0]!r}"
                    )
                entry[1] -= 1
                if not entry[1]:
                    del sequence[position]
            elif self._size > 1:
                sequence[position] = [tag, self._size - 1]
            if value is None:
                return None
            self._arrived += 1
            generation = self._completed
            if self._arrived == self._size:
                self._arrived = 0
                self._completed = generation + 1
                own = self._wake[idx]
                for lock in self._wake:
                    if lock is not own:
                        lock.release()
                return list(slots)
        if not self._wake[idx].acquire(True, self.timeout_s):
            self.abort()
            raise FabricAbortedError(
                f"rendezvous timed out in group {self.ranks}: rank {rank} waited "
                f"{self.timeout_s}s at {tag!r} for a peer that never arrived"
            )
        # Woken by the last arriver or by an abort: only a generation that
        # did not complete is aborted, whenever the abort lands.
        if self._completed == generation:
            raise self._aborted_error()
        return list(slots)

    def not_a_member(self, rank: int) -> ValueError:
        return ValueError(f"rank {rank} is not in group {self.ranks}")

    def _aborted_error(self) -> FabricAbortedError:
        return FabricAbortedError(
            f"rendezvous aborted in group {self.ranks} (a peer failed or timed out)"
        )
