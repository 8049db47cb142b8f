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

A meta world's rank class (``repro.runtime``) needs two things more. A
rendezvous can note the tags one member exchanges (``tape`` /
``untape``) and take a member's next positions for a list of tags in one
mutex section (``replay``), which checks each as a data-free exchange
would. A ``_Board`` carries the class leader's step records to the other
members: a member that waits for one waits at most the fabric's timeout,
and an abort wakes it, so a leader that fails or never steps leaves
``FabricAbortedError`` behind, not a hang.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any

from repro.comm.faults import RetryPolicy


class CollectiveMismatchError(RuntimeError):
    """Ranks disagreed about which collective to run (SPMD order violated)."""


class FabricAbortedError(RuntimeError):
    """A peer rank failed; this rank's pending rendezvous was aborted."""


#: what ``abort()`` puts in every mailbox to wake a rank blocked in ``recv``
_ABORTED = object()
#: step records a board keeps at most for members that have not passed them
_KEPT_RECORDS = 64


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
        self._boards: list[_Board] = []
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

    def board(self, members: int) -> "_Board":
        """A new board for a rank class of a leader and ``members`` others."""
        with self._rendezvous_lock:
            board = _Board(self, members)
            if self._aborted:
                board.abort()
            self._boards.append(board)
            return board

    def abort(self) -> None:
        """Break every rendezvous and board and wake every mailbox so all
        blocked ranks raise promptly."""
        self._aborted = True
        with self._rendezvous_lock:
            for rv in self._rendezvous.values():
                rv.abort()
            for board in self._boards:
                board.abort()
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
        # Per member, the tags its exchanges are noting (``tape``), or None.
        self._tapes: list[list | None] = [None] * n
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
        tape = self._tapes[idx]
        if tape is not None:
            tape.append(tag)
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
                    raise self._mismatch_locked(rank, tag, entry[0])
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

    def tape(self, rank: int) -> None:
        """Note the tags of ``rank``'s exchanges from here to ``untape``."""
        self._tapes[self.index_of[rank]] = []

    def untape(self, rank: int) -> list:
        """Stop noting; the tags ``rank`` exchanged, in order."""
        idx = self.index_of[rank]
        tags, self._tapes[idx] = self._tapes[idx], None
        return tags

    def replay(self, rank: int, tags: list) -> None:
        """Take ``rank``'s next positions with ``tags``, in one section under
        the mutex: each is checked as a data-free ``exchange`` checks it."""
        idx = self.index_of[rank]
        with self._mutex:
            if self._aborted:
                raise self._aborted_error()
            position = self._issued[idx]
            self._issued[idx] = position + len(tags)
            sequence, peers = self._sequence, self._size - 1
            for tag in tags:
                entry = sequence.get(position)
                if entry is None:
                    if peers:
                        sequence[position] = [tag, peers]
                elif tag != entry[0]:
                    raise self._mismatch_locked(rank, tag, entry[0])
                elif entry[1] == 1:
                    del sequence[position]
                else:
                    entry[1] -= 1
                position += 1

    def _mismatch_locked(self, rank: int, tag: Any, expected: Any) -> CollectiveMismatchError:
        self._abort_locked()
        return CollectiveMismatchError(
            f"rank {rank} ran collective {tag!r} but a peer in group "
            f"{self.ranks} ran {expected!r}"
        )

    def not_a_member(self, rank: int) -> ValueError:
        return ValueError(f"rank {rank} is not in group {self.ranks}")

    def _aborted_error(self) -> FabricAbortedError:
        return FabricAbortedError(
            f"rendezvous aborted in group {self.ranks} (a peer failed or timed out)"
        )


class _Board:
    """One rank class's step records, from its leader to its other members.

    The leader ``publish``es every step it runs from ``first`` on: the
    step's record, or None where no member can replay it. A member
    ``take``s the record of the step it is about to make, waiting for it
    only when asked to; either way it has then passed that step. A record
    is dropped once every member has passed its step, or when more than
    ``_KEPT_RECORDS`` are kept (the oldest: a member that needs it runs
    the step itself).

    A waiting member blocks on the gate of the next publication, a lock
    the leader made held and releases when it publishes; each member
    woken by it releases it again for the next, so a publication costs
    the leader one release however many members wait. A member waits at
    most the fabric's timeout in all, then aborts the fabric.
    """

    def __init__(self, fabric: Fabric, members: int):
        self._fabric = fabric
        #: the first step the leader publishes; None before it leads
        self.first: int | None = None
        self._latest = 0  # the last step published
        self._records: dict[int, Any] = {}
        self._passed = [0] * members  # per member, the last step it took
        self._lock = threading.Lock()
        self._aborted = False
        self._gate = self._closed_gate()

    def _closed_gate(self) -> threading.Lock:
        gate = threading.Lock()
        if not self._aborted:
            gate.acquire()
        return gate

    def abort(self) -> None:
        self._aborted = True
        _open(self._gate)

    def publish(self, step: int, record: Any) -> None:
        with self._lock:
            records = self._records
            if record is not None and step > min(self._passed):
                records[step] = record
                if len(records) > _KEPT_RECORDS:
                    del records[next(iter(records))]
            # The step is published before the next gate is: a member that
            # reads the new gate then reads this step too.
            self._latest = step
            gate, self._gate = self._gate, self._closed_gate()
        _open(gate)

    def take(self, member: int, step: int, wait: bool) -> Any:
        """The leader's record of ``step`` for the ``member``-th member, or
        None (not published, not replayable, or dropped); with ``wait``,
        once the leader has published it."""
        deadline = None
        while wait and self._latest < step:
            gate = self._gate  # read before the step: see ``publish``
            if self._latest >= step:
                break
            if self._aborted:
                raise FabricAbortedError(
                    f"waiting for step {step} of the rank class leader: the fabric was "
                    "aborted (a peer failed or timed out)"
                )
            if deadline is None:
                deadline = time.monotonic() + self._fabric.timeout_s
            if not gate.acquire(True, max(deadline - time.monotonic(), 0.0)):
                self._fabric.abort()
                raise FabricAbortedError(
                    f"the rank class leader did not publish step {step} within "
                    f"{self._fabric.timeout_s}s"
                )
            _open(gate)  # the next waiter's turn
        with self._lock:
            records, passed = self._records, self._passed
            record = records.get(step)
            passed[member] = step
            if records:
                low = min(passed)
                for kept in [s for s in records if s <= low]:
                    del records[kept]
        return record


def _open(gate: threading.Lock) -> None:
    """Release a board's ``gate`` unless it is open already: an abort and a
    publication (or two aborts) may both open the same gate."""
    try:
        gate.release()
    except RuntimeError:
        pass
