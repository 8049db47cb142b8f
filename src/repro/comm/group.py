"""Process groups with NCCL-semantics collectives over the thread fabric.

All collectives operate on 1-D numpy arrays (callers flatten) and return
arrays the caller may keep and write — fresh ones, or a broadcast root's
own — except ``coalesced``, whose broadcast receivers read the root's
array through a read-only view and copy only what they keep, once (a
stage-3 unit gather copies each byte into the unit buffer and nowhere
else). Collectives are *deterministic across ranks*: reductions sum
contributions in ascending group-index order on every rank, so all ranks
observe bitwise identical results — the property the ZeRO == DP
equivalence tests rely on.

Every call records a CommEvent in the calling rank's ledger (when one is
attached), tagged with a caller-chosen ``phase`` label so experiments can
attribute volume to e.g. gradient reduction vs parameter all-gather.

What the simulated job communicates and how the simulator moves it are
separate things. A *logical* collective is the unit of the first: one
ledger event, one fault admission (``_admit``: pre-corruption, the plan's
``on_collective`` with retry/backoff, kill handling), one post-corruption,
one reduction in group-index order. A *rendezvous* is the unit of the
second: one deposit, one tag check, one wake-up. ``_exchange`` pairs one
with one; ``coalesced`` carries a batch of K same-kind logical collectives
(a bucket's per-owner reduces, a unit's per-owner broadcasts) in one
rendezvous whose tag names every member, so the ledger, the fault plan
and every result are what K single calls give while the host pays for one.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.comm.fabric import Fabric, FabricAbortedError
from repro.comm.faults import RankKilledError, TransientCollectiveFault
from repro.comm.ledger import CommLedger


def _reduce_arrays(arrays: Sequence[np.ndarray], op: str) -> np.ndarray:
    """Deterministic elementwise reduction in group-index order.

    Accumulates in float32 for half-precision inputs (NCCL-style widened
    accumulation) and casts back, so reductions of fp16 gradients behave
    like the real system rather than overflowing at the first add.
    """
    first = arrays[0]
    acc_dtype = np.float32 if first.dtype == np.float16 else first.dtype
    if op == "sum" or op == "avg":
        out = arrays[0].astype(acc_dtype, copy=True)
        # Inf-laden overflow steps saturate, and +inf meeting -inf is NaN:
        # the loss scaler reads either as overflow and skips the step.
        with np.errstate(over="ignore", invalid="ignore"):
            for a in arrays[1:]:
                out += a.astype(acc_dtype, copy=False)
            if op == "avg":
                out /= len(arrays)
    elif op == "max":
        out = arrays[0].astype(acc_dtype, copy=True)
        for a in arrays[1:]:
            np.maximum(out, a.astype(acc_dtype, copy=False), out=out)
    elif op == "min":
        out = arrays[0].astype(acc_dtype, copy=True)
        for a in arrays[1:]:
            np.minimum(out, a.astype(acc_dtype, copy=False), out=out)
    else:
        raise ValueError(f"unsupported reduction op {op!r}")
    with np.errstate(over="ignore"):  # fp16 saturates to inf, as NCCL does
        return out.astype(first.dtype, copy=False)


#: tag entry of a broadcast member no rank declared a size for
_PAYLOAD_SIZED = -1


class ProcessGroup:
    """A set of global ranks that communicate collectively.

    One ``ProcessGroup`` object is shared by all member threads; per-rank
    state (the ledger) is passed per call via ``attach_ledger``'s registry.
    """

    def __init__(self, fabric: Fabric, ranks: Sequence[int]):
        self.fabric = fabric
        self.ranks = tuple(sorted(ranks))
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        for r in self.ranks:
            if not 0 <= r < fabric.world_size:
                raise ValueError(f"rank {r} outside world of size {fabric.world_size}")
        self._rendezvous = fabric.rendezvous_for(self.ranks)
        self._ledgers: dict[int, CommLedger] = {}

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ranks)

    def group_index(self, rank: int) -> int:
        """Index of a global rank within this group."""
        try:
            return self._rendezvous.index_of[rank]
        except KeyError:
            raise self._rendezvous.not_a_member(rank) from None

    def attach_ledger(self, rank: int, ledger: CommLedger) -> None:
        self._ledgers[rank] = ledger

    def _record(
        self, rank: int, op: str, message_bytes: int, phase: str,
        peer: tuple[int, int] | None = None,
    ) -> None:
        ledger = self._ledgers.get(rank)
        if ledger is not None:
            ledger.record(op, message_bytes, self.ranks, phase, peer=peer)

    # -- fault-aware rendezvous entry ----------------------------------------

    def _maybe_corrupt(self, rank: int, op: str, payload, when: str):
        """Consult the fault plan's silent bit-flip rules on a collective
        payload (repro.comm.faults.flip_bits). ``"pre"`` corrupts this
        rank's contribution (a copy — the caller's resident array is
        untouched, modeling in-flight corruption); ``"post"`` corrupts
        the result this rank receives. Tells the ledger's listener (the
        rank's tracer) when a flip fires; raises nothing."""
        plan = self.fabric.fault_plan
        if plan is None or not isinstance(payload, np.ndarray):
            return payload
        out = plan.corrupt_payload(rank, op, payload, when)
        if out is None:
            return payload
        tracer = getattr(self._ledgers.get(rank), "listener", None)
        if tracer is not None:
            tracer.sdc_injected("sdc-bitflip", "bitflip", op=op, when=when)
        return out

    def _admit(self, rank: int, op: str, value):
        """Fault admission of one logical collective — call only with a
        fault plan attached; returns the contribution to deposit.

        A transient injected fault fails *before* the deposit, so the
        faulting rank simply retries (with exponential backoff under the
        fabric's ``RetryPolicy``) while its peers wait at the rendezvous —
        once the fault clears, the exchange happens exactly once and the
        result is bitwise identical to a fault-free run. Every failed
        attempt is recorded in this rank's ledger. Exhausted retries (or
        a blown per-collective deadline) and permanent kills abort the
        fabric so *all* ranks raise promptly.
        """
        plan = self.fabric.fault_plan
        # Pre-reduce corruption happens once per logical collective, not
        # per retry attempt: the flipped contribution is what every
        # attempt would have carried.
        value = self._maybe_corrupt(rank, op, value, "pre")
        policy = self.fabric.retry_policy
        deadline = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None
            else None
        )
        attempt = 1
        while True:
            try:
                plan.on_collective(rank, op, self.ranks)
            except TransientCollectiveFault as fault:
                backoff = policy.backoff_s(attempt)
                exhausted = attempt >= policy.max_attempts or (
                    deadline is not None and time.monotonic() + backoff > deadline
                )
                ledger = self._ledgers.get(rank)
                if ledger is not None:
                    ledger.record_retry(
                        op, self.ranks, attempt,
                        0.0 if exhausted else backoff,
                        str(fault), gave_up=exhausted,
                    )
                if exhausted:
                    self.fabric.abort()
                    raise FabricAbortedError(
                        f"collective {op!r} on rank {rank} failed permanently "
                        f"after {attempt} attempt(s): {fault}"
                    ) from fault
                time.sleep(backoff)
                attempt += 1
                continue
            except RankKilledError:
                self.fabric.abort()
                raise
            return value

    def _exchange(self, rank: int, value, tag, op: str) -> list:
        """Admission, then the rendezvous — which checks membership
        (``ValueError`` for a rank outside the group), so callers do not
        look the index up first."""
        if self.fabric.fault_plan is not None:
            value = self._admit(rank, op, value)
        return self._rendezvous.exchange(rank, value, tag)

    def coalesced(
        self,
        rank: int,
        op: str,
        roots: Sequence[int],
        arrays: Sequence[np.ndarray | None] | None = None,
        nbytes: Sequence[int] | None = None,
        phase: str = "",
    ) -> list[np.ndarray | None] | None:
        """A batch of K logical ``reduce``s or ``broadcast``s in ONE
        rendezvous (NCCL group / DeepSpeed ``*_coalesced`` semantics).

        Member ``i`` is what ``reduce(rank, arrays[i], dst=roots[i])`` (a
        sum) or ``broadcast(rank, arrays[i], src=roots[i])`` would be. A
        member's size is its array's; ``nbytes[i]`` declares it where this
        rank supplies none — a broadcast's receivers pass None, and learn
        nothing they did not declare: the tag carries every size. (A
        broadcast member *no* rank declares is sized by its payload.)
        Without ``arrays`` the batch is data-free — K ``meta_collective``s
        of ``nbytes``. The batch shares the deposit, the wake-up and the tag
        check; each member keeps its own ledger event, fault admission,
        pre/post corruption and group-index-order reduction, in member
        order. Returns one result per member (None where the single call
        would return None), or None for a data-free batch. A broadcast
        member reaches its receivers as a read-only view of the root's
        array (the root gets its own array back), so the root must not
        write that array before its next collective with them, and a
        receiver copies what it keeps before its own.
        """
        if op not in ("reduce", "broadcast"):
            raise ValueError(f"cannot coalesce {op!r}: only reduce and broadcast")
        index_of = self._rendezvous.index_of
        try:
            root_index = [index_of[r] for r in roots]
        except KeyError as exc:
            raise self._rendezvous.not_a_member(exc.args[0]) from None
        meta = arrays is None
        if not meta:
            # What this rank holds outranks what it declares, so a
            # contribution of the wrong length is a tag mismatch too. Only
            # an undeclared broadcast is left to its payload, on every rank.
            declared = [None] * len(arrays) if nbytes is None else nbytes
            nbytes = [
                _PAYLOAD_SIZED if n is None and op == "broadcast" and (a is not None or r != rank)
                else n if a is None else a.nbytes
                for a, n, r in zip(arrays, declared, roots, strict=True)
            ]
        if nbytes is None or None in nbytes:
            raise ValueError(f"coalesced {op}: a member has neither an array nor a byte count")
        tag = ("coalesced", op, meta, tuple(roots), tuple(nbytes))
        plan = self.fabric.fault_plan
        if plan is not None:
            # Every member is admitted, in order, before the one deposit: a
            # fault on member j retries (or kills) with none of the batch
            # exchanged yet.
            arrays = [self._admit(rank, op, a) for a in ([None] * len(nbytes) if meta else arrays)]
        slots = self._rendezvous.exchange(rank, None if meta else arrays, tag)
        if _PAYLOAD_SIZED in nbytes:
            nbytes = [
                slots[root_index[i]][i].nbytes if n == _PAYLOAD_SIZED else n
                for i, n in enumerate(nbytes)
            ]
        ledger = self._ledgers.get(rank)
        if ledger is not None:
            for n in nbytes:
                ledger.record(op, n, self.ranks, phase)
        if meta:
            return None
        out: list[np.ndarray | None] = []
        for i, root in enumerate(roots):
            if op == "reduce":
                if rank != root:
                    out.append(None)
                    continue
                result = _reduce_arrays([slot[i] for slot in slots], "sum")
            else:
                result = slots[root_index[i]][i]  # src keeps its own
                if result is None:
                    raise ValueError(f"broadcast: src rank {root} supplied no array")
                if rank != root:
                    # The root's deposit itself, read-only: a receiver
                    # copies it once, into wherever it is going.
                    result = result.view()
                    result.flags.writeable = False
            if plan is not None:
                result = self._maybe_corrupt(rank, op, result, "post")  # a private copy if it fires
            out.append(result)
        return out

    # -- collectives ---------------------------------------------------------

    def barrier(self, rank: int) -> None:
        self._exchange(rank, None, "barrier", "barrier")
        self._record(rank, "barrier", 0, "")

    def meta_collective(self, rank: int, op: str, message_bytes: int, phase: str = "") -> None:
        """Meta-mode collective: synchronize SPMD order and record volume
        without moving data (the 100B-scale engines run on meta tensors)."""
        message_bytes = int(message_bytes)
        self._exchange(rank, None, ("meta", op, message_bytes), op)
        self._record(rank, op, message_bytes, phase)

    def all_reduce(
        self, rank: int, array: np.ndarray, op: str = "sum", phase: str = ""
    ) -> np.ndarray:
        """Reduce everyone's array and return the result to all ranks."""
        contributions = self._exchange(rank, array, ("all_reduce", array.shape), "all_reduce")
        self._record(rank, "all_reduce", array.nbytes, phase)
        return self._maybe_corrupt(
            rank, "all_reduce", _reduce_arrays(contributions, op), "post"
        )

    def reduce(self, rank: int, array: np.ndarray, dst: int, phase: str = "") -> np.ndarray | None:
        """Sum to the group member with global rank ``dst``; others get None."""
        return self.coalesced(rank, "reduce", [dst], [array], phase=phase)[0]

    def reduce_scatter(
        self, rank: int, array: np.ndarray, op: str = "sum", phase: str = ""
    ) -> np.ndarray:
        """Reduce a full-length array; each rank keeps its 1/N shard.

        ``len(array)`` must be divisible by the group size (pad upstream).
        """
        n = self.size
        if array.ndim != 1 or array.shape[0] % n:
            raise ValueError(
                f"reduce_scatter needs a 1-D array with length divisible by {n}, "
                f"got shape {array.shape}"
            )
        contributions = self._exchange(
            rank, array, ("reduce_scatter", array.shape), "reduce_scatter"
        )
        self._record(rank, "reduce_scatter", array.nbytes, phase)
        shard = array.shape[0] // n
        idx = self.group_index(rank)
        lo, hi = idx * shard, (idx + 1) * shard
        return self._maybe_corrupt(
            rank, "reduce_scatter",
            _reduce_arrays([c[lo:hi] for c in contributions], op), "post",
        )

    def all_gather(self, rank: int, shard: np.ndarray, phase: str = "") -> np.ndarray:
        """Concatenate every rank's equal-length shard, in group order."""
        shards = self._exchange(rank, shard, ("all_gather", shard.shape), "all_gather")
        lengths = {s.shape for s in shards}
        if len(lengths) != 1:
            raise ValueError(f"all_gather shards have mismatched shapes: {lengths}")
        full = np.concatenate([np.asarray(s).ravel() for s in shards])
        self._record(rank, "all_gather", full.nbytes, phase)
        return self._maybe_corrupt(rank, "all_gather", full, "post")

    def broadcast(self, rank: int, array: np.ndarray | None, src: int, phase: str = "") -> np.ndarray:
        """Send ``src``'s array to every rank. Non-src inputs are ignored.
        Every rank gets an array it may write: ``src`` its own, a receiver
        a private copy."""
        result = self.coalesced(rank, "broadcast", [src], [array], phase=phase)[0]
        return result if result.flags.writeable else result.copy()

    # -- point-to-point ------------------------------------------------------

    def send(self, rank: int, dst: int, array: np.ndarray, tag: int = 0, phase: str = "") -> None:
        self.group_index(rank)
        self.group_index(dst)
        self.fabric.send(rank, dst, np.asarray(array).copy(), tag)
        self._record(rank, "send", array.nbytes, phase, peer=(rank, dst))

    def recv(self, rank: int, src: int, tag: int = 0, phase: str = "") -> np.ndarray:
        self.group_index(rank)
        self.group_index(src)
        array = self.fabric.recv(src, rank, tag)
        self._record(rank, "recv", array.nbytes, phase, peer=(src, rank))
        return array
