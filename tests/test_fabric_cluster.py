"""Thread-SPMD fabric and cluster launcher: rendezvous, aborts, p2p."""

import gc
import random
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.comm.fabric import CollectiveMismatchError, Fabric, FabricAbortedError
from repro.comm.group import ProcessGroup
from repro.comm.virtual import VirtualGroup
from repro.hardware.specs import GPUSpec
from repro.runtime import Cluster, virtual_rank_context

GPU = GPUSpec("t", 10**8, 1e12)


def make_cluster(n=4, timeout_s=5.0):
    return Cluster(n, gpu=GPU, timeout_s=timeout_s)


def test_run_returns_per_rank_results():
    cluster = make_cluster(4)
    results = cluster.run(lambda ctx: ctx.rank * 10)
    assert results == [0, 10, 20, 30]


def test_rank_contexts_are_distinct():
    cluster = make_cluster(3)
    ids = cluster.run(lambda ctx: id(ctx.device))
    assert len(set(ids)) == 3


def test_exception_propagates_and_releases_peers():
    cluster = make_cluster(4, timeout_s=3.0)

    def fn(ctx):
        if ctx.rank == 2:
            raise RuntimeError("boom on rank 2")
        # Peers block in a collective; the abort must release them.
        ctx.world.all_reduce(ctx.rank, np.ones(4, np.float32))

    with pytest.raises(RuntimeError, match="boom on rank 2"):
        cluster.run(fn)


def test_collective_order_mismatch_detected():
    cluster = make_cluster(2, timeout_s=5.0)

    def fn(ctx):
        if ctx.rank == 0:
            ctx.world.all_reduce(ctx.rank, np.ones(4, np.float32))
        else:
            ctx.world.broadcast(ctx.rank, np.ones(4, np.float32), src=1)

    with pytest.raises((CollectiveMismatchError, FabricAbortedError)):
        cluster.run(fn)


def test_barrier_synchronizes_all_ranks():
    cluster = make_cluster(4)

    def fn(ctx):
        ctx.barrier()
        return True

    assert cluster.run(fn) == [True] * 4


def test_point_to_point_send_recv():
    cluster = make_cluster(2)

    def fn(ctx):
        if ctx.rank == 0:
            ctx.world.send(0, dst=1, array=np.arange(5, dtype=np.float32), tag=7)
            return None
        return ctx.world.recv(1, src=0, tag=7)

    results = cluster.run(fn)
    np.testing.assert_array_equal(results[1], np.arange(5, dtype=np.float32))


def test_p2p_messages_ordered_per_tag():
    cluster = make_cluster(2)

    def fn(ctx):
        if ctx.rank == 0:
            for i in range(3):
                ctx.world.send(0, dst=1, array=np.array([i], np.int64), tag=0)
            return None
        return [int(ctx.world.recv(1, src=0, tag=0)[0]) for _ in range(3)]

    assert cluster.run(fn)[1] == [0, 1, 2]


def test_a_message_no_rank_receives_fails_the_join():
    """A skipped ``recv`` is an SPMD mismatch like a skipped collective:
    the clean join names the undelivered message's src, dst and tag."""

    def fn(ctx):
        if ctx.rank == 0:
            ctx.world.send(0, dst=1, array=np.zeros(2, np.float32), tag=9)
        return ctx.rank

    with pytest.raises(CollectiveMismatchError, match=r"rank 1 .* rank 0 .* tag 9"):
        make_cluster(2).run(fn)
    aborted = Fabric(2)
    aborted.send(0, 1, "lost", tag=9)
    aborted.abort()
    assert aborted._unmatched() is None  # its abort already explains the run


def test_collective_tag_mismatch_raises_not_hangs():
    """Two ranks issuing collectives with different tags (same op, different
    shapes) must raise within the timeout, not deadlock."""
    cluster = make_cluster(2, timeout_s=5.0)

    def fn(ctx):
        if ctx.rank == 0:
            ctx.world.all_reduce(ctx.rank, np.ones(4, np.float32))
        else:
            ctx.world.all_reduce(ctx.rank, np.ones(8, np.float32))

    with pytest.raises((CollectiveMismatchError, FabricAbortedError)):
        cluster.run(fn)


@pytest.mark.faults
def test_wrong_group_shape_raises_not_hangs():
    """A rank issuing a collective on the wrong group (subgroup vs world)
    leaves the world rendezvous short-handed; the timeout must abort every
    rank instead of hanging."""
    cluster = make_cluster(4, timeout_s=1.0)

    def fn(ctx):
        if ctx.rank in (0, 1):
            group = ctx.group([0, 1])
            return group.all_reduce(ctx.rank, np.ones(2, np.float32))[0]
        # Ranks 2-3 wrongly expect the whole world to participate.
        return ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))[0]

    with pytest.raises(FabricAbortedError):
        cluster.run(fn)


def test_recv_timeout_raises():
    fabric = Fabric(2, timeout_s=0.1)
    with pytest.raises(FabricAbortedError, match="timed out"):
        fabric.recv(src=0, dst=1, tag=0)


def test_recv_timeout_aborts_whole_fabric():
    """A recv timeout means the sender is gone: the fabric must be aborted
    so peers blocked in rendezvous fail fast instead of waiting out their
    own timeout."""
    fabric = Fabric(2, timeout_s=0.1)
    with pytest.raises(FabricAbortedError):
        fabric.recv(src=0, dst=1, tag=0)
    rv = fabric.rendezvous_for((0, 1))
    with pytest.raises(FabricAbortedError):  # aborted: raises without waiting
        rv.exchange(0, None, "barrier")


@pytest.mark.faults
def test_recv_timeout_releases_peer_in_collective():
    """In-cluster version: rank 1's recv times out (no sender), and rank 0 —
    blocked in an all_reduce — is released by the abort rather than by its
    own timeout."""
    cluster = make_cluster(2, timeout_s=1.0)

    def fn(ctx):
        if ctx.rank == 0:
            ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))
        else:
            ctx.world.recv(1, src=0, tag=9)  # nothing was ever sent

    with pytest.raises(FabricAbortedError):
        cluster.run(fn)


@pytest.mark.timeout_guard(10)
def test_a_message_queued_before_an_abort_is_still_delivered():
    """``abort()`` reports what never completed, not what did: a message
    sent before it is received, and only the next ``recv`` raises."""
    fabric = Fabric(2, timeout_s=5.0)
    fabric.send(0, 1, "sent", tag=3)
    fabric.abort()
    assert fabric.recv(0, 1, tag=3) == "sent"
    with pytest.raises(FabricAbortedError, match="aborted"):
        fabric.recv(0, 1, tag=3)


@pytest.mark.timeout_guard(10)
def test_an_exchange_completed_before_an_abort_returns_its_result():
    """The fabric aborts right after the last arriver woke the waiting rank,
    before that rank reads its result: its generation completed, so it gets
    the sum, as the last arriver did."""
    fabric = Fabric(2, timeout_s=5.0)
    group = ProcessGroup(fabric, (0, 1))

    class AbortOnWake:
        """A wake lock whose owner aborts the fabric as soon as it is woken."""

        def __init__(self, lock):
            self.lock = lock

        def acquire(self, blocking=True, timeout=-1):
            woken = self.lock.acquire(blocking, timeout)
            if woken:
                fabric.abort()
            return woken

        def release(self):
            self.lock.release()

    rv = group._rendezvous
    rv._wake = [AbortOnWake(lock) for lock in rv._wake]
    results: list = [None, None]

    def worker(rank):
        try:
            results[rank] = group.all_reduce(rank, np.full(2, rank + 1.0, np.float32))
        except BaseException as exc:  # noqa: BLE001 - asserted below
            results[rank] = exc

    threads = [threading.Thread(target=worker, args=(r,), daemon=True) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5.0)
    for out in results:
        np.testing.assert_array_equal(out, np.full(2, 3.0, np.float32))
    assert fabric._aborted  # the waiter did wake and abort


def test_subgroups_share_state_across_ranks():
    cluster = make_cluster(4)

    def fn(ctx):
        group = ctx.group([0, 2] if ctx.rank in (0, 2) else [1, 3])
        return group.all_reduce(ctx.rank, np.array([ctx.rank], np.float32))[0]

    results = cluster.run(fn)
    assert results == [2.0, 4.0, 2.0, 4.0]  # 0+2 and 1+3


def test_world_size_validation():
    with pytest.raises(ValueError):
        Fabric(0)


def test_group_is_shared_on_a_cluster_and_virtual_on_a_virtual_context():
    """``ctx.group`` on both context kinds: one ``ProcessGroup`` object for
    all member threads of a cluster, a peerless ``VirtualGroup`` containing
    the context's own rank on a ``virtual_rank_context`` — the ledger
    attached either way."""
    cluster = make_cluster(4)

    def fn(ctx):
        group = ctx.group([3, 1] if ctx.rank % 2 else [0, 2])
        assert ctx.group(group.ranks) is group  # cached per context
        group.all_reduce(ctx.rank, np.ones(2, np.float32), phase="sub")
        assert [(e.op, e.group_ranks, e.phase) for e in ctx.ledger.events] == [
            ("all_reduce", group.ranks, "sub")
        ]
        return id(group), group.ranks

    ids = cluster.run(fn)
    assert ids[0] == ids[2] and ids[1] == ids[3] and ids[0] != ids[1]
    assert ids[0][1] == (0, 2) and ids[1][1] == (1, 3)

    ctx = virtual_rank_context(64, rank=5, gpu=GPU)
    group = ctx.group(range(1, 64, 4))
    assert isinstance(group, VirtualGroup)
    assert (group.size, group.member_rank, group.group_index(5)) == (16, 5, 1)
    assert ctx.group(range(1, 64, 4)) is group
    group.meta_collective(5, "all_gather", 1024, "virt")
    assert [(e.op, e.message_bytes, e.group_size, e.phase) for e in ctx.ledger.events] == [
        ("all_gather", 1024, 16, "virt")
    ]
    with pytest.raises(ValueError, match="not in group"):
        ctx.group([0, 1])  # a virtual rank can only build groups it belongs to


@pytest.mark.parametrize("world_size", [1, 400])
def test_a_virtual_rank_gets_its_gpus_share_of_host_and_nvme(world_size):
    """A virtual rank's pools hold one GPU's share of a DGX-2 node (1.5 TB
    DRAM, 28 TB NVMe over 16 GPUs): the budgets the tier sweeps charge."""
    ctx = virtual_rank_context(world_size)
    assert ctx.host.capacity == ctx.topology.host_bytes_per_gpu == 93_750_000_000
    assert ctx.nvme.capacity == ctx.topology.nvme_bytes_per_gpu == 1_750_000_000_000


def test_no_payload_outlives_the_run():
    """After ``Cluster.run`` has joined its threads — a clean join that
    finds the undelivered message, or a failure — neither a rendezvous slot
    (two generations are buffered) nor a mailbox keeps an array alive. gc
    is off so only reference counts can free."""

    class Tracked(np.ndarray):
        pass  # plain ndarrays cannot be weakly referenced

    def tracked(refs, values):
        array = np.asarray(values, np.float32).view(Tracked)
        refs.append(weakref.ref(array))
        return array

    def fn(ctx, refs, fail):
        rank = ctx.rank
        for i in range(3):  # odd count: both slot generations end up filled
            ctx.world.all_reduce(rank, tracked(refs, [rank, i]))
            ctx.world.all_gather(rank, tracked(refs, [rank]))
        sub = ctx.group([0, 1] if rank < 2 else [2, 3])
        sub.all_reduce(rank, tracked(refs, [rank]))
        if rank == 0:
            # The fabric stores the copy ``send`` makes; track that one.
            ctx.fabric.send(0, 1, tracked(refs, [7.0]), tag="undelivered")
        if fail:
            if rank == 3:
                raise RuntimeError("rank 3 dies with payloads in flight")
            ctx.world.all_reduce(rank, tracked(refs, [rank]))  # aborted mid-wait

    gc.collect()
    gc.disable()
    try:
        for fail in (False, True):
            refs: list = []
            cluster = make_cluster(4, timeout_s=5.0)
            with pytest.raises(RuntimeError, match="rank 3 dies" if fail else "undelivered"):
                cluster.run(fn, refs, fail)
            assert len(refs) >= 4 * 6  # the world-group loop at least
            alive = [r() for r in refs if r() is not None]
            assert alive == [], f"{len(alive)} payloads still referenced (fail={fail})"
    finally:
        gc.enable()


# -- fabric stress (ROADMAP robustness item 5) ---------------------------------
#
# Everything below runs real threads against the rendezvous with a short
# interpreter switch interval, under the conftest SIGALRM guard: a hang is
# a test failure, not a stalled suite.


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class _DawdlingLock:
    """A rendezvous wake lock whose owner sleeps right after being woken,
    i.e. between wake-up and reading the slots."""

    def __init__(self, lock, rng):
        self._lock = lock
        self._rng = rng

    def acquire(self, blocking=True, timeout=-1):
        got = self._lock.acquire(blocking, timeout)
        time.sleep(self._rng.uniform(0.0, 0.002))
        return got

    def release(self):
        self._lock.release()


@pytest.mark.timeout_guard(120)
def test_stress_every_rank_reads_its_own_generation(fast_switching):
    """Generation safety of the one-wait rendezvous: with random delays
    between wake-up and read and before the next deposit, every rank still
    reads exactly the values deposited for *its* collective — on the world
    group interleaved with two overlapping sub-groups, so peers run ahead
    on one group while a slow rank is still reading another."""
    rounds = 200
    world = tuple(range(8))
    sub_a, sub_b = (0, 1, 2, 3, 4), (3, 4, 5, 6, 7)
    fabric = Fabric(8, timeout_s=20.0)
    for ranks in (world, sub_a, sub_b):
        rv = fabric.rendezvous_for(ranks)
        rv._wake = [  # white box: the only seam between wake-up and read
            _DawdlingLock(lock, random.Random(f"{ranks}/{i}"))
            for i, lock in enumerate(rv._wake)
        ]
    errors: list = [None] * 8

    def worker(rank):
        rng = random.Random(rank)
        counts = {world: 0, sub_a: 0, sub_b: 0}
        try:
            for i in range(rounds):
                groups = [world]
                if i % 2 == 0:
                    groups += [g for g in (sub_a, sub_b) if rank in g]
                for ranks in groups:
                    time.sleep(rng.uniform(0.0, 0.002))
                    k = counts[ranks]
                    counts[ranks] = k + 1
                    got = fabric.rendezvous_for(ranks).exchange(rank, (rank, k), ("round", k))
                    assert got == [(r, k) for r in ranks], (rank, ranks, k, got)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors[rank] = exc
            fabric.abort()

    threads = [threading.Thread(target=worker, args=(r,), daemon=True) for r in world]
    for t in threads:
        t.start()
    for t in threads:
        t.join(100.0)
    assert not any(t.is_alive() for t in threads)
    assert errors == [None] * 8


def _outcomes(world, fn, *, timeout_s):
    """Run ``fn`` on a fresh cluster. Per rank, the exception type it ended
    with (None for a clean return) and how long it took; and the type
    ``Cluster.run`` re-raised to the caller."""
    cluster = make_cluster(world, timeout_s=timeout_s)
    seen: list = [None] * world

    def wrapped(ctx):
        t0 = time.monotonic()
        try:
            fn(ctx)
        except BaseException as exc:
            seen[ctx.rank] = (type(exc), time.monotonic() - t0)
            raise
        seen[ctx.rank] = (None, time.monotonic() - t0)

    raised = None
    try:
        cluster.run(wrapped)
    except Exception as exc:  # noqa: BLE001 - its type is part of the result
        raised = type(exc)
    return seen, raised


def _kill_before_deposit(ctx):
    if ctx.rank == 5:
        raise RuntimeError("killed before deposit")
    ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))


def _kill_while_peers_wait(ctx):
    ctx.world.barrier(ctx.rank)
    if ctx.rank == 5:
        time.sleep(0.05)  # the other seven are blocked by now
        raise RuntimeError("killed while peers wait")
    ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))


def _tag_mismatch(ctx):
    ctx.world.barrier(ctx.rank)
    ctx.world.all_reduce(ctx.rank, np.ones(3 if ctx.rank == 5 else 2, np.float32))


def _absent_peer(ctx):
    if ctx.rank != 5:  # rank 5 returns cleanly and never shows up
        ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))


def _group_created_after_abort(ctx):
    if ctx.rank == 5:
        ctx.fabric.abort()
    else:
        time.sleep(0.05)
    ctx.group([r for r in range(8) if r % 2 == ctx.rank % 2]).barrier(ctx.rank)


def _recv_timeout(ctx):
    # Rank 5's recv has no sender; the other seven block in an all_reduce
    # it never joins.
    if ctx.rank == 5:
        ctx.world.recv(5, src=0, tag="never sent")
    else:
        ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))


def _kill_while_peers_receive(ctx):
    # The other seven wait on a message rank 5 dies before sending.
    if ctx.rank == 5:
        time.sleep(0.05)
        raise RuntimeError("killed while peers receive")
    ctx.world.recv(ctx.rank, src=5, tag="never sent")


def _batch(ctx, *, roots=(0, 3, 5), sizes=(2, 4, 3)):
    """A coalesced batch of three reduces, as every well-behaved rank runs it."""
    arrays = [np.full(n, ctx.rank, np.float32) for n in sizes]
    ctx.world.coalesced(ctx.rank, "reduce", roots, arrays)


def _batch_dst_mismatch(ctx):
    ctx.world.barrier(ctx.rank)
    _batch(ctx, roots=(0, 4, 5) if ctx.rank == 5 else (0, 3, 5))


def _batch_shape_mismatch(ctx):
    ctx.world.barrier(ctx.rank)
    _batch(ctx, sizes=(2, 5, 3) if ctx.rank == 5 else (2, 4, 3))


def _batch_one_piece_fewer(ctx):
    ctx.world.barrier(ctx.rank)
    if ctx.rank == 5:
        _batch(ctx, roots=(0, 3), sizes=(2, 4))
    else:
        _batch(ctx)


def _batch_gather_length_mismatch(ctx):
    # Rank 5 declares another length for a piece it only receives — what a
    # single ``broadcast``'s tag cannot see.
    ctx.world.barrier(ctx.rank)
    srcs, sizes = (1, 2), (6, 8 if ctx.rank == 5 else 4)
    arrays = [np.ones(n, np.float32) if ctx.rank == src else None for src, n in zip(srcs, sizes)]
    ctx.world.coalesced(ctx.rank, "broadcast", srcs, arrays, [4 * n for n in sizes])


def _batch_absent_peer(ctx):
    if ctx.rank != 5:
        _batch(ctx)


#: Fabric timeout of the failure-mode runs. Where an abort is the detector
#: the timeout is long and the ranks must end well inside it; where the
#: timeout itself is the detector (nobody fails, a peer just never comes)
#: it is short and the ranks must end right after it.
ABORT_TIMEOUT_S, DETECTING_TIMEOUT_S, SCHEDULING_MARGIN_S = 5.0, 0.3, 2.0

#: (what every rank runs, whether the fabric timeout is what detects it,
#: the ranks that do not end in a typed fabric error and how they end,
#: what ``Cluster.run`` re-raises)
FAILURE_MODES = [
    (_kill_before_deposit, False, {5: RuntimeError}, RuntimeError),
    (_kill_while_peers_wait, False, {5: RuntimeError}, RuntimeError),
    (_tag_mismatch, False, {}, CollectiveMismatchError),
    (_absent_peer, True, {5: None}, FabricAbortedError),
    (_group_created_after_abort, False, {}, FabricAbortedError),
    (_recv_timeout, True, {}, FabricAbortedError),
    (_kill_while_peers_receive, False, {5: RuntimeError}, RuntimeError),
    (_batch_dst_mismatch, False, {}, CollectiveMismatchError),
    (_batch_shape_mismatch, False, {}, CollectiveMismatchError),
    (_batch_one_piece_fewer, False, {}, CollectiveMismatchError),
    (_batch_gather_length_mismatch, False, {}, CollectiveMismatchError),
    (_batch_absent_peer, True, {5: None}, FabricAbortedError),
]


@pytest.mark.faults
@pytest.mark.parametrize(
    "fn, by_timeout, expected, reraised", FAILURE_MODES,
    ids=[mode[0].__name__.strip("_") for mode in FAILURE_MODES],
)
def test_stress_every_failure_mode_is_a_typed_error_on_all_ranks(
    fast_switching, fn, by_timeout, expected, reraised
):
    """No failure mode hangs or leaks an untyped error — through a single
    collective or a coalesced batch: every rank not named in ``expected``
    ends in exactly ``FabricAbortedError`` — except the one rank that
    detects a tag mismatch, which ends in ``CollectiveMismatchError`` — and
    ``Cluster.run`` re-raises the root cause. Abort-detected modes end in
    under half the fabric timeout; timeout-detected ones within a scheduling
    margin after it."""
    timeout_s = DETECTING_TIMEOUT_S if by_timeout else ABORT_TIMEOUT_S
    bound_s = timeout_s + SCHEDULING_MARGIN_S if by_timeout else timeout_s / 2
    outcomes, raised = _outcomes(8, fn, timeout_s=timeout_s)
    assert raised is reraised
    kinds = [kind for kind, _ in outcomes]
    fabric_errors = [kind for rank, kind in enumerate(kinds) if rank not in expected]
    if reraised is CollectiveMismatchError:
        assert fabric_errors.count(CollectiveMismatchError) == 1, kinds
        fabric_errors.remove(CollectiveMismatchError)
    assert all(kind is FabricAbortedError for kind in fabric_errors), kinds
    for rank, kind in expected.items():
        assert kinds[rank] is kind, (rank, kinds)
    for rank, (_, seconds) in enumerate(outcomes):
        assert seconds < bound_s, (rank, seconds, bound_s)


def _meta(ctx, nbytes=1024):
    ctx.world.meta_collective(ctx.rank, "all_gather", nbytes, "meta")


def _meta_tag_mismatch(ctx):
    _meta(ctx)
    _meta(ctx, 2048 if ctx.rank == 5 else 1024)
    _meta(ctx)


def _meta_returned_early(ctx):
    for _ in range(2 if ctx.rank == 5 else 3):  # rank 5 skips the last one
        _meta(ctx)


def _meta_kill_between(ctx):
    _meta(ctx)
    if ctx.rank == 5:
        raise RuntimeError("killed between meta collectives")
    _meta(ctx)
    _meta(ctx)


#: (what every rank runs, how rank 5 ends, what ``Cluster.run`` re-raises)
DATA_FREE_FAILURE_MODES = [
    (_meta_tag_mismatch, (None, FabricAbortedError, CollectiveMismatchError), CollectiveMismatchError),
    (_meta_returned_early, (None,), CollectiveMismatchError),
    (_meta_kill_between, (RuntimeError,), RuntimeError),
]


@pytest.mark.faults
@pytest.mark.parametrize(
    "fn, rank5, reraised", DATA_FREE_FAILURE_MODES,
    ids=[mode[0].__name__.strip("_") for mode in DATA_FREE_FAILURE_MODES],
)
def test_stress_every_data_free_failure_mode_is_found(fast_switching, fn, rank5, reraised):
    """A data-free collective checks its tag against the rank set's SPMD
    sequence and does not wait, so peers no longer wait at the position
    where a mismatch is found: each peer either returns or raises
    ``FabricAbortedError`` at its next collective after the abort. Only the
    rank that finds a tag mismatch raises ``CollectiveMismatchError``; a
    rank that skips its last collective is found by ``Cluster.run`` at
    join. Either way the root cause is re-raised, and every rank ends well
    inside the fabric timeout — nobody waits for the absent peer."""
    outcomes, raised = _outcomes(8, fn, timeout_s=ABORT_TIMEOUT_S)
    assert raised is reraised
    kinds = [kind for kind, _ in outcomes]
    assert kinds[5] in rank5, kinds
    peers = kinds[:5] + kinds[6:]
    found = kinds.count(CollectiveMismatchError)
    assert found == (1 if fn is _meta_tag_mismatch else 0), kinds
    assert all(kind in (None, FabricAbortedError, CollectiveMismatchError) for kind in peers), kinds
    for rank, (_, seconds) in enumerate(outcomes):
        assert seconds < ABORT_TIMEOUT_S / 2, (rank, seconds)


@pytest.mark.timeout_guard(60)
def test_the_sequence_holds_only_the_ranks_lag(fast_switching):
    """8 ranks each issue 10 000 data-free collectives. Whenever a rank
    looks, the positions stored in the rendezvous are no more than the
    spread between the furthest and the slowest rank (plus a small
    constant); once all are done, none is left."""
    fabric = Fabric(8, timeout_s=ABORT_TIMEOUT_S)
    group = ProcessGroup(fabric, range(8))
    rv = group._rendezvous
    samples: list = []

    def worker(rank):
        for i in range(10_000):
            group.meta_collective(rank, "all_gather", 1024 + i % 7)
            if i % 250 == 0:
                with rv._mutex:
                    lag = max(rv._issued) - min(rv._issued)
                    samples.append((len(rv._sequence), lag))

    threads = [threading.Thread(target=worker, args=(r,), daemon=True) for r in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(50.0)
    assert not any(t.is_alive() for t in threads)
    assert rv._issued == [10_000] * 8
    assert len(samples) == 8 * 40
    assert all(stored <= lag + 2 for stored, lag in samples), max(samples)
    assert rv._sequence == {} and fabric._unmatched() is None


@pytest.mark.faults
def test_stress_abort_racing_the_wake_loop(fast_switching):
    """``abort()`` from outside while eight ranks exchange flat out: it
    lands before, inside and after the last arriver's wake loop. Every
    rank must raise ``FabricAbortedError`` promptly — no lost wake-up, no
    double-release error from the lock the abort and the last arriver
    both release."""
    for seed in range(25):
        fabric = Fabric(8, timeout_s=ABORT_TIMEOUT_S)
        rv = fabric.rendezvous_for(tuple(range(8)))
        ended: list = [None] * 8

        def worker(rank):
            try:
                i = 0
                while True:
                    assert rv.exchange(rank, i, i) == [i] * 8
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - asserted below
                ended[rank] = type(exc)

        threads = [threading.Thread(target=worker, args=(r,), daemon=True) for r in range(8)]
        for t in threads:
            t.start()
        time.sleep(random.Random(seed).uniform(0.0, 0.004))
        fabric.abort()
        for t in threads:
            t.join(ABORT_TIMEOUT_S / 2)  # released by the abort, not by its own timeout
        assert not any(t.is_alive() for t in threads), f"seed {seed}: a rank hung"
        assert ended == [FabricAbortedError] * 8, f"seed {seed}: {ended}"


@pytest.mark.timeout_guard(10)
def test_one_rank_group_exchanges_without_blocking():
    """What hostbench's probe resolves: the sole member is its own last
    arriver, generation after generation."""
    rv = Fabric(1).rendezvous_for((0,))
    for i in range(5):
        assert rv.exchange(0, i, ("solo", i)) == [i]
    with pytest.raises(ValueError, match="not in group"):
        rv.exchange(1, None, "barrier")


@pytest.mark.timeout_guard(10)
def test_coalesced_member_sizes_come_from_arrays_or_nbytes():
    """A member's size is its array's; ``nbytes`` declares it only where
    the rank supplies none. A member with neither is refused before the
    deposit, as is a kind that cannot be batched or a root outside the
    group."""
    world = ProcessGroup(Fabric(1), (0,))
    piece = np.arange(3, dtype=np.float32)
    (summed,) = world.coalesced(0, "reduce", (0,), [piece])
    np.testing.assert_array_equal(summed, piece)
    assert world.coalesced(0, "broadcast", (0,), nbytes=(12,)) is None  # data-free
    for arrays, nbytes in ((None, None), ([None], None), ([None], [None])):
        with pytest.raises(ValueError, match="neither an array nor a byte count"):
            world.coalesced(0, "broadcast", (0,), arrays, nbytes)
    with pytest.raises(ValueError, match="cannot coalesce"):
        world.coalesced(0, "all_gather", (0,), [piece])
    with pytest.raises(ValueError, match="not in group"):
        world.coalesced(0, "reduce", (1,), [piece])


def _counted(cluster, fn):
    """``cluster.run(fn)`` with the cyclic collector off: a collection that
    lands inside a counted call would add the finalizers and weak-reference
    callbacks of whatever earlier garbage it frees (one rank read 4 more
    calls so in a full-suite run), which are not the call's."""
    gc.collect()
    gc.disable()
    try:
        return cluster.run(fn)
    finally:
        gc.enable()


def test_collective_call_count_guard():
    """The rendezvous must not quietly grow back: one world-group
    ``meta_collective`` at world 8, ledger attached, is at most 12
    function calls (Python + C, as ``sys.setprofile`` counts them) on
    every rank — it was 93 with two ``threading.Barrier`` rounds, and 20
    while every rank waited for the last arriver, which paid one
    ``release`` per peer. A data-free collective waits for nobody, so no
    rank pays for a wake-up.

    Calibrated on CPython 3.11.7: 10 on every rank (11-12 on a waiting
    rank and 17 on the last arriver before). That interpreter reports a
    ``with lock:`` as one C call (``__exit__``, not ``__enter__``); one that
    reports both adds one, which the slack up to 12 covers."""
    cluster = make_cluster(8)

    def fn(ctx):
        world, rank = ctx.world, ctx.rank
        world.meta_collective(rank, "all_gather", 1024, "warm-up")
        calls = []

        def on_event(frame, event, arg):
            if event in ("call", "c_call"):
                calls.append(event)

        sys.setprofile(on_event)
        world.meta_collective(rank, "all_gather", 1024, "counted")
        sys.setprofile(None)
        assert ctx.ledger.events[-1].phase == "counted"
        return len(calls) - 1  # the closing setprofile call is not the collective's

    counts = _counted(cluster, fn)
    assert max(counts) <= 12, (counts, sys.version)


def test_coalesced_call_count_guard():
    """A batch must cost what one collective costs plus its K ledger
    events: K data-free reduces in one ``coalesced`` call at world 8, ledger
    attached, are at most 8 + 4 K function calls (``sys.setprofile``) on
    every rank, where K ``meta_collective`` calls are 10 each. The bound
    was 20 + 5 K, and 7 more on the last arriver, while every rank waited.

    Calibrated on CPython 3.11.7: every rank measures 5 + 4 K (69 at
    K = 16: ``CommLedger.record``, its ``len``, the ``CommEvent`` and the
    ``append`` per member); a waiting rank read 6 + 4 K and the last
    arriver 6 more before. The slack covers an interpreter that reports a
    ``with lock:``'s ``__enter__`` too."""
    k = 16
    cluster = make_cluster(8)
    roots = tuple(i % 8 for i in range(k))
    nbytes = tuple(1024 + i for i in range(k))

    def fn(ctx):
        world, rank = ctx.world, ctx.rank
        world.coalesced(rank, "reduce", roots, nbytes=nbytes, phase="warm-up")
        calls = []

        def on_event(frame, event, arg):
            if event in ("call", "c_call"):
                calls.append(event)

        sys.setprofile(on_event)
        world.coalesced(rank, "reduce", roots, nbytes=nbytes, phase="counted")
        sys.setprofile(None)
        assert [(e.op, e.message_bytes, e.phase) for e in ctx.ledger.events[-k:]] == [
            ("reduce", n, "counted") for n in nbytes
        ]
        return len(calls) - 1  # the closing setprofile call is not the batch's

    counts = _counted(cluster, fn)
    assert max(counts) <= 8 + 4 * k, (counts, sys.version)
