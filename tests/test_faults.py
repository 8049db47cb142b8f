"""Fault injection: transient retry w/ backoff, escalation, kills, p2p faults.

All tests use short fabric timeouts and run under the conftest deadlock
guard — a fault path that hangs instead of raising fails the suite.
"""

import time

import numpy as np
import pytest

from repro.comm.fabric import Fabric, FabricAbortedError
from repro.comm.faults import (
    FaultPlan,
    RankKilledError,
    RetryPolicy,
    TransientCollectiveFault,
)
from repro.comm.group import ProcessGroup
from repro.hardware.specs import GPUSpec
from repro.runtime import Cluster

pytestmark = pytest.mark.faults

GPU = GPUSpec("t", 10**8, 1e12)
FAST_RETRY = RetryPolicy(max_attempts=5, base_backoff_s=0.001)


def make_cluster(n=2, *, plan=None, retry=FAST_RETRY, timeout_s=5.0):
    return Cluster(n, gpu=GPU, timeout_s=timeout_s, fault_plan=plan, retry_policy=retry)


# -- transient faults --------------------------------------------------------


def test_transient_fault_retried_result_identical():
    """Two injected transient failures are retried with backoff; the result
    is bitwise identical to a fault-free run and every retry is in the
    ledger."""

    def fn(ctx):
        return ctx.world.all_reduce(ctx.rank, np.full(4, ctx.rank + 1.0, np.float32))

    clean = make_cluster(2).run(fn)

    plan = FaultPlan().fail_collective(rank=1, op="all_reduce", times=2)
    cluster = make_cluster(2, plan=plan)
    faulty = cluster.run(fn)

    for r in range(2):
        np.testing.assert_array_equal(clean[r], faulty[r])
    retries = cluster.ledgers[1].retries
    assert [e.attempt for e in retries] == [1, 2]
    assert all(e.op == "all_reduce" and not e.gave_up for e in retries)
    assert retries[0].backoff_s > 0
    assert cluster.ledgers[0].retries == []
    # Volume accounting is unaffected: the collective is recorded once.
    assert len([e for e in cluster.ledgers[1].events if e.op == "all_reduce"]) == 1


def test_transient_backoff_is_exponential():
    plan = FaultPlan().fail_collective(rank=0, times=3)
    policy = RetryPolicy(max_attempts=5, base_backoff_s=0.004)
    cluster = make_cluster(2, plan=plan, retry=policy)
    cluster.run(lambda ctx: ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32)))
    backoffs = [e.backoff_s for e in cluster.ledgers[0].retries]
    assert backoffs == [0.004, 0.008, 0.016]


def test_transient_fault_escalates_on_all_ranks():
    """A fault outlasting the retry budget aborts the fabric: every rank
    raises promptly, and the abandoned attempt is ledgered as gave_up."""
    plan = FaultPlan().fail_collective(rank=1, op="all_reduce", times=50)
    policy = RetryPolicy(max_attempts=2, base_backoff_s=0.001)
    cluster = make_cluster(2, plan=plan, retry=policy, timeout_s=5.0)

    t0 = time.monotonic()
    with pytest.raises(FabricAbortedError, match="failed permanently"):
        cluster.run(lambda ctx: ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32)))
    assert time.monotonic() - t0 < 4.0  # released by abort, not timeout
    last = cluster.ledgers[1].retries[-1]
    assert last.gave_up and last.attempt == 2


def test_random_transients_deterministic_across_runs():
    """Seeded random injection produces the identical fault sequence on
    repeated runs, regardless of thread interleaving."""

    def fn(ctx):
        for _ in range(10):
            ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))
        return True

    def trace(seed):
        plan = FaultPlan(seed=seed).fail_randomly(prob=0.3, max_faults=6)
        cluster = make_cluster(2, plan=plan)
        assert cluster.run(fn) == [True, True]
        return [
            [(e.op, e.attempt) for e in cluster.ledgers[r].retries] for r in range(2)
        ]

    first, second = trace(seed=11), trace(seed=11)
    assert first == second
    assert sum(len(t) for t in first) > 0  # the plan actually injected faults
    assert trace(seed=12) != first  # and the seed matters


# -- permanent kills ---------------------------------------------------------


def test_kill_after_collectives_aborts_world():
    plan = FaultPlan().kill_rank(2, after_collectives=3)
    cluster = make_cluster(4, plan=plan)

    def fn(ctx):
        for _ in range(10):
            ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))

    with pytest.raises(RankKilledError, match="rank 2"):
        cluster.run(fn)
    assert plan.killed_ranks == [2]
    assert any(e.kind == "kill" for e in plan.events)


def test_kill_rule_fires_once():
    """A consumed kill rule must not re-fire on a restarted world."""
    plan = FaultPlan().kill_rank(0, after_collectives=1)

    def fn(ctx):
        for _ in range(3):
            ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))
        return True

    with pytest.raises(RankKilledError):
        make_cluster(2, plan=plan).run(fn)
    # Same plan, fresh cluster: the rule is spent, the run completes.
    assert make_cluster(2, plan=plan).run(fn) == [True, True]
    assert plan.killed_ranks == [0]


# -- point-to-point faults ---------------------------------------------------


def test_dropped_send_aborts_all_ranks_fast():
    """A dropped message times out the receiver, which aborts the fabric so
    the sender (blocked in a later collective) fails fast too."""
    plan = FaultPlan().drop_send(src=0, dst=1)
    cluster = make_cluster(2, plan=plan, timeout_s=0.4)

    def fn(ctx):
        if ctx.rank == 0:
            ctx.world.send(0, dst=1, array=np.ones(3, np.float32), tag=1)
            ctx.world.barrier(0)
        else:
            ctx.world.recv(1, src=0, tag=1)
            ctx.world.barrier(1)

    t0 = time.monotonic()
    with pytest.raises(FabricAbortedError):
        cluster.run(fn)
    # One recv timeout (0.4 s) releases everyone; nobody waits out a second.
    assert time.monotonic() - t0 < 2.0
    assert any(e.kind == "drop_send" for e in plan.events)


def test_delayed_send_still_delivers():
    plan = FaultPlan().delay_send(src=0, dst=1, delay_s=0.15)
    cluster = make_cluster(2, plan=plan, timeout_s=5.0)

    def fn(ctx):
        if ctx.rank == 0:
            ctx.world.send(0, dst=1, array=np.arange(4, dtype=np.float32), tag=3)
            return None
        return ctx.world.recv(1, src=0, tag=3)

    t0 = time.monotonic()
    out = cluster.run(fn)
    assert time.monotonic() - t0 >= 0.15
    np.testing.assert_array_equal(out[1], np.arange(4, dtype=np.float32))
    assert any(e.kind == "delay_send" for e in plan.events)


# -- plan construction -------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError, match="exactly one"):
        FaultPlan().kill_rank(0)
    with pytest.raises(ValueError, match="exactly one"):
        FaultPlan().kill_rank(0, at_step=1, after_collectives=1)
    with pytest.raises(ValueError):
        FaultPlan().fail_collective(nth=0)
    with pytest.raises(ValueError):
        FaultPlan().fail_randomly(prob=1.5)
    with pytest.raises(ValueError):
        FaultPlan().delay_send(src=0, delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def test_no_plan_means_no_overhead_paths():
    """Without a plan the fault gates are skipped entirely — the default
    configuration behaves exactly as before this subsystem existed."""
    cluster = make_cluster(2, plan=None)
    out = cluster.run(lambda ctx: ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32)))
    np.testing.assert_array_equal(out[0], np.full(2, 2.0, np.float32))
    assert cluster.ledgers[0].retries == []


def test_transient_fault_exception_direct():
    """The plan answers at the group's ``_attempting`` door, told outside
    any retry loop."""
    plan = FaultPlan().fail_collective(rank=0, op="all_gather")
    group = ProcessGroup(Fabric(2), (0, 1))
    group.subscribe(plan, 0)
    with pytest.raises(TransientCollectiveFault):
        group._tell("_attempting", 0, "all_gather")
    group._tell("_attempting", 0, "all_gather")  # consumed: passes now


def test_a_pre_flip_is_asked_once_and_every_retry_carries_it():
    """A pre-reduce flip and a transient fault on the same rank's same
    collective: the contribution is flipped once, before the first attempt,
    and the retry deposits that flipped copy — the result is the flip-only
    run's, bit for bit. The flip rule could fire twice (``times=2``), so a
    contribution asked for per attempt would read differently."""

    def fn(ctx):
        return ctx.world.all_reduce(ctx.rank, np.linspace(1.0, 2.0, 16, dtype=np.float32) * (ctx.rank + 1))

    def flip():
        return FaultPlan(seed=3).flip_bits(rank=1, op="all_reduce", when="pre", times=2)

    flipped = make_cluster(2, plan=flip()).run(fn)
    plan = flip().fail_collective(rank=1, op="all_reduce")
    cluster = make_cluster(2, plan=plan)
    out = cluster.run(fn)
    clean = make_cluster(2).run(fn)
    for r in range(2):
        assert out[r].tobytes() == flipped[r].tobytes() != clean[r].tobytes()
    assert [e.kind for e in plan.events] == ["bitflip", "transient"]
    assert [e.attempt for e in cluster.ledgers[1].retries] == [1]


def test_a_rule_added_after_the_cluster_was_built_still_fires():
    """``Cluster`` subscribes the plan, not its rules: rules added between
    building the cluster and running it answer at their doors too."""
    plan = FaultPlan(seed=3)
    cluster = make_cluster(2, plan=plan)
    plan.fail_collective(rank=0, op="all_reduce")
    plan.flip_bits(rank=0, op="all_reduce", when="post")
    plan.delay_send(src=0, dst=1, delay_s=0.001)

    def fn(ctx):
        out = ctx.world.all_reduce(ctx.rank, np.ones(8, np.float32))
        if ctx.rank == 0:
            ctx.world.send(0, 1, out, tag=5)
            return out
        return ctx.world.recv(1, 0, tag=5)

    sent, received = cluster.run(fn)
    np.testing.assert_array_equal(sent, received)
    assert sent.tobytes() != np.full(8, 2.0, np.float32).tobytes()  # rank 0's copy flipped
    assert [e.kind for e in plan.events] == ["transient", "bitflip", "delay_send"]
    assert [e.attempt for e in cluster.ledgers[0].retries] == [1]


# -- faults through the coalesced entry ----------------------------------------
#
# ``ProcessGroup.coalesced`` admits every member of a batch through the same
# routine a single collective uses, so a fault plan must not be able to
# tell a batch of K from K calls — except that the batch deposits once.

BATCH_ROOTS = (0, 1, 2, 3)


def _batch_arrays(rank):
    """Rank ``rank``'s contribution to each of four reduces (lengths differ)."""
    return [
        np.arange(n, dtype=np.float32) * (rank + 1) + i
        for i, n in enumerate((5, 3, 8, 2))
    ]


def _reduce_per_op(ctx):
    return [
        ctx.world.reduce(ctx.rank, a, dst=dst)
        for a, dst in zip(_batch_arrays(ctx.rank), BATCH_ROOTS)
    ]


def _reduce_coalesced(ctx):
    arrays = _batch_arrays(ctx.rank)
    return ctx.world.coalesced(ctx.rank, "reduce", BATCH_ROOTS, arrays)


def _broadcast_pieces(rank):
    """What ``rank`` supplies to three broadcasts from ranks 1, 2, 1."""
    srcs, sizes = (1, 2, 1), (6, 4, 3)
    arrays = [
        np.linspace(1.0, 2.0, n, dtype=np.float32) * (i + 1) if rank == src else None
        for i, (src, n) in enumerate(zip(srcs, sizes))
    ]
    return srcs, [4 * n for n in sizes], arrays


def _broadcast_per_op(ctx):
    srcs, _, arrays = _broadcast_pieces(ctx.rank)
    return [ctx.world.broadcast(ctx.rank, a, src=s, phase="p") for a, s in zip(arrays, srcs)]


def _broadcast_coalesced(ctx):
    srcs, nbytes, arrays = _broadcast_pieces(ctx.rank)
    return ctx.world.coalesced(ctx.rank, "broadcast", srcs, arrays, nbytes, phase="p")


def _run_with(plan_of, fn, world=4):
    plan = plan_of()
    cluster = make_cluster(world, plan=plan)
    return cluster.run(fn), cluster, plan


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


def test_coalesced_transient_on_third_member_is_the_per_op_fault():
    """``fail_collective(rank=1, op="reduce", nth=3)`` lands on the third
    member of a four-reduce batch: it is retried there, before the one
    deposit, and leaves the retries, fired events, attempt counts, ledger
    and results that four ``reduce`` calls leave under the same plan."""
    plan_of = lambda: FaultPlan().fail_collective(rank=1, op="reduce", nth=3)  # noqa: E731
    clean = make_cluster(4).run(_reduce_per_op)
    per_op, per_op_cluster, per_op_plan = _run_with(plan_of, _reduce_per_op)
    batch, batch_cluster, batch_plan = _run_with(plan_of, _reduce_coalesced)
    for rank in range(4):
        _assert_same_arrays(batch[rank], clean[rank])
        _assert_same_arrays(batch[rank], per_op[rank])
        assert batch_cluster.ledgers[rank].retries == per_op_cluster.ledgers[rank].retries
        assert batch_cluster.ledgers[rank].events == per_op_cluster.ledgers[rank].events
    assert [(e.op, e.attempt, e.backoff_s) for e in batch_cluster.ledgers[1].retries] == [
        ("reduce", 1, 0.001)
    ]
    assert batch_plan.events == per_op_plan.events
    assert [(e.kind, e.rank, e.op, e.detail) for e in batch_plan.events] == [
        ("transient", 1, "reduce", "match 3")
    ]
    assert batch_plan._collective_count == per_op_plan._collective_count == {
        0: 4, 1: 5, 2: 4, 3: 4
    }


def _flipped_bits(a, b):
    return int(np.unpackbits((a.view(np.uint8) ^ b.view(np.uint8))).sum())


def test_coalesced_post_flip_hits_one_logical_broadcast_on_one_rank():
    plan_of = lambda: FaultPlan(seed=5).flip_bits(  # noqa: E731
        rank=3, op="broadcast", when="post", nth=2
    )
    clean = make_cluster(4).run(_broadcast_per_op)
    per_op, _, per_op_plan = _run_with(plan_of, _broadcast_per_op)
    batch, _, batch_plan = _run_with(plan_of, _broadcast_coalesced)
    for rank in range(4):
        _assert_same_arrays(batch[rank], per_op[rank])
        for member in range(3):
            bits = _flipped_bits(batch[rank][member], clean[rank][member])
            assert bits == (1 if (rank, member) == (3, 1) else 0), (rank, member)
    assert batch_plan.events == per_op_plan.events
    assert [(e.kind, e.rank, e.detail) for e in batch_plan.events] == [
        ("bitflip", 3, "post-reduce, 1 bit(s), match 2")
    ]


def test_coalesced_pre_flip_corrupts_what_every_peer_reads():
    """Rank 1 is the source of members 0 and 2; its second data-bearing
    contribution is member 2. Every rank, rank 1 included, receives the
    same flipped piece, and rank 1's resident array is untouched."""
    plan_of = lambda: FaultPlan(seed=5).flip_bits(  # noqa: E731
        rank=1, op="broadcast", when="pre", nth=2
    )
    clean = make_cluster(4).run(_broadcast_per_op)
    resident = {}

    def keeping_resident(ctx):
        srcs, nbytes, arrays = _broadcast_pieces(ctx.rank)
        if ctx.rank == 1:
            resident["before"] = arrays[2].copy()
            resident["array"] = arrays[2]
        return ctx.world.coalesced(ctx.rank, "broadcast", srcs, arrays, nbytes)

    per_op, _, per_op_plan = _run_with(plan_of, _broadcast_per_op)
    batch, _, batch_plan = _run_with(plan_of, keeping_resident)
    for rank in range(4):
        _assert_same_arrays(batch[rank], per_op[rank])
        _assert_same_arrays(batch[rank], batch[0])
        assert [_flipped_bits(batch[rank][m], clean[rank][m]) for m in range(3)] == [0, 0, 1]
    np.testing.assert_array_equal(resident["array"], resident["before"])
    assert batch_plan.events == per_op_plan.events


def _typed_outcomes(plan, fn, *, retry=FAST_RETRY, world=4, timeout_s=5.0):
    """Per rank, the exception type it ended with and its ledger; and what
    ``Cluster.run`` re-raised."""
    cluster = make_cluster(world, plan=plan, retry=retry, timeout_s=timeout_s)
    ended = [None] * world

    def wrapped(ctx):
        try:
            fn(ctx)
        except BaseException as exc:
            ended[ctx.rank] = type(exc)
            raise

    t0 = time.monotonic()
    with pytest.raises(Exception) as raised:  # noqa: PT011 - the type is the result
        cluster.run(wrapped)
    assert time.monotonic() - t0 < timeout_s / 2  # released by the abort, not a timeout
    return ended, raised.value, cluster


def test_kill_mid_batch_is_a_typed_error_everywhere_and_no_event_is_recorded():
    """The kill fires at the third member's admission: the dying rank never
    deposits, so no peer has exchanged — or recorded — any of the batch."""
    plan = FaultPlan().kill_rank(2, after_collectives=2)
    ended, raised, cluster = _typed_outcomes(plan, _reduce_coalesced)
    assert ended == [FabricAbortedError, FabricAbortedError, RankKilledError, FabricAbortedError]
    assert isinstance(raised, RankKilledError)
    assert plan.killed_ranks == [2]
    assert plan._collective_count[2] == 3
    assert [ledger.events for ledger in cluster.ledgers] == [[], [], [], []]


def test_exhausted_retries_mid_batch_abort_every_rank_with_the_cause():
    plan = FaultPlan().fail_collective(rank=1, op="reduce", nth=2, times=50)
    ended, raised, cluster = _typed_outcomes(
        plan, _reduce_coalesced, retry=RetryPolicy(max_attempts=2, base_backoff_s=0.001)
    )
    assert ended == [FabricAbortedError] * 4
    assert "failed permanently" in str(raised)
    assert isinstance(raised.__cause__, TransientCollectiveFault)
    assert [(e.attempt, e.gave_up) for e in cluster.ledgers[1].retries] == [(1, False), (2, True)]
    assert [ledger.events for ledger in cluster.ledgers] == [[], [], [], []]


def test_faulted_engine_step_counts_collectives_as_the_parent_commit_did():
    """One stage-2 and one stage-3 step under ``fail_collective(rank=1,
    op="reduce", nth=3)``: per rank the plan has seen as many collective
    attempts as it did when every owner's reduce and broadcast was a
    rendezvous of its own (counted at 499c20e), and the step is bitwise the
    fault-free one."""
    from repro import GPTConfig, ZeROConfig
    from repro.data import SyntheticCorpus
    from repro.parallel.engine import EngineConfig
    from repro.zero.factory import build_model_and_engine

    cfg = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
    corpus = SyntheticCorpus(61, seed=7)

    def step(stage, plan):
        cluster = Cluster(
            4, gpu=GPUSpec("t", 2 * 10**9, 1e12), timeout_s=30.0,
            fault_plan=plan, retry_policy=FAST_RETRY,
        )

        def fn(ctx):
            _, engine = build_model_and_engine(
                ctx, cfg, ZeROConfig(stage=stage, memory_defrag=False),
                dp_group=ctx.world, dtype=np.float16, seed=0,
                engine_config=EngineConfig(bucket_numel=1500),
            )
            loss = engine.train_step(*corpus.sample_batch(2, 16, rank=ctx.rank, step=0)).loss
            return loss, engine.opt_state.master.data.copy()

        return cluster.run(fn), cluster

    for stage, expected in ((2, {0: 17, 1: 18, 2: 17, 3: 17}), (3, {0: 22, 1: 23, 2: 22, 3: 22})):
        plan = FaultPlan().fail_collective(rank=1, op="reduce", nth=3)
        clean, _ = step(stage, None)
        faulted, cluster = step(stage, plan)
        assert plan._collective_count == expected
        assert [(e.op, e.attempt) for e in cluster.ledgers[1].retries] == [("reduce", 1)]
        for (loss, master), (clean_loss, clean_master) in zip(faulted, clean):
            assert loss == clean_loss
            np.testing.assert_array_equal(master, clean_master)


# -- every builder's event stream, driven through its door ---------------------
#
# Each case builds a plan, drives it through the door its rules answer at
# (no threads), and pins the ``FaultEvent`` stream in order. Order, count
# and detail all count: a rule evaluated out of turn, fired once too often
# or described differently changes the stream.


def _door_group(plan):
    group = ProcessGroup(Fabric(2), (0, 1))
    for rank in group.ranks:
        group.subscribe(plan, rank)
    return group


def _engine(rank, step, shards=None):
    """What ``step_begin`` / ``checkpoint_written`` read of an engine."""
    from types import SimpleNamespace

    return SimpleNamespace(
        ctx=SimpleNamespace(rank=rank), step_count=step, is_meta=False, tracer=None,
        integrity_shards=lambda: shards,
    )


def _attempts(plan, calls):
    group = _door_group(plan)
    for rank, op in calls:
        try:
            group._tell("_attempting", rank, op)
        except (TransientCollectiveFault, RankKilledError):
            pass


def _steps(plan, calls):
    shards = {k: np.zeros(8, np.float32) for k in ("master", "m", "v")}
    for rank, step in calls:
        try:
            plan.step_begin(_engine(rank, step, shards), True)
        except RankKilledError:
            pass


def _carries(plan, calls):
    group, arr = _door_group(plan), np.arange(16, dtype=np.float32)
    for rank, op, when in calls:
        group._ask("_carrying", rank, arr, op, when)


def _sends(plan, calls):
    group = _door_group(plan)
    for src, dst, tag in calls:
        group._ask("_sending", src, b"payload", dst, tag)


def _saves(plan, ranks, tmp_path):
    for i, rank in enumerate(ranks):
        path = tmp_path / f"rank{rank}.npz"
        if not path.exists():
            path.write_bytes(bytes(range(256)))
        plan.checkpoint_written(_engine(rank, i + 1), path)


def _priced(plan, calls):
    for rank, step, group_ranks in calls:
        plan.note_step(rank, step)
        plan.adjust_alpha_beta(rank, group_ranks, 1e-6, 1e-9)


def _scaled(plan, calls):
    for rank, step in calls:
        plan.compute_scale(rank, step)


ATTEMPTS = [(0, "all_reduce"), (1, "all_reduce"), (0, "all_gather"), (1, "all_gather"),
            (0, "all_reduce"), (1, "all_reduce"), (0, "all_reduce"), (1, "all_reduce")]

BUILDER_STREAMS = {
    "kill_rank-at_step": (
        lambda p: p.kill_rank(1, at_step=3).kill_rank(0, at_step=2),
        lambda p, tmp: _steps(p, [(0, 1), (1, 1), (1, 2), (0, 2), (1, 3), (0, 3), (1, 4)]),
        [("kill", 0, "step", "at step 2"), ("kill", 1, "step", "at step 3")],
    ),
    "kill_rank-after_collectives": (
        lambda p: p.kill_rank(1, after_collectives=3),
        lambda p, tmp: _attempts(p, ATTEMPTS),
        [("kill", 1, "collective", "after 3 collectives")],
    ),
    "fail_collective": (
        lambda p: p.fail_collective(op="all_reduce", nth=2, times=2).fail_collective(rank=1, nth=3),
        lambda p, tmp: _attempts(p, ATTEMPTS),
        [("transient", 0, "all_reduce", "match 2"), ("transient", 1, "all_reduce", "match 2"),
         ("transient", 0, "all_reduce", "match 3"), ("transient", 1, "all_reduce", "match 3")],
    ),
    "fail_randomly": (
        lambda p: p.fail_randomly(prob=0.5, max_faults=3),
        lambda p, tmp: _attempts(p, ATTEMPTS),
        [("transient", 1, "all_gather", "random"), ("transient", 1, "all_reduce", "random"),
         ("transient", 0, "all_reduce", "random")],
    ),
    "evaluation-order-at-attempting": (
        lambda p: (p.fail_randomly(prob=1.0, max_faults=2).fail_collective(rank=0, times=2)
                   .kill_rank(1, after_collectives=2)),
        lambda p, tmp: _attempts(p, ATTEMPTS),
        [("transient", 0, "all_reduce", "match 1"), ("transient", 1, "all_reduce", "random"),
         ("transient", 0, "all_gather", "match 2"), ("transient", 1, "all_gather", "random"),
         ("kill", 1, "collective", "after 2 collectives")],
    ),
    "drop_send": (
        lambda p: p.drop_send(src=0, dst=1, tag=5, nth=2).drop_send(src=1, times=2),
        lambda p, tmp: _sends(p, [(0, 1, 5), (0, 1, 6), (1, 0, 5), (0, 1, 5), (1, 0, 7),
                                  (0, 1, 5), (1, 0, 5)]),
        [("drop_send", 1, "send", "dst 0 tag 5"), ("drop_send", 0, "send", "dst 1 tag 5"),
         ("drop_send", 1, "send", "dst 0 tag 7")],
    ),
    "delay_send": (
        lambda p: p.delay_send(src=0, delay_s=0.0, tag=5, times=2).drop_send(src=0, nth=2),
        lambda p, tmp: _sends(p, [(0, 1, 5), (0, 1, 5), (0, 1, 6), (0, 1, 5)]),
        [("delay_send", 0, "send", "dst 1 tag 5 delay 0.0s"),
         ("delay_send", 0, "send", "dst 1 tag 5 delay 0.0s"),
         ("drop_send", 0, "send", "dst 1 tag 5")],
    ),
    "flip_bits": (
        lambda p: (p.flip_bits(rank=1, op="all_gather", nth=2, bits=3)
                   .flip_bits(when="pre", times=2).flip_bits(op="all_reduce")),
        lambda p, tmp: _carries(p, [(1, "all_gather", "post"), (1, "all_gather", "post"),
                                    (0, "all_reduce", "pre"), (1, "all_reduce", "pre"),
                                    (0, "all_reduce", "post"), (0, "all_reduce", "pre"),
                                    (0, "all_reduce", "pre")]),
        [("bitflip", 1, "all_gather", "post-reduce, 3 bit(s), match 2"),
         ("bitflip", 0, "all_reduce", "pre-reduce, 1 bit(s), match 1"),
         ("bitflip", 1, "all_reduce", "pre-reduce, 1 bit(s), match 1"),
         ("bitflip", 0, "all_reduce", "post-reduce, 1 bit(s), match 1"),
         ("bitflip", 0, "all_reduce", "pre-reduce, 1 bit(s), match 2")],
    ),
    "scribble_tensor": (
        lambda p: (p.scribble_tensor(rank=1, at_step=3, target="v", bits=2)
                   .scribble_tensor(rank=1, at_step=2)
                   .scribble_tensor(rank=0, at_step=1, target="param_shard")),
        lambda p, tmp: _steps(p, [(0, 1), (1, 1), (1, 3), (1, 4), (0, 2)]),
        [("scribble", 0, "step", "param_shard at step 1, 1 bit(s)"),
         ("scribble", 1, "step", "v at step 3, 2 bit(s)"),
         ("scribble", 1, "step", "master at step 3, 1 bit(s)")],
    ),
    "rot_checkpoint": (
        lambda p: p.rot_checkpoint(rank=1, nth=2, times=2, bits=2).rot_checkpoint(bits=1),
        lambda p, tmp: _saves(p, [0, 1, 1, 0, 1, 1], tmp),
        [("ckpt-rot", 0, "checkpoint", "rank0.npz, 1 bit(s), save 1"),
         ("ckpt-rot", 1, "checkpoint", "rank1.npz, 1 bit(s), save 1"),
         ("ckpt-rot", 1, "checkpoint", "rank1.npz, 2 bit(s), save 2"),
         ("ckpt-rot", 1, "checkpoint", "rank1.npz, 2 bit(s), save 3")],
    ),
    "degrade_link": (
        lambda p: (p.degrade_link(src=1, bw_factor=0.5, latency_add_s=1e-6, from_step=3)
                   .degrade_link(src=0, dst=2, until_step=2).degrade_link(src=0, dst=1)),
        lambda p, tmp: _priced(p, [(0, 1, (0, 2)), (0, 2, (0, 1)), (1, 3, (0, 1)),
                                   (0, 4, (0, 1, 2)), (1, 5, (1, 2))]),
        [("degrade-link", 0, "perf", "dst 2 bw x0.25 +0.0s latency"),
         ("degrade-link", 0, "perf", "dst 1 bw x0.25 +0.0s latency"),
         ("degrade-link", 1, "perf", "dst any bw x0.5 +1e-06s latency")],
    ),
    "throttle_rank": (
        lambda p: (p.throttle_rank(rank=1, compute_factor=2.5, from_step=2, until_step=3)
                   .throttle_rank(rank=0, from_step=4)),
        lambda p, tmp: _scaled(p, [(1, 1), (0, 2), (1, 2), (1, 3), (0, 4), (0, 5), (1, 4)]),
        [("throttle", 1, "perf", "compute x2.5 from step 2"),
         ("throttle", 0, "perf", "compute x4.0 from step 4")],
    ),
    "jitter": (
        lambda p: p.jitter(rank=0, sigma=0.2, from_step=2).jitter(rank=1, until_step=1),
        lambda p, tmp: _scaled(p, [(0, 1), (1, 1), (0, 2), (1, 2), (0, 3)]),
        [("jitter", 1, "perf", "sigma 0.05 from step 1"),
         ("jitter", 0, "perf", "sigma 0.2 from step 2")],
    ),
    "evaluation-order-of-perf-rules": (
        lambda p: p.jitter(rank=0, sigma=0.1).throttle_rank(rank=0, compute_factor=3.0),
        lambda p, tmp: _scaled(p, [(0, 1), (0, 2)]),
        [("throttle", 0, "perf", "compute x3.0 from step 1"),
         ("jitter", 0, "perf", "sigma 0.1 from step 1")],
    ),
}


@pytest.mark.parametrize("case", sorted(BUILDER_STREAMS))
def test_each_builder_fires_its_pinned_event_stream(case, tmp_path):
    """The stream each builder's rules fire, in order (pinned at 5fc718f)."""
    build, drive, want = BUILDER_STREAMS[case]
    plan = build(FaultPlan(seed=7))
    drive(plan, tmp_path)
    assert [(e.kind, e.rank, e.op, e.detail) for e in plan.events] == want
