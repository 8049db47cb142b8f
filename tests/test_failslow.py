"""Fail-slow defense: gray-failure injection -> detection -> eviction.

Three layers under test (docs/ARCHITECTURE.md §12):

* **Injection** — ``FaultPlan`` performance rules (``degrade_link`` /
  ``throttle_rank`` / ``jitter``) that never raise and only stretch the
  *simulated* clock: numerics stay bitwise identical to a fault-free run.
* **Detection** — ``repro.health.HealthMonitor``: row-aligned robust
  z-scores over the telemetry step spans, hysteresis so transient jitter
  never triggers, EWMA link estimates from priced comm events.
* **Remediation** — the ``Supervisor``'s ``slow-evict`` policy: the
  confirmed-slow rank is evicted via the elastic N->M re-shard, its perf
  rules are retired, and the resumed trajectory is bitwise-deterministic
  with step time back at the healthy-world analytic prediction.
"""

import numpy as np
import pytest

from repro import (
    Cluster,
    FaultPlan,
    GPTConfig,
    HealthConfig,
    HealthMonitor,
    RetryPolicy,
    SlowRankDetectedError,
    Supervisor,
    ZeROConfig,
    verify_recovery,
)
from repro.comm.costmodel import CommCostModel
from repro.comm.ledger import CommEvent
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.hardware.topology import ClusterTopology
from repro.health.monitor import CONFIRMED, HEALTHY, SUSPECT
from repro.optim.adam import AdamHyperparams
from repro.restart import RestartKind
from repro.parallel.engine import EngineConfig
from repro.telemetry import TelemetrySession
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

pytestmark = pytest.mark.failslow

# Low peak FLOPs so modeled compute dominates the priced step time — a
# compute throttle then moves the whole step, as on a real slow GPU.
GPU = GPUSpec("t", 2 * 10**9, 1e11)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)


def build(ctx, stage=2):
    zero = ZeROConfig(stage=stage, checkpoint_activations=False, memory_defrag=False)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
    )


def run_steps(world, steps, *, plan=None, health=None, retry_policy=None):
    """Train ``steps`` real steps on a fresh cluster; returns
    (per-rank losses, session, cluster)."""
    session = TelemetrySession(health=health)
    cluster = Cluster(
        world, gpu=GPU, timeout_s=15.0, fault_plan=plan,
        retry_policy=retry_policy, telemetry=session,
    )

    def fn(ctx):
        model, engine = build(ctx)
        losses = []
        for step in range(steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses

    return cluster.run(fn), session, cluster


# -- injection: rule validation and window mechanics ------------------------


class TestPerfRules:
    def test_validation(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.degrade_link(src=0, bw_factor=0.0)
        with pytest.raises(ValueError):
            plan.degrade_link(src=0, bw_factor=1.5)
        with pytest.raises(ValueError):
            plan.degrade_link(src=0, latency_add_s=-1.0)
        with pytest.raises(ValueError):
            plan.throttle_rank(rank=0, compute_factor=0.5)
        with pytest.raises(ValueError):
            plan.jitter(rank=0, sigma=-0.1)
        with pytest.raises(ValueError):
            plan.throttle_rank(rank=0, from_step=0)
        with pytest.raises(ValueError):
            plan.throttle_rank(rank=0, from_step=5, until_step=4)
        assert not plan.has_perf_rules  # nothing half-registered

    def test_builders_chain_and_register(self):
        plan = (FaultPlan(seed=3)
                .degrade_link(src=0, dst=1)
                .throttle_rank(rank=2)
                .jitter(rank=1))
        assert plan.has_perf_rules
        assert not FaultPlan().has_perf_rules

    def test_throttle_window(self):
        plan = FaultPlan().throttle_rank(
            rank=1, compute_factor=4.0, from_step=3, until_step=5
        )
        assert plan.compute_scale(1, 2) == 1.0
        assert plan.compute_scale(1, 3) == 4.0
        assert plan.compute_scale(1, 5) == 4.0
        assert plan.compute_scale(1, 6) == 1.0
        assert plan.compute_scale(0, 4) == 1.0  # wrong rank
        # One onset event total, not one per firing.
        onsets = [e for e in plan.events if e.kind == "throttle"]
        assert len(onsets) == 1 and onsets[0].op == "perf"

    def test_jitter_deterministic_and_bounded(self):
        a = FaultPlan(seed=9).jitter(rank=0, sigma=0.1)
        b = FaultPlan(seed=9).jitter(rank=0, sigma=0.1)
        scales = [a.compute_scale(0, s) for s in range(1, 8)]
        assert scales == [b.compute_scale(0, s) for s in range(1, 8)]
        assert all(s >= 1.0 for s in scales)
        assert len(set(scales)) > 1  # redrawn per step
        # Repeated calls for the same step agree (no hidden RNG state).
        assert a.compute_scale(0, 3) == b.compute_scale(0, 3)

    def test_adjust_alpha_beta_window_and_group_matching(self):
        plan = FaultPlan().degrade_link(
            src=1, bw_factor=0.25, latency_add_s=1e-6, from_step=5
        )
        alpha, beta = 1e-6, 1e-9
        plan.note_step(0, 4)  # window not yet open for rank 0's clock
        assert plan.adjust_alpha_beta(0, (0, 1), alpha, beta) == (alpha, beta)
        plan.note_step(0, 5)
        a2, b2 = plan.adjust_alpha_beta(0, (0, 1), alpha, beta)
        assert a2 == pytest.approx(alpha + 1e-6)
        assert b2 == pytest.approx(beta * 4.0)
        # Groups not containing the degraded link are untouched.
        assert plan.adjust_alpha_beta(0, (2, 3), alpha, beta) == (alpha, beta)

    def test_retire_perf_rules(self):
        plan = (FaultPlan()
                .throttle_rank(rank=1, compute_factor=4.0)
                .jitter(rank=1, sigma=0.1)
                .degrade_link(src=1)
                .degrade_link(src=0, dst=1)
                .degrade_link(src=0, dst=2))
        plan.note_step(0, 1)
        assert plan.compute_scale(1, 1) > 1.0
        assert plan.retire_perf_rules(1) == 4  # throttle, jitter, 2 links
        assert plan.compute_scale(1, 1) == 1.0
        assert plan.adjust_alpha_beta(0, (0, 1), 1e-6, 1e-9) == (1e-6, 1e-9)
        # The src=0,dst=2 link survives.
        assert plan.adjust_alpha_beta(0, (0, 2), 1e-6, 1e-9) != (1e-6, 1e-9)


class TestCostModelDegradation:
    def test_degraded_pricing(self):
        topo = ClusterTopology.for_world_size(4)
        plan = FaultPlan().degrade_link(src=1, bw_factor=0.25)
        healthy = CommCostModel(topo)
        degraded = CommCostModel(topo, perf=plan, perf_rank=0)
        ev = CommEvent(op="all_reduce", message_bytes=1 << 20, group_size=4,
                       group_ranks=(0, 1, 2, 3), phase="grad-reduce")
        assert degraded.event_time(ev) > healthy.event_time(ev)
        # PCIe copies never touch the link rules.
        h2d = CommEvent(op="h2d", message_bytes=1 << 20, group_size=1,
                        group_ranks=(0,), phase="other")
        assert degraded.event_time(h2d) == healthy.event_time(h2d)


# -- detection: monitor unit tests ------------------------------------------


class _FakeTracer:
    def __init__(self, rank):
        self.rank = rank
        self.instants = []

    def instant(self, name, **args):
        self.instants.append((name, args))


def bound(world_size):
    """A monitor bound to ``world_size`` ranks, as ``Cluster`` binds it."""
    mon = HealthMonitor(HealthConfig())
    mon.bind_world(world_size)
    return mon


def feed_rows(monitor, rows, tracers=None):
    """Feed one duration per rank per row, like lockstep rank threads."""
    tracers = tracers or {r: _FakeTracer(r) for r in range(len(rows[0]))}
    for row in rows:
        for rank, duration in enumerate(row):
            monitor.on_step(tracers[rank], duration)
    return tracers


class TestHealthMonitor:
    def test_state_machine_confirms_persistent_straggler(self):
        mon = bound(3)
        rows = [[1.0, 1.0, 1.0]] * 6 + [[1.0, 1.0, 4.0]] * 8
        with pytest.raises(SlowRankDetectedError):
            feed_rows(mon, rows)
        assert mon.verdict(2) == CONFIRMED
        assert mon.verdict(0) == HEALTHY and mon.verdict(1) == HEALTHY
        assert mon.slowdown(2) > 3.0
        kinds = [(t.rank, t.after) for t in mon.transitions]
        assert kinds == [(2, SUSPECT), (2, CONFIRMED)]

    def test_transient_spike_never_leaves_healthy(self):
        mon = bound(2)
        rows = [[1.0, 1.0]] * 6 + [[1.0, 5.0]] + [[1.0, 1.0]] * 6
        feed_rows(mon, rows)
        assert mon.transitions == []
        assert mon.verdict(1) == HEALTHY

    def test_suspect_clears_with_hysteresis(self):
        mon = bound(2)
        # Long enough to go suspect (three anomalous smoothed rows), then
        # recover before confirm.
        rows = [[1.0, 1.0]] * 6 + [[1.0, 4.0]] * 3 + [[1.0, 1.0]] * 6
        feed_rows(mon, rows)
        assert [(t.after) for t in mon.transitions] == [SUSPECT, HEALTHY]
        assert mon.verdict(1) == HEALTHY

    def test_no_false_positives_under_jitter(self):
        rng = np.random.default_rng(5)
        mon = bound(4)
        rows = [
            [1.0 * (1.0 + abs(rng.normal(0.0, 0.05))) for _ in range(4)]
            for _ in range(40)
        ]
        feed_rows(mon, rows)
        assert mon.transitions == []

    def test_confirm_raises_when_evicting(self):
        mon = bound(2)
        rows = [[1.0, 1.0]] * 6 + [[1.0, 4.0]] * 10
        with pytest.raises(SlowRankDetectedError) as exc_info:
            feed_rows(mon, rows)
        assert exc_info.value.rank == 1
        assert exc_info.value.slowdown > 2.0
        assert exc_info.value.cause == "compute"

    def test_verdict_instants_and_gauges(self):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        mon = bound(2)
        mon.registry = registry  # what ``TelemetrySession(health=...)`` does
        tracers = {r: _FakeTracer(r) for r in range(2)}
        with pytest.raises(SlowRankDetectedError):
            feed_rows(mon, [[1.0, 1.0]] * 6 + [[1.0, 4.0]] * 8, tracers)
        names = [n for t in tracers.values() for n, _ in t.instants]
        assert names.count("health-verdict") == 2
        assert registry.gauge("health_verdict", rank=1).value == 2
        assert registry.gauge("rank_slowdown_factor", rank=1).value > 3.0
        assert registry.counter("health_confirmed_slow", rank=1).value == 1

    def test_unbound_monitor_is_inert(self):
        mon = HealthMonitor(HealthConfig())
        mon.on_step(_FakeTracer(0), 1.0)  # no world bound: collect nothing
        assert mon.verdict_history == []

    def test_verify_recovery_contract(self):
        ok = verify_recovery([1.0, 1.02, 0.98], 1.0)
        assert ok.ok and ok.ratio == pytest.approx(1.0)
        bad = verify_recovery([2.0, 2.0], 1.0)
        assert not bad.ok and bad.ratio == pytest.approx(2.0)
        assert not verify_recovery([], 1.0).ok


# -- engine integration: simulated clock stretches, numerics don't ----------


class TestEngineIntegration:
    def test_throttle_stretches_victim_clock_numerics_bitwise(self):
        steps = 5
        clean_losses, clean_session, _ = run_steps(2, steps)
        plan = FaultPlan(seed=1).throttle_rank(rank=1, compute_factor=4.0)
        slow_losses, slow_session, _ = run_steps(2, steps, plan=plan)
        # Gray failure: numerics are bitwise identical...
        assert slow_losses == clean_losses
        # ...the healthy rank's clock is untouched...
        assert (slow_session.tracers[0].step_durations
                == clean_session.tracers[0].step_durations)
        # ...and the victim's simulated step time is stretched hard.
        slow = slow_session.tracers[1].step_durations
        clean = clean_session.tracers[1].step_durations
        ratios = [s / c for s, c in zip(slow, clean)]
        assert min(ratios) > 2.5  # 4x compute on a compute-dominated step

    def test_degraded_link_inflates_priced_comm(self):
        steps = 4
        _, clean_session, _ = run_steps(2, steps)
        plan = FaultPlan(seed=1).degrade_link(
            src=1, bw_factor=0.05, latency_add_s=1e-3
        )
        losses, slow_session, _ = run_steps(2, steps, plan=plan)
        for rank in (0, 1):  # both members of the group pay the slow link
            slow = sum(slow_session.tracers[rank].step_durations)
            clean = sum(clean_session.tracers[rank].step_durations)
            assert slow > clean * 1.02

    def test_degraded_link_is_not_a_transient_fault(self):
        """Satellite: a slow link must never be misclassified by the PR 1
        retry path — no RetryEvents, no escalation, run completes."""
        steps = 4
        plan = FaultPlan(seed=1).degrade_link(
            src=1, bw_factor=0.05, latency_add_s=1e-4
        )
        losses, session, cluster = run_steps(
            2, steps, plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
        )
        assert all(len(l) == steps for l in losses)  # nothing escalated
        for ledger in cluster.ledgers:
            assert ledger.retries == []
        for tracer in session.tracers.values():
            assert not [i for i in tracer.instants if i.name.startswith("retry")]
        # The only fault-plan trace is the degrade onset event.
        assert [e.kind for e in plan.events] == ["degrade-link"]

    def test_health_disabled_is_byte_identical(self):
        """Acceptance: with monitoring off, behavior is byte-identical —
        same losses, same simulated clocks, no health artifacts."""
        steps = 5
        plain_losses, plain_session, _ = run_steps(2, steps)
        health = HealthMonitor(HealthConfig())
        mon_losses, mon_session, _ = run_steps(2, steps, health=health)
        assert mon_losses == plain_losses
        for rank in (0, 1):
            assert (mon_session.tracers[rank].step_durations
                    == plain_session.tracers[rank].step_durations)
        assert plain_session.health is None
        assert all(t.health is None for t in plain_session.tracers.values())
        # And perf faults without telemetry change nothing at all.
        session = TelemetrySession()
        no_tel = Cluster(
            2, gpu=GPU, timeout_s=15.0,
            fault_plan=FaultPlan().throttle_rank(rank=1, compute_factor=8.0),
        )

        def fn(ctx):
            model, engine = build(ctx)
            out = []
            for step in range(steps):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                out.append(engine.train_step(ids, tgt).loss)
            return out

        assert no_tel.run(fn) == plain_losses


# -- remediation: end-to-end acceptance -------------------------------------


TOTAL_STEPS = 14
CKPT_EVERY = 2
ONSET_STEP = 5
CONFIRM_WITHIN = 6  # steps after onset by which the confirm must land


def make_train_fn(root, resumed):
    def train_fn(ctx):
        model, engine = build(ctx)
        latest = latest_checkpoint(root)
        if latest is not None:
            load_checkpoint_resharded(engine, latest)
        if ctx.rank == 0:
            resumed.append((ctx.world_size, engine.step_count))
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
            if engine.step_count % CKPT_EVERY == 0:
                save_checkpoint(engine, root / f"step{engine.step_count}")
        return losses, engine.opt_state.master.data.copy()

    return train_fn


class TestSlowRankEviction:
    def test_e2e_throttled_rank_evicted_bitwise_and_recovers(self, tmp_path):
        """The acceptance scenario: persistent 4x throttle on rank 2 of 3
        from step 5, sigma=0.02 jitter on the healthy ranks. The monitor
        confirms within CONFIRM_WITHIN steps with zero false positives,
        the Supervisor evicts via N->M re-shard, the resumed trajectory
        is bitwise equal to an uninterrupted 2-rank resume, and step time
        returns to within 10% of the healthy-world analytic simulation."""
        root = tmp_path / "ckpts"
        plan = (FaultPlan(seed=11)
                .throttle_rank(rank=2, compute_factor=4.0, from_step=ONSET_STEP)
                .jitter(rank=0, sigma=0.02)
                .jitter(rank=1, sigma=0.02))
        health = HealthMonitor(HealthConfig())
        session = TelemetrySession(health=health)
        resumed = []
        sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         telemetry=session)
        report = sup.run(make_train_fn(root, resumed))

        # Remediation: one slow-evict, world 3 -> 2, nobody actually died.
        assert report.restarts == 1
        assert report.final_world_size == 2
        assert [e.kind for e in report.events] == [RestartKind.SLOW_EVICT]
        assert report.events[0].killed_ranks == (2,)
        assert plan.killed_ranks == []

        # Detection: confirmed within the latency bound, zero false
        # positives on the jittering healthy ranks, cause attributed.
        assert all(t.rank == 2 for t in health.transitions)
        confirms = [t for t in health.transitions if t.after == CONFIRMED]
        assert len(confirms) == 1
        assert confirms[0].row + 1 <= ONSET_STEP + CONFIRM_WITHIN
        assert confirms[0].cause == "compute"
        assert session.registry.counter(
            "health_confirmed_slow", rank=2
        ).value == 1
        assert session.registry.counter("supervisor_slow_evicts").value == 1

        # The victim's rules were retired: the survivor that inherited
        # rank 2's number... does not exist (world is 2), but a fresh
        # 3-rank probe of the plan shows the throttle is dead.
        assert plan.compute_scale(2, TOTAL_STEPS) == 1.0

        # Bitwise determinism: an uninterrupted 2-rank world resuming
        # from the same checkpoint produces the same losses and master.
        (_, resume_step_ignored), (resume_world, resume_step) = resumed
        assert resume_world == 2

        ref_session = TelemetrySession()

        def ref_fn(ctx):
            model, engine = build(ctx)
            load_checkpoint_resharded(engine, root / f"step{resume_step}")
            losses = []
            for step in range(engine.step_count, TOTAL_STEPS):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                losses.append(engine.train_step(ids, tgt).loss)
            return losses, engine.opt_state.master.data.copy()

        ref = Cluster(2, gpu=GPU, timeout_s=15.0, telemetry=ref_session).run(ref_fn)
        for rank in range(2):
            assert report.results[rank][0] == ref[rank][0]
            np.testing.assert_array_equal(report.results[rank][1], ref[rank][1])

        # Throughput-recovery contract: post-eviction simulated step time
        # within 10% of the healthy-world analytic prediction (the
        # fault-free reference priced on the same alpha-beta model; the
        # survivors' residual jitter is what the tolerance absorbs).
        n_final = TOTAL_STEPS - resume_step
        post = session.tracers[0].step_durations[-n_final:]
        ref_durations = ref_session.tracers[0].step_durations
        predicted = sum(ref_durations) / len(ref_durations)
        recovery = verify_recovery(post, predicted)
        assert recovery.ok, recovery

        # Satellite: the summary's straggler column carries the verdict.
        summary = session.summary()
        assert "[suspect]" in summary or "[confirmed-slow]" in summary
