"""Unified telemetry: span tracer, metrics registry, Chrome-trace export.

Acceptance properties (docs/ARCHITECTURE.md §9):

* A stage-2 meta-mode run with telemetry exports a Chrome trace whose
  summed span durations agree with the ledger-driven ``analysis.sim_time``
  step-time estimate within 5% (in fact: exactly, by construction — both
  price the same events with the same cost model), and whose per-phase
  nominal comm bytes match ``CommLedger.by_phase()`` exactly.
* With telemetry disabled, the engines allocate no tracer objects and
  record nothing.
* Exported traces are structurally valid: JSON-shaped, per-track
  monotonic timestamps, matched B/E pairs.
* ``RetryEvent``s reach telemetry even while the ledger's volume
  accounting is disabled, and ``gave_up`` escalations appear as instant
  events and registry counters.
"""

import json

import numpy as np
import pytest

from repro.analysis.perf_model import transformer_flops_per_replica
from repro.analysis.sim_time import LedgerTimeEstimator
from repro.comm.fabric import FabricAbortedError
from repro.comm.faults import FaultPlan, RetryPolicy
from repro.experiments.offload_sweep import offload_tiers
from repro.hardware.specs import GPUSpec
from repro.memsim.device import Device
from repro.memsim.timeline import MemoryTimeline
from repro.nn.transformer import GPTConfig
from repro.runtime import Cluster, virtual_rank_context
from repro.supervisor import Supervisor
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySession,
    Tracer,
    validate_chrome_trace,
    validate_metrics_jsonl,
)
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.stage12 import ZeroStage1Engine

pytestmark = pytest.mark.telemetry

GPU = GPUSpec("telemetry-gpu", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
WORLD = 4
STEPS = 3
BATCH, SEQ = 2, 16


def comm_bytes_by_phase(tracer) -> dict[str, float]:
    """The tracer's per-phase comm counters, as ``CommLedger.by_phase()``."""
    return {
        labels["phase"]: counter.value
        for labels, counter in tracer.registry.instances("comm_nominal_bytes", rank=str(tracer.rank))
    }


def run_meta_stage2(session, *, steps=STEPS, zero=None):
    """Stage-2 meta-mode training on a telemetry-attached cluster; returns
    (cluster, per-rank ledgers)."""
    cluster = Cluster(WORLD, gpu=GPU, telemetry=session)
    zero = zero or ZeROConfig(stage=2, checkpoint_activations=False,
                              memory_defrag=False)

    def fn(ctx):
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True, seed=0,
        )
        ids = np.zeros((BATCH, SEQ), dtype=np.int64)
        for _ in range(steps):
            engine.train_step(ids, ids)
        return ctx.ledger

    return cluster, cluster.run(fn)


# -- acceptance: trace agrees with sim_time + ledger ------------------------


class TestAcceptance:
    def test_span_durations_match_sim_time_within_5pct(self):
        session = TelemetrySession()
        cluster, ledgers = run_meta_stage2(session)
        flops = STEPS * transformer_flops_per_replica(
            CFG, BATCH, SEQ, checkpointing=False
        )
        est = LedgerTimeEstimator(cluster.topology, gpu=GPU)
        for rank in range(WORLD):
            tracer = session.tracers[rank]
            assert len(tracer.step_durations) == STEPS
            traced = sum(tracer.step_durations)
            expected = est.estimate(
                ledgers[rank], flops_per_gpu=flops, hidden=CFG.hidden
            ).total_s
            assert traced == pytest.approx(expected, rel=0.05)

    def test_per_phase_comm_bytes_match_ledger_exactly(self):
        session = TelemetrySession()
        _, ledgers = run_meta_stage2(session)
        for rank in range(WORLD):
            tracer = session.tracers[rank]
            assert comm_bytes_by_phase(tracer) == ledgers[rank].by_phase()
            assert tracer.comm_bytes_by_op() == ledgers[rank].by_op()

    def test_exported_trace_is_valid_and_loadable(self, tmp_path):
        session = TelemetrySession()
        run_meta_stage2(session)
        path = tmp_path / "trace.json"
        session.write_chrome_trace(path)
        text = path.read_text()
        validate_chrome_trace(text)  # valid JSON + invariants, from disk
        trace = json.loads(text)
        ranks = {ev["pid"] for ev in trace["traceEvents"]}
        assert ranks == set(range(WORLD))
        names = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "B"}
        assert {"step", "forward", "backward", "grad-reduce", "optimizer",
                "param-allgather"} <= names
        counters = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "C"}
        assert {"allocated_bytes", "comm_nominal_bytes"} <= counters

    def test_summary_table_renders_per_step_rows(self):
        session = TelemetrySession()
        run_meta_stage2(session)
        text = session.summary()
        for needle in ("forward (ms)", "backward (ms)", "grad-reduce (ms)",
                       "optimizer (ms)", "comm volume", "straggler",
                       "comm volume by op"):
            assert needle in text
        # One row per step plus header/rule/footer.
        assert sum(line.strip().startswith(str(s)) for s in range(STEPS)
                   for line in text.splitlines()) >= STEPS

    def test_step_time_histogram_aggregates_across_ranks(self):
        session = TelemetrySession()
        run_meta_stage2(session)
        stats = session.registry.aggregate("step_time_s")
        assert stats.count == WORLD * STEPS
        assert 0 < stats.minimum <= stats.maximum
        # Mean compares up to float summation error.
        assert stats.minimum <= stats.mean * (1 + 1e-12)
        assert stats.mean <= stats.maximum * (1 + 1e-12)
        assert stats.minimum <= stats.p95 <= stats.maximum


# -- disabled = zero overhead ------------------------------------------------


class TestDisabled:
    def test_no_tracer_objects_without_session(self):
        cluster = Cluster(2, gpu=GPU)
        zero = ZeROConfig(stage=2, checkpoint_activations=False,
                          memory_defrag=False)

        def fn(ctx):
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, meta=True, seed=0,
            )
            ids = np.zeros((2, 16), dtype=np.int64)
            engine.train_step(ids, ids)
            return ctx.tracer, engine.tracer, ctx.ledger.listener

        for ctx_tracer, engine_tracer, listener in cluster.run(fn):
            assert ctx_tracer is None
            assert engine_tracer is None
            assert listener is None

    def test_zero_config_flag_defaults_off(self):
        ctx = virtual_rank_context(8, gpu=GPU)
        from repro.nn.transformer import GPT2Model

        model = GPT2Model(CFG, meta=True)
        engine = ZeroStage1Engine(ctx, model, ctx.world, ZeROConfig(stage=1))
        assert ctx.tracer is None and engine.tracer is None


# -- a virtual rank under a session ------------------------------------------


class TestVirtualRankSession:
    def test_session_tracer_times_a_virtual_rank_step(self):
        ctx = virtual_rank_context(8, gpu=GPU)
        # A session's tracer on the virtual rank, wired as ``Cluster`` wires one.
        ctx.tracer = TelemetrySession().tracer_for(0, topology=ctx.topology)
        ctx.ledger.listener = ctx.tracer
        zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True, seed=0,
        )
        assert engine.tracer is ctx.tracer
        ids = np.zeros((2, 16), dtype=np.int64)
        engine.train_step(ids, ids)
        assert ctx.tracer.step_durations and ctx.tracer.step_durations[0] > 0
        assert comm_bytes_by_phase(ctx.tracer) == ctx.ledger.by_phase()
        stats = ctx.tracer.registry.aggregate("step_time_s")
        assert stats.count == 1


# -- trace validation --------------------------------------------------------


class TestValidateChromeTrace:
    def test_rejects_invalid_json(self):
        with pytest.raises(json.JSONDecodeError):
            validate_chrome_trace("{not json")

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": []})

    def test_rejects_backwards_timestamps(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 5.0},
            {"name": "a", "ph": "E", "pid": 0, "tid": 0, "ts": 4.0},
        ]}
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(trace)

    def test_rejects_mismatched_pairs(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 0.0},
            {"name": "b", "ph": "E", "pid": 0, "tid": 0, "ts": 1.0},
        ]}
        with pytest.raises(ValueError, match="mismatched"):
            validate_chrome_trace(trace)

    def test_rejects_unclosed_begin(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 0.0},
        ]}
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(trace)

    def test_rejects_end_with_no_begin(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "E", "pid": 0, "tid": 0, "ts": 0.0},
        ]}
        with pytest.raises(ValueError, match="no open B"):
            validate_chrome_trace(trace)

    def test_accepts_counter_tracks_with_independent_clocks(self):
        # Counters are monotonic per (pid, tid, name), not interleaved.
        trace = {"traceEvents": [
            {"name": "x", "ph": "C", "pid": 0, "tid": 0, "ts": 5.0,
             "args": {"value": 1}},
            {"name": "y", "ph": "C", "pid": 0, "tid": 0, "ts": 1.0,
             "args": {"value": 2}},
        ]}
        validate_chrome_trace(trace)


# -- retry accounting --------------------------------------------------------


@pytest.mark.faults
class TestRetryTelemetry:
    def test_retries_recorded_while_ledger_disabled(self):
        """Control-plane collectives run with volume accounting off; their
        retries must still reach telemetry (the ledger's own contract)."""
        session = TelemetrySession()
        plan = FaultPlan().fail_collective(rank=1, op="all_reduce", times=2)
        cluster = Cluster(
            2, gpu=GPU, timeout_s=5.0, fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=5, base_backoff_s=0.001),
            telemetry=session,
        )

        def fn(ctx):
            ctx.ledger.enabled = False
            try:
                ctx.world.all_reduce(ctx.rank, np.ones(4, np.float32))
            finally:
                ctx.ledger.enabled = True
            return len(ctx.ledger.events)

        events_per_rank = cluster.run(fn)
        assert events_per_rank == [0, 0]  # no volume recorded...
        tracer = session.tracers[1]
        retries = [i for i in tracer.instants if i.name == "retry"]
        assert [i.args["attempt"] for i in retries] == [1, 2]
        assert all(i.args["op"] == "all_reduce" for i in retries)
        # ...but the retry counters did fire.
        counter = session.registry.counter("retries", rank=1, op="all_reduce")
        assert counter.value == 2
        assert session.tracers[0].instants == []

    def test_gave_up_escalation_visible_as_instant(self):
        session = TelemetrySession()
        plan = FaultPlan().fail_collective(rank=0, op="all_reduce", times=50)
        cluster = Cluster(
            2, gpu=GPU, timeout_s=5.0, fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
            telemetry=session,
        )
        with pytest.raises(FabricAbortedError):
            cluster.run(
                lambda ctx: ctx.world.all_reduce(ctx.rank, np.ones(2, np.float32))
            )
        tracer = session.tracers[0]
        gave_up = [i for i in tracer.instants if i.name == "retry-gave-up"]
        assert len(gave_up) == 1
        assert gave_up[0].args["attempt"] == 2
        reg = session.registry
        assert reg.counter("retries_gave_up", rank=0, op="all_reduce").value == 1
        # Retry count includes the abandoned attempt.
        assert reg.counter("retries", rank=0, op="all_reduce").value == 2


# -- supervisor instants -----------------------------------------------------


@pytest.mark.faults
class TestSupervisorTelemetry:
    def test_restart_appears_as_global_instant(self):
        session = TelemetrySession()
        plan = FaultPlan().kill_rank(1, at_step=2)
        sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         telemetry=session)
        zero = ZeROConfig(stage=1, checkpoint_activations=False,
                          memory_defrag=False)

        def train_fn(ctx):
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, meta=True, seed=0,
            )
            ids = np.zeros((2, 16), dtype=np.int64)
            for _ in range(3):
                engine.train_step(ids, ids)
            return engine.step_count

        report = sup.run(train_fn)
        assert report.restarts == 1
        restarts = [e for e in session.global_instants
                    if e.name == "supervisor-restart"]
        assert len(restarts) == 1
        assert restarts[0].args["world_before"] == 3
        assert restarts[0].args["world_after"] == 2
        assert restarts[0].args["killed_ranks"] == [1]
        # Crashed-attempt spans were unwound: the export is still valid.
        validate_chrome_trace(session.chrome_trace())

    def test_give_up_appears_as_global_instant(self):
        session = TelemetrySession()
        plan = FaultPlan().kill_rank(0, at_step=1)
        from repro.comm.faults import RankKilledError
        from repro.supervisor import RestartPolicy

        sup = Supervisor(
            2, gpu=GPU, fault_plan=plan, timeout_s=15.0,
            policy=RestartPolicy(max_restarts=0), telemetry=session,
        )
        zero = ZeROConfig(stage=1, checkpoint_activations=False,
                          memory_defrag=False)

        def train_fn(ctx):
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, meta=True, seed=0,
            )
            ids = np.zeros((2, 16), dtype=np.int64)
            engine.train_step(ids, ids)

        with pytest.raises(RankKilledError):
            sup.run(train_fn)
        names = [e.name for e in session.global_instants]
        assert names == ["supervisor-gave-up"]


# -- SDC defense instants / counters -----------------------------------------


@pytest.mark.faults
@pytest.mark.sdc
class TestSdcTelemetry:
    def test_injection_detection_and_rollback_reach_the_trace(self, tmp_path):
        """A supervised rollback run leaves a complete SDC audit trail:
        injection and detection instants on the victim's track, audit and
        checkpoint-verification counters, and a supervisor-rollback global
        instant — all in a trace that still validates."""
        from repro import VerifiedCheckpointRing
        from repro.data import SyntheticCorpus
        from repro.zero.checkpoint_io import load_checkpoint_resharded

        session = TelemetrySession()
        corpus = SyntheticCorpus(CFG.vocab_size, seed=7)
        plan = FaultPlan(seed=11).scribble_tensor(rank=1, at_step=3, target="m")
        sup = Supervisor(2, gpu=GPU, fault_plan=plan, timeout_s=15.0,
                         telemetry=session)
        zero = ZeROConfig(stage=2, checkpoint_activations=False,
                          memory_defrag=False, audit_cadence=1)

        def train_fn(ctx):
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            ring = VerifiedCheckpointRing(tmp_path / "ring")
            latest = ring.latest_verified()
            if latest is not None:
                load_checkpoint_resharded(engine, latest)
            for step in range(engine.step_count, 4):
                ids, tgt = corpus.sample_batch(2, 16, rank=ctx.rank, step=step)
                engine.train_step(ids, tgt)
                if engine.step_count % 2 == 0:
                    ring.save(engine)
            return engine.step_count

        report = sup.run(train_fn)
        assert report.restarts == 1 and report.events[0].kind == "rollback"

        victim = session.tracers[1]
        instant_names = [i.name for i in victim.instants]
        assert "sdc-scribble" in instant_names
        assert "sdc-detected" in instant_names
        detected = next(i for i in victim.instants if i.name == "sdc-detected")
        assert detected.args["kind"] == "shard-digest"

        reg = session.registry
        assert reg.counter("sdc_injections", rank=1, kind="scribble").value == 1
        assert reg.counter("sdc_detections", rank=1, kind="shard-digest").value == 1
        assert reg.counter("supervisor_rollbacks").value == 1
        assert reg.counter("integrity_audits", rank=0, result="pass").value > 0
        assert reg.counter("ckpt_verifications", rank=0, result="pass").value > 0

        rollbacks = [e for e in session.global_instants
                     if e.name == "supervisor-rollback"]
        assert len(rollbacks) == 1
        assert rollbacks[0].args["kind"] == "rollback"
        assert rollbacks[0].args["world_after"] == 2

        trace = session.chrome_trace()
        validate_chrome_trace(trace)
        names = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "i"}
        assert {"sdc-scribble", "sdc-detected", "supervisor-rollback",
                "ckpt-verified"} <= names


# -- offload side tracks -----------------------------------------------------


@pytest.mark.offload
class TestOffloadTrace:
    def test_pcie_and_host_lanes_exported_as_complete_events(self):
        session = TelemetrySession()
        zero = ZeROConfig(stage=2, infinity=offload_tiers(streamed=True),
                          checkpoint_activations=False, memory_defrag=False)
        run_meta_stage2(session, zero=zero)
        tracer = session.tracers[0]
        tracks = {s.track for s in tracer.timeline_spans}
        assert {"pcie-d2h", "pcie-h2d", "host"} <= tracks
        adam = [s for s in tracer.timeline_spans if s.name == "cpu-adam"]
        assert len(adam) == STEPS
        trace = session.chrome_trace()
        validate_chrome_trace(trace)
        x_names = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "X"}
        assert {"d2h", "h2d", "cpu-adam"} <= x_names

    def test_nvme_paged_adam_spans_follow_their_page_in(self):
        """With NVMe-resident optimizer state the host Adam runs chunk by
        chunk, each after its state paged in — the trace must show those
        intervals, not one span starting when the gradients are ready."""
        from repro.infinity import InfinityConfig

        session = TelemetrySession()
        zero = ZeROConfig(
            stage=2, checkpoint_activations=False, memory_defrag=False,
            infinity=InfinityConfig(optimizer_tier="nvme", grad_tier="host",
                                    opt_chunk_bytes=1 << 16),
        )
        run_meta_stage2(session, zero=zero, steps=1)
        spans = session.tracers[0].timeline_spans
        page_ins = [s for s in spans if s.name == "nvme-in"
                    and s.args["phase"] == "infinity-opt"]
        adam = [s for s in spans if s.name == "cpu-adam"]
        assert len(adam) == len(page_ins) > 1  # one Adam chunk per page-in
        assert {s.track for s in adam} == {"host"}
        first_in_end = min(s.end_s for s in page_ins)
        assert all(s.start_s >= first_in_end for s in adam)
        for chunk, page_in in zip(adam, page_ins):
            assert chunk.start_s >= page_in.end_s


# -- pipeline spans ----------------------------------------------------------


class TestPipelineTrace:
    def test_gpipe_emits_schedule_spans(self):
        from repro.parallel.engine import EngineConfig
        from repro.zero.config import ZeROConfig
        from repro.zero.factory import build_model_and_engine

        session = TelemetrySession()
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0, telemetry=session)

        def fn(ctx):
            model, engine = build_model_and_engine(
                ctx, CFG, ZeROConfig(stage=0), dp_group=ctx.group([ctx.rank]),
                pp_group=ctx.world, dtype=np.float32, seed=0,
                engine_config=EngineConfig(gradient_accumulation_steps=2),
            )
            ids = np.zeros((2, 16), dtype=np.int64)
            for _ in range(2):  # one step of two micro-batches
                engine.train_step(ids, ids % CFG.vocab_size)

        cluster.run(fn)
        for rank in range(2):
            tracer = session.tracers[rank]
            names = [s.name for s in tracer.spans]
            assert names[:2] == ["step", "forward"]
            assert {"backward", "optimizer"} <= set(names)
            assert tracer.step_durations  # the step span closed
        validate_chrome_trace(session.chrome_trace())


# -- metrics registry --------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_are_keyed_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("bytes", rank=0, phase="fwd").add(10)
        reg.counter("bytes", rank=0, phase="fwd").add(5)
        reg.counter("bytes", rank=1, phase="fwd").add(7)
        assert reg.counter("bytes", rank=0, phase="fwd").value == 15
        assert reg.counter("bytes", rank=1, phase="fwd").value == 7
        assert reg.aggregate("bytes").count == 2

    def test_gauge_set_max_keeps_peak(self):
        reg = MetricsRegistry()
        g = reg.gauge("peak", rank=0)
        g.set_max(5)
        g.set_max(3)  # lower watermark: ignored
        assert g.value == 5 and g.max_value == 5
        g.set(2)      # explicit set lowers value but not the peak
        assert g.value == 2 and g.max_value == 5

    def test_histogram_percentile(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(100) == 100.0

    def test_aggregate_filters_by_labels(self):
        reg = MetricsRegistry()
        reg.histogram("t", rank=0).observe(1.0)
        reg.histogram("t", rank=1).observe(3.0)
        assert reg.aggregate("t").mean == 2.0
        assert reg.aggregate("t", rank=1).mean == 3.0
        assert reg.aggregate("missing").count == 0

    def test_jsonl_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", rank=0).add(2)
        reg.gauge("g", rank=0).set_max(7)
        reg.histogram("h", rank=0).observe(0.5)
        path = tmp_path / "metrics.jsonl"
        reg.write_jsonl(path)
        validate_metrics_jsonl(path.read_text())
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {r["name"]: r for r in rows}
        assert by_name["c"]["value"] == 2
        assert by_name["c"]["labels"] == {"rank": "0"}
        assert by_name["c"]["schema"] == "metrics-v1"
        assert by_name["g"]["max"] == 7
        assert by_name["h"]["count"] == 1


# -- tracer unit behaviour ---------------------------------------------------


class TestTracer:
    def test_nested_spans_and_clock(self):
        tr = Tracer(0)
        tr.begin("step")
        tr.begin("forward")
        tr.advance(1.0)
        tr.end()
        tr.begin("backward")
        tr.advance(2.0)
        tr.end()
        tr.end()
        assert tr.step_durations == [3.0]
        assert tr.step_phase_s == [{"forward": 1.0, "backward": 2.0}]
        assert [s.depth for s in tr.spans] == [0, 1, 1]

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError, match="no open span"):
            Tracer(0).end()

    def test_close_open_spans_unwinds_stack(self):
        tr = Tracer(0)
        tr.begin("step")
        tr.begin("forward")
        tr.advance(1.0)
        tr.close_open_spans()
        assert all(s.end_s is not None for s in tr.spans)
        assert tr.step_durations == [1.0]


# -- memory timeline satellites ----------------------------------------------


class TestMemoryTimelineSatellites:
    def test_context_manager_detaches(self):
        device = Device(GPU)
        orig_alloc = device.alloc
        with MemoryTimeline(device) as tl:
            ext = device.alloc(1024, "x")
            device.free(ext)
        assert device.alloc == orig_alloc
        assert len(tl.samples) == 2

    def test_context_manager_detaches_on_exception(self):
        device = Device(GPU)
        orig_alloc = device.alloc
        with pytest.raises(RuntimeError):
            with MemoryTimeline(device):
                raise RuntimeError("step blew up")
        assert device.alloc == orig_alloc

    def test_phase_peaks_normalizes_unlabelled(self):
        device = Device(GPU)
        with MemoryTimeline(device) as tl:
            a = device.alloc(1024, "pre")   # before any mark()
            tl.mark("forward")
            b = device.alloc(2048, "fwd")
            device.free(a)
            device.free(b)
        peaks = tl.phase_peaks()
        assert "(unlabelled)" in peaks and "" not in peaks
        assert peaks["forward"] >= peaks["(unlabelled)"]

    def test_ledger_by_phase_normalizes_unlabelled(self):
        from repro.comm.ledger import CommLedger

        ledger = CommLedger(rank=0)
        ledger.record("all_reduce", 100, (0, 1))          # no phase label
        ledger.record("all_gather", 50, (0, 1), phase="p")
        phases = ledger.by_phase()
        assert set(phases) == {"(unlabelled)", "p"}
        assert phases["(unlabelled)"] == 200.0  # 2x nominal factor
