"""Mission Control: run ledger, incident analytics, goodput, exporters.

Acceptance properties (ISSUE 10):

* A seeded chaos campaign run with the recorder enabled produces an
  incident list *exactly* matching the injected FaultPlan ground truth —
  count, kinds, injected ranks, ordering — across >= 2 restarts, with
  MTTD/MTTR/lost-steps per incident.
* The goodput partition's four categories sum exactly (float equality,
  not tolerance) to the total run wall.
* The same run exports a Prometheus text dump, a Markdown run report,
  and one stitched cross-restart Chrome trace passing
  ``validate_chrome_trace``.
* Replaying the durable ledger file is deterministic: same events, and
  byte-identical derived reports.
* The recorder-off path is byte-identical to not having the feature.
* Every RestartKind round-trips through MetricsRegistry labels.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import (
    Cluster,
    GPTConfig,
    InfinityConfig,
    RedundancyConfig,
    RestartKind,
    RestartPolicy,
    RetryPolicy,
    RunLedger,
    SLOPolicy,
    Supervisor,
    ZeROConfig,
    compute_goodput,
    reconstruct_incidents,
    resume_from_buddies,
    run_report,
)
from repro.chaos import generate_campaign
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.obs import (
    EventKind,
    RunEvent,
    absorbed_injections,
    prometheus_text,
    publish_goodput,
    stitched_chrome_trace,
)
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.restart import (
    ALL_KINDS,
    counter_name,
    instant_name,
    kind_from_counter,
    kind_from_instant,
)
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySession,
    validate_chrome_trace,
    validate_metrics_jsonl,
)
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

pytestmark = pytest.mark.obs

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
WORLD = 4
TOTAL_STEPS = 8
CKPT_EVERY = 2

# Seed 0 draws one kill + one scribble + checkpoint rot + a transient +
# a perf rule: >= 2 restarts with every fault family represented.
E2E_SEED = next(
    s for s in range(100)
    if generate_campaign(s, world=WORLD, total_steps=TOTAL_STEPS)
    .expected_restarts >= 2
)


# -- unit: events and ledger --------------------------------------------------


class TestRunEvent:
    def test_json_roundtrip(self):
        ev = RunEvent(
            seq=3, kind=EventKind.RESTART, t_s=1.25, incarnation=1,
            rank=2, step=5, args={"kind": "fast-recovery", "removed": [2]},
        )
        assert RunEvent.from_json(ev.to_json()) == ev

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown run-event kind"):
            RunEvent(seq=0, kind="nope", t_s=0.0, incarnation=0)

    def test_wrong_schema_rejected(self):
        line = json.dumps({"schema": "runledger-v0", "seq": 0,
                           "kind": "restart", "t_s": 0, "incarnation": 0})
        with pytest.raises(ValueError, match="schema"):
            RunEvent.from_json(line)


class TestRunLedger:
    def test_append_and_replay_continues_stream(self, tmp_path):
        """A new ledger over an existing file continues seq / clock /
        incarnation where the previous process stopped — the durability
        contract a restarted supervisor relies on."""
        path = tmp_path / "run.jsonl"
        first = RunLedger(path)
        first.record(EventKind.RUN_STARTED, world_size=4)
        first.begin_incarnation(4)
        first.on_step_completed(0, 1, t_s=0.5)
        first.close()

        second = RunLedger(path)
        assert len(second) == 3
        assert second.clock_s == 0.5
        assert second.incarnation == 0
        second.on_step_completed(1, 1, t_s=0.6)
        second.close()

        replayed = RunLedger.replay(path)
        assert [ev.to_json() for ev in replayed.events] == [
            ev.to_json() for ev in second.events
        ]
        assert [ev.seq for ev in replayed.events] == [0, 1, 2, 3]

    def test_clock_is_monotonic(self):
        led = RunLedger()
        led.begin_incarnation(2)
        led.on_step_completed(0, 1, t_s=1.0)
        led.on_step_completed(1, 1, t_s=0.25)  # straggler clock behind
        assert [ev.t_s for ev in led.events] == [0.0, 1.0, 1.0]

    def test_record_is_self_profiled(self):
        led = RunLedger()
        led.record(EventKind.RUN_STARTED)
        assert led.record_count == 1
        assert led.record_cpu_s >= 0.0


# -- unit: incident reconstruction --------------------------------------------


class TestIncidentRecovery:
    @staticmethod
    def _killed_run(order):
        """World 4, rank 2 killed after step 2; the three survivors complete
        steps 3 and 4, recording each step in ``order``. Rank r's clock
        runs 0.02 * r behind rank 0's."""
        led = RunLedger()
        led.record(EventKind.RUN_STARTED, world_size=4)
        led.begin_incarnation(4)
        for step in (1, 2):
            for rank in range(4):
                led.on_step_completed(rank, step, t_s=0.1 * step + 0.02 * rank)
        led.record(EventKind.FAULT_INJECTED, rank=2, t_s=0.25, fault="kill", op="", detail="")
        led.record(EventKind.FAULT_DETECTED, rank=2, t_s=0.3, error="RankKilledError")
        led.record(EventKind.RESTART, t_s=0.3, kind=RestartKind.FAILURE, attempt=1,
                   world_before=4, world_after=3, removed=[2])
        led.begin_incarnation(3)
        for step in (3, 4):
            for rank in order:
                led.on_step_completed(rank, step, t_s=0.1 * step + 0.02 * rank)
        return led

    def test_recovery_time_does_not_depend_on_which_rank_records_first(self):
        """The ledger stamps each event with its running clock, so the
        stamp of a step's first event is whichever rank's thread got there
        first; the recovery time is the earliest *rank* clock of the first
        step past the frontier, in every arrival order."""
        import itertools

        stamps, incidents = set(), set()
        for order in itertools.permutations(range(3)):
            led = self._killed_run(order)
            first = next(ev for ev in led.events if ev.kind == EventKind.STEP_COMPLETED and ev.step == 3)
            stamps.add(first.t_s)
            (inc,) = reconstruct_incidents(led)
            incidents.add((inc.resume_step, inc.recovered_t_s, inc.frontier_step))
        assert len(stamps) == 3  # the arrival order shows in the stamps ...
        assert incidents == {(3, 0.1 * 3, 2)}  # ... and nowhere in the incident


# -- unit: validate_metrics_jsonl ---------------------------------------------


class TestValidateMetricsJsonl:
    def _jsonl(self, **overrides):
        row = {"schema": "metrics-v1", "name": "c", "kind": "counter",
               "labels": {"rank": "0"}, "value": 1.0}
        row.update(overrides)
        return json.dumps(row)

    def test_registry_export_passes(self):
        reg = MetricsRegistry()
        reg.counter("steps", rank=0).add(3)
        reg.gauge("peak", rank=1).set(2.0)
        reg.histogram("step_time_s", rank=0).observe(0.1)
        validate_metrics_jsonl(reg.to_jsonl())

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            validate_metrics_jsonl(self._jsonl(schema="metrics-v0"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            validate_metrics_jsonl(self._jsonl(kind="timer"))

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="lacks numeric"):
            validate_metrics_jsonl(self._jsonl(kind="histogram"))

    def test_duplicate_instance_rejected(self):
        text = self._jsonl() + "\n" + self._jsonl(value=2.0)
        with pytest.raises(ValueError, match="duplicate"):
            validate_metrics_jsonl(text)

    def test_non_string_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            validate_metrics_jsonl(self._jsonl(labels={"rank": 0}))


# -- unit: restart kinds round-trip the registry (satellite 1) ----------------


class TestRestartKindRoundTrip:
    def test_every_kind_round_trips_through_registry_labels(self):
        reg = MetricsRegistry()
        for kind in sorted(ALL_KINDS):
            reg.counter(counter_name(kind)).add(1)
            reg.counter("supervisor_restarts", kind=kind).add(1)
        labelled = {
            labels["kind"]
            for labels, _ in reg.instances("supervisor_restarts")
        }
        assert labelled == ALL_KINDS
        for kind in ALL_KINDS:
            assert reg.counter(counter_name(kind)).value == 1
            assert kind_from_counter(counter_name(kind)) == kind
            assert kind_from_instant(instant_name(kind)) == kind

    def test_inverses_reject_foreign_names(self):
        with pytest.raises(ValueError):
            kind_from_counter("sdc_injections")
        with pytest.raises(ValueError):
            kind_from_instant("supervisor-gave-up")


# -- unit: goodput ------------------------------------------------------------


class TestGoodput:
    def test_empty_ledger_is_all_goodput(self):
        led = RunLedger()
        rep = compute_goodput(led, [])
        assert rep.total_s == 0.0
        assert rep.goodput_pct == 100.0

    def test_partition_sums_exactly(self):
        led = RunLedger()
        led.record(EventKind.RUN_STARTED, world_size=2)
        led.begin_incarnation(2)
        for s in (1, 2, 3):
            led.on_step_completed(0, s, t_s=0.1 * s)
        led.record(EventKind.FAULT_DETECTED, t_s=0.35, error="E")
        led.record(EventKind.RESTART, t_s=0.35, kind="failure", attempt=1,
                   world_before=2, world_after=2, removed=[])
        led.begin_incarnation(2)
        for s in (3, 4):  # step 3 re-executed after rollback to step 2
            led.on_step_completed(0, s, t_s=0.35 + 0.1 * (s - 2))
        led.record(EventKind.RUN_FINISHED, t_s=0.7)
        rep = compute_goodput(led, reconstruct_incidents(led))
        parts = (rep.productive_s, rep.reexecution_s, rep.recovery_s, rep.idle_s)
        assert sum(parts) == rep.total_s  # exact, by construction
        assert rep.reexecution_s > 0.0    # step 3 was re-run
        assert rep.recovery_s > 0.0
        assert rep.steps_reexecuted == 1


# -- the supervised chaos harness --------------------------------------------


def build(ctx):
    zero = ZeROConfig(stage=2, checkpoint_activations=False,
                      memory_defrag=False, audit_cadence=1)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
    )


def make_train_fn(root):
    def train_fn(ctx):
        model, engine = build(ctx)
        if not resume_from_buddies(engine):
            latest = latest_checkpoint(root)
            if latest is not None:
                load_checkpoint_resharded(engine, latest)
        losses = []
        for step in range(engine.step_count, TOTAL_STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
            if engine.step_count % CKPT_EVERY == 0:
                save_checkpoint(engine, root / f"step{engine.step_count}")
            ctx.barrier()
        return losses, engine.opt_state.master.data.copy()

    return train_fn


def run_campaign(tmp_path, *, recorder=None, telemetry=None):
    campaign = generate_campaign(E2E_SEED, world=WORLD, total_steps=TOTAL_STEPS)
    sup = Supervisor(
        campaign.world, gpu=GPU, fault_plan=campaign.build_plan(),
        timeout_s=15.0,
        retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
        policy=RestartPolicy(max_restarts=8, quarantine_after=99),
        redundancy=RedundancyConfig(),
        telemetry=telemetry,
        recorder=recorder,
    )
    report = sup.run(make_train_fn(tmp_path / "ckpts"))
    return campaign, sup, report


def injection_ground_truth(campaign):
    """The seeded plan's forced incidents, in firing (step) order."""
    forced = (
        [("kill", rank, step) for rank, step in campaign.kills]
        + [("scribble", rank, step) for rank, step, _ in campaign.scribbles]
    )
    return sorted(forced, key=lambda t: t[2])


# -- e2e: the acceptance scenario ---------------------------------------------


@pytest.mark.faults
@pytest.mark.chaos
class TestMissionControlE2E:
    @pytest.fixture(scope="class")
    def e2e(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("mission-control")
        session = TelemetrySession()
        ledger_path = tmp_path / "run-ledger.jsonl"
        campaign, sup, report = run_campaign(
            tmp_path, recorder=ledger_path, telemetry=session,
        )
        return campaign, sup, report, session, ledger_path

    def test_incidents_match_fault_plan_ground_truth(self, e2e):
        campaign, sup, report, session, _ = e2e
        truth = injection_ground_truth(campaign)
        assert len(truth) >= 2 and report.restarts == len(truth)

        incidents = reconstruct_incidents(sup.recorder)
        assert [(i.kind, i.injected_rank) for i in incidents] == [
            (kind, rank) for kind, rank, _ in truth
        ]
        for inc, (kind, rank, step) in zip(incidents, truth):
            # Every campaign fault is buddy-servable: fast recovery, at
            # the boundary before the fault step, with zero lost steps.
            assert inc.restart_kind == RestartKind.FAST_RECOVERY
            assert inc.frontier_step == step - 1
            assert inc.resume_step == step
            assert inc.lost_steps == 0
            assert inc.mttd_s is not None and inc.mttd_s >= 0.0
            assert inc.mttr_s is not None and inc.mttr_s >= 0.0
        # Transients / rot / perf onsets were absorbed, never incidents.
        absorbed = absorbed_injections(sup.recorder, incidents)
        assert all(
            ev.args["fault"] not in ("kill", "scribble") for ev in absorbed
        )

    def test_goodput_partition_sums_exactly_to_run_wall(self, e2e):
        campaign, sup, report, session, _ = e2e
        incidents = reconstruct_incidents(sup.recorder)
        rep = compute_goodput(sup.recorder, incidents)
        assert rep.total_s > 0.0
        assert (
            rep.productive_s + rep.reexecution_s + rep.recovery_s + rep.idle_s
            == rep.total_s
        )
        assert 0.0 < rep.goodput_pct < 100.0
        assert rep.lost_steps_total == 0
        assert rep.n_incidents == report.restarts
        # Gauges land in the session registry and the exports validate.
        publish_goodput(rep, session.registry)
        assert session.registry.gauge("run_goodput_pct").value == rep.goodput_pct
        validate_metrics_jsonl(session.registry.to_jsonl())
        prom = prometheus_text(session.registry)
        assert "# TYPE run_goodput_pct gauge" in prom
        assert "supervisor_fast_recoverys" in prom

    def test_slo_monitors_trip_structured_violations(self, e2e):
        campaign, sup, report, session, _ = e2e
        incidents = reconstruct_incidents(sup.recorder)
        rep = compute_goodput(sup.recorder, incidents)
        assert SLOPolicy().check(rep, incidents) == []
        tight = SLOPolicy(min_goodput_pct=101.0, max_incidents=0,
                          max_mttr_s=0.0)
        violations = tight.check(rep, incidents, registry=session.registry)
        names = {v.name for v in violations}
        assert "min_goodput_pct" in names and "max_incidents" in names
        for v in violations:
            assert session.registry.counter("slo_violations", slo=v.name).value >= 1

    def test_ledger_replay_is_deterministic(self, e2e):
        campaign, sup, report, session, ledger_path = e2e
        replayed = RunLedger.replay(ledger_path)
        assert [ev.to_json() for ev in replayed.events] == [
            ev.to_json() for ev in sup.recorder.events
        ]
        assert run_report(replayed) == run_report(sup.recorder)

    def test_run_report_tells_the_story(self, e2e):
        campaign, sup, report, session, _ = e2e
        text = run_report(sup.recorder)
        assert "## Incidents" in text and "## Goodput" in text
        assert "fast-recovery" in text
        assert f"| incidents | {report.restarts} |" in text
        assert "run finished" in text

    def test_stitched_trace_passes_validation(self, e2e, tmp_path):
        campaign, sup, report, session, _ = e2e
        trace = stitched_chrome_trace(sup.recorder, session)
        validate_chrome_trace(trace)
        # One lane set per incarnation, plus the supervisor/ledger lanes.
        lanes = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "thread_name"
        }
        for inc in range(report.restarts + 1):
            assert f"inc{inc}:step" in lanes
        assert "run-ledger" in lanes
        path = tmp_path / "stitched.json"
        path.write_text(json.dumps(trace))
        validate_chrome_trace(path.read_text())

    def test_replayed_ledger_refuses_to_stitch(self, e2e):
        campaign, sup, report, session, ledger_path = e2e
        replayed = RunLedger.replay(ledger_path)
        with pytest.raises(ValueError, match="incarnation marks"):
            stitched_chrome_trace(replayed, session)


def test_stitched_trace_matches_the_parent_commit(tmp_path):
    """The stitched trace is built by ``telemetry.export``'s per-tracer body,
    one slice per incarnation: its event list is what the lane loops it used
    to carry produced (sha256 of the sorted-key JSON at ad00da6). The seeded
    campaign above cannot pin this — where a killed rank's spans end depends
    on thread interleaving — so the pin runs three fault-free incarnations
    (world 3, 2, 2) of a stage-3 all-tier job with Perfscope recording on:
    every lane kind (step, PCIe, NVMe, host, comm) in every incarnation."""
    session = TelemetrySession(perfscope=True)
    ledger = RunLedger(tmp_path / "run-ledger.jsonl")
    zero = ZeROConfig(stage=3, memory_defrag=False, infinity=InfinityConfig(param_tier="host"))

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3
        )
        for step in range(2):
            engine.train_step(*CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step))

    for world in (3, 2, 2):
        ledger.begin_incarnation(world, session=session)
        Cluster(world, gpu=GPU, timeout_s=60.0, telemetry=session, recorder=ledger).run(fn)
    ledger.close()
    trace = stitched_chrome_trace(ledger, session)
    validate_chrome_trace(trace)
    events = [ev for ev in trace["traceEvents"] if ev.get("cat") != "comm-flow"]
    assert len(events) == 1539
    digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()
    assert digest[:32] == "6614eb83bf02252d624914361141dd60"


# -- zero-overhead contract ---------------------------------------------------


@pytest.mark.faults
@pytest.mark.chaos
def test_recorder_off_and_on_are_bitwise_identical(tmp_path):
    """The recorder must be observational only: the same campaign with
    recording on converges to bitwise the same losses and master state,
    and with recording off nothing is allocated anywhere."""
    _, sup_off, off = run_campaign(tmp_path / "off")
    assert sup_off.recorder is None
    _, sup_on, on = run_campaign(
        tmp_path / "on", recorder=tmp_path / "on" / "run.jsonl",
    )
    assert len(sup_on.recorder) > 0
    assert off.restarts == on.restarts
    assert off.final_world_size == on.final_world_size
    for rank in range(off.final_world_size):
        assert off.results[rank][0] == on.results[rank][0]
        np.testing.assert_array_equal(off.results[rank][1], on.results[rank][1])


def test_plain_cluster_context_has_no_recorder():
    def fn(ctx):
        return ctx.recorder

    assert Cluster(2, gpu=GPU).run(fn) == [None, None]
