"""The step lifecycle: what every attached subsystem observes during a
step, pinned before the hand-wiring in ``train_step`` moved; the two
ordering rules as behaviour; and the order table itself."""

import hashlib

import numpy as np
import pytest

from repro import Cluster, GPTConfig, RedundancyConfig, ZeROConfig
from repro.comm.faults import FaultPlan
from repro.data import SyntheticCorpus
from repro.experiments.offload_sweep import offload_tiers
from repro.health import HealthConfig, HealthMonitor
from repro.infinity import InfinityConfig
from repro.memprof import MemoryProfiler
from repro.memprof import provenance
from repro.memsim.timeline import MemoryTimeline
from repro.obs import RunLedger
from repro.parallel.engine import EngineConfig
from repro.redundancy import BuddyStore
from repro.telemetry import TelemetrySession
from repro.zero.factory import build_model_and_engine

MODEL = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
CORPUS = SyntheticCorpus(128, seed=3)
WORLD = 4

# -- the hooks-on stream ---------------------------------------------------------
#
# sha256 digests, computed at the commit before the lifecycle (e65fd13), of
# everything the opt-in subsystems record on each rank while the step loop
# drives them: the tracer's causal log and side-track spans, the memory
# timeline's phase-labelled samples, the phase memprof saw at every
# allocation, its step history, every ``RunLedger.record`` call (with the
# rank clock the caller passed — the stamped ``t_s`` depends on thread
# interleaving) and every ``BuddyStore.publish`` with the tracer-log
# position it happened at.

# The stage-3 run was re-pinned when stage 3 began charging construction
# unit by unit after its shards. A line-by-line diff of its hashed material
# (``tools/golden_lines.py``) showed construction's memprof allocations
# moved and the tracer's reserved-bytes counter samples changed; every
# span, allocated-bytes sample and run-ledger record held.
#: run -> one digest per rank
HOOKS_GOLDEN = {
    "stage3-everything": [
        "4c956b51abc90edd9863d809dd80f0dbc8b2eacf2ab110d9904d3b77408508f8",
        "3e99513a7680228629a32c2549f17a15b63fe2db15aa8950099a596366fadc1c",
        "9dbd110a2668be8c80c14f0a23de7c9eaaed07a1f83f456a2e3778d5655706f4",
        "d009a0e0add92e07504e303d7ef4e39ad649f886b2c132c18179ce9306084836",
    ],
    # Non-boundary micro-steps, a timeline attached after construction and a
    # perf rule stretching rank 1's modeled compute from step 2 on.
    "stage2-accumulate2-throttled": [
        "325019d008c65dfbf739df403088b5e2200e3e8b2d9bab65ab1426e8822cab0f",
        "c2b62981c895da3b51cdf9788674b8e500591883e0059a9c3d6520c92bcf24ce",
        "325019d008c65dfbf739df403088b5e2200e3e8b2d9bab65ab1426e8822cab0f",
        "325019d008c65dfbf739df403088b5e2200e3e8b2d9bab65ab1426e8822cab0f",
    ],
}


def _args(args: dict) -> str:
    return repr(sorted(args.items()))


def _rank_stream(tracer, rank, spied) -> str:
    out = []
    for kind, obj in tracer.log:
        if kind == "B":
            out.append(f"B,{obj.name},{obj.start_s!r},{_args(obj.args)}")
        elif kind == "E":
            out.append(f"E,{obj.name},{obj.end_s!r}")
        elif kind == "I":
            out.append(f"I,{obj.name},{obj.t_s!r},{_args(obj.args)}")
        else:
            out.append(f"C,{obj.name},{obj.t_s!r},{obj.value!r}")
    for s in tracer.timeline_spans:
        out.append(f"T,{s.name},{s.track},{s.start_s!r},{s.end_s!r},{_args(s.args)}")
    for name in ("record", "publish", "memprof", "timeline", "history"):
        out.extend(f"{name},{item}" for item in spied[name].get(rank, ()))
    return "\n".join(out)


def run_hooks_on(name, monkeypatch, tmp_path, steps=3):
    """One of the two pinned configurations; returns each rank's stream."""
    spied = {k: {} for k in ("record", "publish", "memprof", "timeline", "history")}
    everything = name == "stage3-everything"
    session = TelemetrySession(
        perfscope=True, health=HealthMonitor(HealthConfig()) if everything else None
    )

    record = RunLedger.record

    def spy_record(self, event_kind, *, rank=None, step=None, t_s=None, **args):
        spied["record"].setdefault(rank, []).append(f"{event_kind},{step},{t_s!r}")
        return record(self, event_kind, rank=rank, step=step, t_s=t_s, **args)

    publish = BuddyStore.publish

    def spy_publish(self, snap):
        rank = snap.owner
        spied["publish"].setdefault(rank, []).append(
            f"{snap.step},{len(session.tracers[rank].log)}"
        )
        return publish(self, snap)

    prof_alloc = MemoryProfiler._alloc

    def spy_prof_alloc(self, extent, size, tag):
        spied["memprof"].setdefault(self.device.index, []).append(
            f"{tag},{provenance.current_phase()}"
        )
        return prof_alloc(self, extent, size, tag)

    monkeypatch.setattr(RunLedger, "record", spy_record)
    monkeypatch.setattr(BuddyStore, "publish", spy_publish)
    monkeypatch.setattr(MemoryProfiler, "_alloc", spy_prof_alloc)

    run_ledger = RunLedger(tmp_path / f"{name}.jsonl")
    if everything:
        zero = ZeROConfig(
            stage=3, memory_defrag=False, audit_cadence=2,
            infinity=InfinityConfig(param_tier="host"),
        )
        engine_config = None
        plan = None
    else:
        zero = ZeROConfig(stage=2, memory_defrag=False, audit_cadence=1)
        engine_config = EngineConfig(gradient_accumulation_steps=2, bucket_numel=20_000)
        plan = FaultPlan(seed=5).throttle_rank(rank=1, compute_factor=3.0, from_step=2)
    cluster = Cluster(
        WORLD, timeout_s=60.0, telemetry=session, recorder=run_ledger,
        redundancy=BuddyStore(RedundancyConfig()), fault_plan=plan,
    )
    run_ledger.begin_incarnation(WORLD, session=session)

    def fn(ctx):
        profiler = MemoryProfiler(ctx.device)
        _, engine = build_model_and_engine(
            ctx, MODEL, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=engine_config,
        )
        timeline = None
        if not everything:
            timeline = engine.timeline = MemoryTimeline(ctx.device)
        for step in range(steps * engine.config.gradient_accumulation_steps):
            engine.train_step(*CORPUS.sample_batch(2, 32, rank=ctx.rank, step=step))
        if timeline is not None:
            timeline.detach()
            spied["timeline"][ctx.rank] = [
                f"{s.delta},{s.tag},{s.phase}" for s in timeline.samples
            ]
        profiler.detach()
        spied["history"][ctx.rank] = [repr(sorted(h.items())) for h in profiler._step_history]
        return len(profiler._step_history)

    boundaries = cluster.run(fn)
    run_ledger.close()
    assert boundaries == [steps] * WORLD
    return [_rank_stream(session.tracers[r], r, spied) for r in range(WORLD)]


@pytest.mark.parametrize("name", sorted(HOOKS_GOLDEN))
def test_hooks_on_stream_matches_the_parent_commit(name, monkeypatch, tmp_path):
    streams = run_hooks_on(name, monkeypatch, tmp_path)
    digests = [hashlib.sha256(s.encode()).hexdigest() for s in streams]
    assert digests == HOOKS_GOLDEN[name]


# -- the two ordering rules, as behaviour -----------------------------------------


def test_a_scribbled_shard_is_rejected_before_the_optimizer_and_never_published(monkeypatch):
    """Integrity acts at ``pre_optimizer`` and redundancy follows it at
    ``boundary_closed``: a shard scribbled at the start of step 2 raises
    before ``_reduce_gradients`` / ``_optimizer_step`` are entered for that
    step — no update is applied on top of the flipped bits, so the shard is
    bit for bit what the scribble left — and the rejected boundary never
    reaches the buddy store."""
    from repro.integrity import CorruptionDetectedError
    from repro.zero.stage12 import _ZeroDPBase

    entered, published, seen = [], [], {}

    def spy(cls, name, log):
        original = getattr(cls, name)

        def wrapper(self, *args):
            log(self, *args)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    for name in ("_reduce_gradients", "_optimizer_step"):
        spy(_ZeroDPBase, name, lambda eng, name=name: entered.append((name, eng.ctx.rank, eng.step_count)))
    spy(BuddyStore, "publish", lambda store, snap: published.append((snap.owner, snap.step)))
    corrupt = FaultPlan._flip_array_locked  # what the plan's step_begin scribbles with

    def corrupt_and_keep(self, rank, array, bits):
        seen["before"] = array.copy()
        corrupt(self, rank, array, bits)
        seen["after"] = array.copy()

    monkeypatch.setattr(FaultPlan, "_flip_array_locked", corrupt_and_keep)
    plan = FaultPlan(seed=1).scribble_tensor(rank=0, at_step=2, target="master", bits=3)
    cluster = Cluster(
        2, timeout_s=30.0, fault_plan=plan, redundancy=BuddyStore(RedundancyConfig())
    )

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, MODEL, ZeROConfig(stage=2, memory_defrag=False, audit_cadence=1),
            dp_group=ctx.world, dtype=np.float32, seed=3,
        )
        engine.train_step(*CORPUS.sample_batch(2, 32, rank=ctx.rank, step=0))
        try:
            engine.train_step(*CORPUS.sample_batch(2, 32, rank=ctx.rank, step=1))
        finally:
            if ctx.rank == 0:
                seen["master"] = engine.opt_state.master.data.copy()
                seen["adam_steps"] = engine.opt_state.step_count
                seen["phase"] = engine.phase

    with pytest.raises(CorruptionDetectedError) as info:
        cluster.run(fn)
    assert info.value.kind == "shard-digest" and info.value.step == 2
    assert sorted(entered) == sorted(
        (name, rank, 1) for name in ("_reduce_gradients", "_optimizer_step") for rank in (0, 1)
    )
    assert seen["phase"] == "backward"  # raised before the reduce phase was entered
    assert seen["adam_steps"] == 1
    assert not np.array_equal(seen["before"], seen["after"])
    assert seen["master"].tobytes() == seen["after"].tobytes()
    assert sorted(published) == [(0, 1), (1, 1)]


def test_order_table_declares_the_two_safety_rules():
    """The rules are rows of ``ORDER``, not statement order: the integrity
    guard acts at the point before the optimizer, redundancy acts only
    after integrity at the point where the boundary closes, and every
    engine's lifecycle is the table filtered by what is attached."""
    from repro.parallel import lifecycle

    order, points = lifecycle.ORDER, lifecycle.POINTS
    assert tuple(order) == points
    assert points.index("pre_optimizer") < points.index("post_optimizer") < points.index("boundary_closed")
    assert order["pre_optimizer"][-1] == "integrity"
    closed = order["boundary_closed"]
    assert closed.index("integrity") < closed.index("redundancy")
    assert [p for p in points if "redundancy" in order[p]] == ["boundary_closed"]

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, MODEL,
            ZeROConfig(stage=2, memory_defrag=False, audit_cadence=1,
                       infinity=offload_tiers(streamed=False)),
            dp_group=ctx.world, dtype=np.float32, seed=3,
        )
        engine.train_step(*CORPUS.sample_batch(2, 32, rank=ctx.rank, step=0))
        life = engine._lifecycle
        return {
            point: [
                # the plan is its own subscriber; the others are named for their part
                "faults" if sub is ctx.faults else type(sub).__name__.strip("_").lower()
                for sub in getattr(life, point)
            ]
            for point in points
        }

    session = TelemetrySession()
    cluster = Cluster(
        2, timeout_s=30.0, telemetry=session, fault_plan=FaultPlan(),
        redundancy=BuddyStore(RedundancyConfig()), recorder=RunLedger(),
    )
    for walked in cluster.run(fn):
        assert walked == {point: list(names) for point, names in order.items()}
