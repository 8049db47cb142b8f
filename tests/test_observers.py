"""The observers at the price of their events: memprof, the telemetry
bridge and the health monitor cost a bounded number of calls per allocator
or comm event, and their output — with the SDC sentinels' verdicts — stays
what it was before their per-event paths became lookups."""

import hashlib
import json
import sys

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.health import HealthConfig, HealthMonitor
from repro.infinity import InfinityConfig
from repro.memprof import MemoryProfiler
from repro.telemetry import TelemetrySession
from repro.zero.factory import build_model_and_engine

# -- golden observer output ------------------------------------------------------
#
# sha256 digests of what the observers write in one hooks-on run — 4 ranks,
# stage 3 with parameters on the host tier, an SDC audit every 2 steps, a
# MemoryProfiler on every device and a Perfscope + health session, 4 steps
# — computed before the observers' per-event paths became lookups.

MODEL = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
CORPUS = SyntheticCorpus(128, seed=3)
WORLD = 4
STEPS = 4

# Re-pinned when stage 3 began charging construction unit by unit after
# its shards. A line-by-line diff of the hashed material
# (``tools/golden_lines.py``) showed only the reserved-bytes counters, the
# peak-reserved gauge and the memprof block layout moved (reserved peak
# 18 188 800 -> 18 237 952 B, allocated peak 17 791 488 -> 17 775 104 B);
# the summary held.
OBSERVER_GOLDEN = {
    "chrome_trace": "50358771c7af71e3df3d0848411e6c64bdc36cc3a40f7e4609f7931a7f36f222",
    "metrics_jsonl": "6b68584c5935313a22c6b517b9c5e19069eaf75e0e76175f1c20bf2806eb2f46",
    "memprof_snapshots": "8ce3adf5fa0c19e304254a751a7783acbf2f2cd24a73b7b699fee578b49a7bbf",
    "summary": "14f366f3d483f9604b3e1b1361af8ddf5836912e3f620cbc038f8d73325c8563",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observer_digests() -> dict[str, str]:
    session = TelemetrySession(perfscope=True, health=HealthMonitor(HealthConfig()))
    zero = ZeROConfig(
        stage=3, memory_defrag=False, audit_cadence=2,
        infinity=InfinityConfig(param_tier="host"),
    )

    def fn(ctx):
        profiler = MemoryProfiler(ctx.device)
        _, engine = build_model_and_engine(
            ctx, MODEL, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        )
        for step in range(STEPS):
            engine.train_step(*CORPUS.sample_batch(2, 32, rank=ctx.rank, step=step))
        snapshot = profiler.snapshot()
        profiler.detach()
        return snapshot

    snapshots = Cluster(WORLD, timeout_s=60.0, telemetry=session).run(fn)
    trace = json.dumps(session.chrome_trace(), sort_keys=True)
    session.perfscope_analysis()
    return {
        "chrome_trace": _sha(trace),
        "metrics_jsonl": _sha(session.registry.to_jsonl()),
        "memprof_snapshots": _sha(json.dumps(snapshots, sort_keys=True)),
        "summary": _sha(session.summary()),
    }


@pytest.mark.parametrize("interval", [1e-6, 0.05])
def test_observer_output_matches_the_golden_digests(interval):
    """Chrome trace, metrics JSONL, memprof snapshots and summary are byte
    for byte what they were, whether the interpreter switches rank threads
    every microsecond or every 50 ms."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        assert observer_digests() == OBSERVER_GOLDEN
    finally:
        sys.setswitchinterval(old)


# -- per-event call budgets ------------------------------------------------------


def test_profiled_tensor_life_call_budget():
    """One ``F.add`` + ``free()`` on a warm, MD-enabled device with a
    ``MemoryProfiler`` subscribed is at most 20 calls (as ``sys.setprofile``
    counts them). It was 36 when every allocation resolved its provenance
    through four helper calls, classified its tag afresh and published to
    absent observers. Calibrated on CPython 3.11.7: 19 — the bare path's 14
    plus the two callbacks, the memo lookup, the live-block record and the
    live-block pop. A door that made the profiler pay for the tag a
    ``MemoryTimeline`` reads before each free (``Device.tag_of``, three
    calls) fails here."""
    from repro.memsim.device import Device
    from repro.tensor import functional as F
    from repro.tensor.tensor import Tensor
    from repro.zero.factory import _md_tag_predicate
    from tests.test_tensor import MB, SPEC, _profiled_add

    d = Device(SPEC)
    d.enable_defrag(1 * MB, _md_tag_predicate)
    prof = MemoryProfiler(d)
    a = Tensor((4, 8), np.float16, device=d, tag="a")
    b = Tensor((4, 8), np.float16, device=d, tag="b")
    F.add(a, b, "sum").free()
    before = dict(prof.live_by_category)
    calls, out = _profiled_add(a, b)
    assert len(calls) <= 20, (calls, sys.version)
    assert "classify_tag" not in calls and "_publish" not in calls, calls
    assert out.freed and prof.live_by_category == before
    prof.verify_accounting()
    prof.detach()


def test_blocks_from_before_the_attach_leave_the_untracked_baseline():
    """Freeing a block allocated before the profiler attached shrinks the
    untracked baseline it was counted in (main heap, MD region or host
    pool) and nothing else; a double free raises and changes nothing."""
    from repro.memsim.device import Device, HostMemory
    from repro.memsim.errors import InvalidFreeError
    from tests.test_tensor import MB, SPEC

    d = Device(SPEC)
    d.enable_defrag(1 * MB, lambda tag: tag.startswith("md"))
    host = HostMemory(1 * MB)
    early = [d.alloc(4096, "heap"), d.alloc(2048, "md-early")]
    early_host = host.alloc(1000, "host-early")
    profs = MemoryProfiler(d), MemoryProfiler(host)
    assert early[1].pool == "md" and profs[0]._md_untracked == 2048
    tracked = d.alloc(512, "late"), host.alloc(10, "late")
    for extent in early:
        d.free(extent)
    host.free(early_host)
    assert (profs[0].untracked_bytes, profs[0]._md_untracked, profs[1].untracked_bytes) == (0, 0, 0)
    for prof, pool, extent in zip(profs, (d, host), tracked):
        prof.verify_accounting()
        pool.free(extent)
        with pytest.raises(InvalidFreeError):
            pool.free(extent)
        assert prof.untracked_bytes == 0 and sum(prof.live_by_category.values()) == 0
        prof.verify_accounting()
    assert [p.n_events for p in profs] == [4, 3]
    for prof in profs:
        prof.detach()


def _churn(d, live, prof, timeline, *, profiled: bool, timed: bool) -> None:
    """Two allocations and the free of the oldest live block on ``d``: the
    profiler's accounting holds after each event it is ``profiled`` for,
    and each observer sees all three events or none."""
    samples, events = len(timeline.samples), prof.n_events
    for size in (4096, 512):
        live.append(d.alloc(size, "churn"))
        if profiled:
            prof.verify_accounting()
    d.free(live.pop(0))
    if profiled:
        prof.verify_accounting()
    assert len(timeline.samples) - samples == (3 if timed else 0)
    assert prof.n_events - events == (3 if profiled else 0)


@pytest.mark.parametrize("timeline_leaves_first", [True, False])
@pytest.mark.parametrize("profiler_first", [False, True])
def test_observers_attach_and_detach_in_any_order(profiler_first, timeline_leaves_first):
    """A ``MemoryTimeline`` and a ``MemoryProfiler`` on one device, attached
    in either order and detached in either order: the one still attached
    keeps seeing every event (the profiler's accounting holds, the
    timeline samples each free under its tag), the one detached sees
    none, and once both are gone nothing of theirs is left on the device
    instance."""
    from repro.memsim.device import Device
    from repro.memsim.timeline import MemoryTimeline
    from tests.test_tensor import SPEC

    d = Device(SPEC)
    live = [d.alloc(4096, "early")]  # from before either attached
    if profiler_first:
        prof, timeline = MemoryProfiler(d), MemoryTimeline(d)
    else:
        timeline, prof = MemoryTimeline(d), MemoryProfiler(d)
    _churn(d, live, prof, timeline, profiled=True, timed=True)
    assert [s.tag for s in timeline.samples] == ["churn", "churn", "early"]
    first = timeline if timeline_leaves_first else prof
    first.detach()
    _churn(d, live, prof, timeline, profiled=first is timeline, timed=first is prof)
    (prof if first is timeline else timeline).detach()
    _churn(d, live, prof, timeline, profiled=False, timed=False)
    assert "alloc" not in d.__dict__ and "free" not in d.__dict__
    assert d.profiler is None
    for extent in live:
        d.free(extent)
    assert d.allocated_bytes == 0


def _bridged_tracer():
    from repro.comm.ledger import CommLedger
    from repro.hardware.topology import ClusterTopology

    health = HealthMonitor()
    health.bind_world(WORLD)  # as ``Cluster`` binds it at launch
    session = TelemetrySession(perfscope=True, health=health)
    tracer = session.tracer_for(0, topology=ClusterTopology.for_world_size(WORLD))
    ledger = CommLedger(0)
    ledger.listener = tracer
    return session, tracer, ledger


def test_bridged_comm_event_call_budget():
    """One ``CommLedger.record`` bridged to a Perfscope + health tracer is
    at most 40 calls. It was 76 when every event resolved its group's link
    from the topology, walked the span stack for the step index and built
    three sorted metric keys under the registry lock. Calibrated on
    CPython 3.11.7: 29."""
    session, tracer, ledger = _bridged_tracer()
    tracer.begin("step")
    for _ in range(10):  # past the health monitor's link baseline
        ledger.record("all_gather", 1 << 16, (0, 1, 2, 3), "param-allgather")
    calls = []

    def on_event(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)
        elif event == "c_call":
            calls.append(getattr(arg, "__qualname__", repr(arg)))

    sys.setprofile(on_event)
    ledger.record("all_gather", 1 << 16, (0, 1, 2, 3), "param-allgather")
    sys.setprofile(None)
    calls.pop()  # the closing setprofile call is not the event's
    assert len(calls) <= 40, (calls, sys.version)
    assert "link_for_group" not in calls and "_labels_key" not in calls, calls
    registry = session.registry
    by_phase = registry.counter("comm_nominal_bytes", rank=0, phase="param-allgather")
    by_op = registry.counter("comm_nominal_bytes_by_op", rank=0, op="all_gather")
    assert by_phase.value == by_op.value == 11 * (1 << 16)
    assert tracer.comm_intervals[-1].step == 0
    assert registry.gauge("link_slowdown_factor", rank=0).value == 1.0


def test_link_memo_keeps_gray_failure_pricing_per_event():
    """The group's healthy link is resolved once, but a degraded-link rule
    still prices every event from the step its window opens."""
    from repro.comm.costmodel import CommCostModel
    from repro.comm.faults import FaultPlan
    from repro.comm.ledger import CommEvent
    from repro.hardware.topology import ClusterTopology

    topo = ClusterTopology.for_world_size(WORLD)
    plan = FaultPlan(seed=0).degrade_link(src=0, bw_factor=0.25, from_step=2)
    model = CommCostModel(topo, perf=plan, perf_rank=0)
    healthy = CommCostModel(topo)
    event = CommEvent("all_gather", 1 << 20, WORLD, tuple(range(WORLD)))
    first = model.event_time(event)
    assert first == healthy.event_time(event)
    plan.note_step(0, 2)
    assert model.event_time(event) > first
    assert model == CommCostModel(topo, perf=plan, perf_rank=0)  # the memo is not compared


# -- the registry's handle table ---------------------------------------------------


def test_registry_handles_are_the_sorted_path_instances():
    from repro.telemetry import MetricsRegistry

    reg = MetricsRegistry()
    first = reg.counter("c", rank=1, phase="fwd")
    assert reg.counter("c", rank=1, phase="fwd") is first
    assert reg.counter("c", phase="fwd", rank=1) is first
    assert reg.counter("c", rank=np.int64(1), phase="fwd") is first
    assert reg.counter("c", rank="1", phase="fwd") is first
    gauge = reg.gauge("g", rank=np.int32(2))
    assert reg.gauge("g", rank=2) is gauge
    assert [labels for labels, _ in reg.instances("c")] == [{"phase": "fwd", "rank": "1"}]


def test_registry_kind_conflict_still_raises():
    from repro.telemetry import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("m", rank=0).add(1)
    reg.counter("m", rank=0)  # now answered from the handle table
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.gauge("m", rank=0)
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.histogram("m", rank=0)


def test_registry_resolves_label_values_that_cannot_hash():
    from repro.telemetry import MetricsRegistry

    reg = MetricsRegistry()
    metric = reg.counter("u", ranks=[0, 1])
    assert reg.counter("u", ranks=[0, 1]) is metric
    assert reg.counter("u", ranks="[0, 1]") is metric
    metric.add(2)
    assert [r["labels"] for r in reg.rows()] == [{"ranks": "[0, 1]"}]


# -- the SDC sentinels' rolling median ---------------------------------------------


def _spikes(history, value) -> bool:
    """Whether ``value`` spikes over ``history`` at ``spike_factor=2``."""
    from repro.integrity.sentinel import SpikeWindow

    sentinel = SpikeWindow("loss", window=len(history), min_history=1, spike_factor=1e300)
    for v in history:
        assert sentinel.observe(v) is None
    sentinel.spike_factor = 2.0
    return sentinel.observe(value) is not None


@pytest.mark.parametrize("ties", [False, True])
def test_spike_window_median_is_numpys(ties):
    """The rolling median is the float ``np.median`` gives, for odd and even
    window lengths, with and without ties: at a factor of 2 a value of
    exactly twice ``np.median`` is clean and the next float up spikes."""
    rng = np.random.default_rng(7)
    for n in range(1, 18):
        for _ in range(20):
            history = (
                rng.choice([0.5, 1.0, 3.0], size=n) if ties else rng.lognormal(size=n)
            ).tolist()
            edge = 2.0 * float(np.median(history))
            assert not _spikes(history, edge), history
            assert _spikes(history, float(np.nextafter(edge, np.inf))), history
