"""Memory observatory tests: provenance tracking, allocator introspection,
leak sentinel, OOM postmortems, and the zero-overhead-off contract."""

import json

import numpy as np
import pytest

from repro import memprof
from repro.hardware.specs import GPUSpec
from repro.memprof import MemoryProfiler, Workload
from repro.memprof.provenance import _NOOP
from repro.memsim.device import Device, HostMemory
from repro.memsim.errors import FragmentationError, OutOfMemoryError
from repro.nn.transformer import GPTConfig
from repro.utils.units import GB

pytestmark = pytest.mark.memprof

MB = 1024 * 1024


def tiny_device(mb: int = 64, *, use_cache: bool = True) -> Device:
    return Device(GPUSpec("memprof-test", mb * MB, 1e12), use_cache=use_cache)


# ---------------------------------------------------------------------------
# Allocator introspection edge cases
# ---------------------------------------------------------------------------


class TestAllocatorIntrospection:
    def test_fragmentation_ratio_empty_device(self):
        device = tiny_device()
        assert memprof.fragmentation_ratio(device) == 0.0
        stats = memprof.device_stats(device)
        assert stats.allocated_bytes == 0
        assert stats.cached_bytes == 0
        assert stats.largest_free_block == stats.capacity

    def test_fragmentation_ratio_roundtrip_to_zero(self):
        """One hole is no fragmentation — before, during, and after use."""
        device = tiny_device(use_cache=False)
        a = device.alloc(8 * MB, tag="a")
        b = device.alloc(8 * MB, tag="b")
        device.free(a)  # hole at the front + tail hole -> fragmented
        assert memprof.fragmentation_ratio(device) > 0.0
        device.free(b)
        assert memprof.fragmentation_ratio(device) == 0.0

    def test_split_block_coalescing_after_free(self):
        """Freeing neighbours must merge holes back into one segment."""
        device = tiny_device(use_cache=False)
        a = device.alloc(8 * MB, tag="a")
        b = device.alloc(8 * MB, tag="b")
        c = device.alloc(8 * MB, tag="c")
        device.free(b)
        snap = device.raw.snapshot()
        assert len(snap["free_segments"]) == 2  # the b-hole + the tail
        device.free(a)  # must coalesce with the b-hole
        snap = device.raw.snapshot()
        assert len(snap["free_segments"]) == 2
        assert snap["largest_free"] >= 16 * MB
        device.free(c)  # everything merges into one capacity-sized hole
        snap = device.raw.snapshot()
        assert len(snap["free_segments"]) == 1
        assert snap["free_segments"][0]["size"] == snap["capacity"]
        assert snap["allocated"] == 0 and not snap["live_blocks"]

    def test_caching_allocator_snapshot(self):
        device = tiny_device()
        e = device.alloc(4 * MB, tag="x")
        snap = device.cache.snapshot()
        assert snap["allocator"] == "caching"
        assert snap["allocated"] == e.size
        assert snap["reserved"] >= snap["allocated"]
        device.free(e)
        snap = device.cache.snapshot()
        assert snap["allocated"] == 0
        assert snap["cached"] > 0  # the block went to cache, not the heap
        assert snap["backing"]["allocated"] > 0

    def test_device_snapshot_shape(self):
        device = tiny_device()
        e = device.alloc(1 * MB, tag="x")
        snap = device.snapshot()
        for key in ("device", "capacity", "allocated", "reserved", "cached",
                    "max_allocated", "largest_free_block", "heap"):
            assert key in snap, key
        assert snap["allocated"] == e.size
        device.free(e)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


class TestProvenance:
    def test_category_scope_attribution(self):
        device = tiny_device()
        with MemoryProfiler(device) as prof:
            with memprof.category("optimizer_state", site="adam-m"):
                e = device.alloc(4 * MB, tag="m")
            assert prof.live_by_category["optimizer_state"] == e.size
            [row] = prof.live_blocks()
            assert row["site"] == "adam-m" and row["category"] == "optimizer_state"
            device.free(e)
            assert prof.live_by_category["optimizer_state"] == 0
            prof.verify_accounting()

    def test_unknown_category_rejected_even_when_off(self):
        assert not memprof.profiling_active()
        with pytest.raises(ValueError):
            memprof.category("paramms_fp16")

    def test_caching_reuse_records_new_owner(self):
        """A cache-hit block must carry the *new* owner's provenance."""
        device = tiny_device()
        with MemoryProfiler(device) as prof:
            with memprof.category("activation", site="old-owner"):
                e1 = device.alloc(4 * MB, tag="act")
            device.free(e1)  # parked in the cache
            hits_before = device.cache.stats().n_cache_hits
            with memprof.category("param_fp16", site="new-owner"):
                e2 = device.alloc(4 * MB, tag="weights")
            assert device.cache.stats().n_cache_hits == hits_before + 1
            [row] = prof.live_blocks()
            assert row["category"] == "param_fp16"
            assert row["site"] == "new-owner"
            assert prof.live_by_category["activation"] == 0
            assert prof.live_by_category["param_fp16"] == e2.size
            device.free(e2)

    def test_recategorize_moves_bytes(self):
        device = tiny_device()
        with MemoryProfiler(device, self_check=True) as prof:
            with memprof.category("activation", site="backward-tmp"):
                e = device.alloc(2 * MB, tag="tmp")
            prof.recategorize(e, "grad_fp16", site="layer0.w.grad")
            assert prof.live_by_category["activation"] == 0
            assert prof.live_by_category["grad_fp16"] == e.size
            [row] = prof.live_blocks()
            assert row["site"] == "layer0.w.grad"
            prof.verify_accounting()
            device.free(e)

    def test_classify_tag_fallback(self):
        assert memprof.classify_tag("layer0.w.grad", "") == "grad_fp16"
        assert memprof.classify_tag("grad-bucket", "") == "comm_buffer"
        assert memprof.classify_tag("pa-shard", "") == "activation_ckpt"
        assert memprof.classify_tag("adam-master", "") == "optimizer_state"
        assert memprof.classify_tag("x", "forward") == "activation"

    def test_a_later_profiler_starts_from_no_phase(self):
        """A phase set under a profiler that has since detached does not
        classify a later profiler's first unscoped allocations."""
        device = tiny_device()
        with MemoryProfiler(device):
            memprof.set_phase("forward")
        with MemoryProfiler(device) as prof:
            e = device.alloc(4 * MB, tag="x")
            [row] = prof.live_blocks()
            assert row["category"] == "temp"
            device.free(e)

    def test_host_pool_provenance(self):
        host = HostMemory(64 * MB, name="host-test")
        with MemoryProfiler(host, self_check=True) as prof:
            with memprof.category("optimizer_state", site="host-adam"):
                h = host.alloc(8 * MB, tag="m")
            assert prof.live_by_category["optimizer_state"] == 8 * MB
            host.free(h)
            assert prof.live_by_category["optimizer_state"] == 0
            prof.verify_accounting()


# ---------------------------------------------------------------------------
# Zero overhead when disabled
# ---------------------------------------------------------------------------


class TestZeroOverheadOff:
    def test_category_is_shared_noop_singleton(self):
        assert not memprof.profiling_active()
        assert memprof.category("param_fp16") is _NOOP
        assert memprof.category("temp", site="x") is _NOOP
        before = memprof.current_phase()  # whatever a prior profiled run left
        memprof.set_phase("a-phase-nobody-uses")  # guarded no-op while off
        assert memprof.current_phase() == before

    def test_no_tracking_state_without_profiler(self):
        device = tiny_device()
        assert device.profiler is None
        # Class attribute only — attaching nothing allocates nothing.
        assert "profiler" not in device.__dict__

    def test_allocator_behaviour_byte_identical(self):
        """The same alloc/free trace on profiled and bare devices must leave
        byte-identical allocator state (sizes, cache, peaks, fragmentation)."""

        def trace(device):
            live = []
            with memprof.category("activation", site="trace"):
                for i in range(6):
                    live.append(device.alloc((1 + i) * MB, tag=f"t{i}"))
            for e in live[::2]:
                device.free(e)
            big = device.alloc(7 * MB, tag="big")
            device.free(big)
            for e in live[1::2]:
                device.free(e)

        bare, profiled = tiny_device(), tiny_device()
        trace(bare)
        with MemoryProfiler(profiled, self_check=True):
            trace(profiled)
        bare_snap, prof_snap = bare.snapshot(), profiled.snapshot()
        bare_snap["device"] = prof_snap["device"] = ""
        bare_snap["heap"]["backing"]["name"] = prof_snap["heap"]["backing"]["name"] = ""
        assert bare_snap == prof_snap


# ---------------------------------------------------------------------------
# Leak sentinel + step stability
# ---------------------------------------------------------------------------


class TestLeakSentinel:
    def test_monotonic_growth_flagged(self):
        device = tiny_device()
        with MemoryProfiler(device) as prof:
            kept = []
            for _ in range(4):
                with memprof.category("optimizer_state", site="leaky"):
                    kept.append(device.alloc(1 * MB, tag="leak"))
                with memprof.category("activation", site="steady"):
                    act = device.alloc(2 * MB, tag="act")
                device.free(act)
                prof.note_step()
            assert prof.leak_suspects() == ["optimizer_state"]
            for e in kept:
                device.free(e)

    def test_steady_state_not_flagged(self):
        device = tiny_device()
        with MemoryProfiler(device) as prof:
            for _ in range(5):
                with memprof.category("activation"):
                    e = device.alloc(1 * MB, tag="act")
                device.free(e)
                prof.note_step()
            assert prof.leak_suspects() == []

    def test_snapshot_stable_across_full_train_step(self):
        """A steady-state meta-mode engine must return every category to its
        step-boundary baseline; the engines call ``note_step`` themselves."""
        from repro.experiments.common import virtual_groups
        from repro.runtime import virtual_rank_context
        from repro.tensor.tensor import Tensor
        from repro.zero.config import ZeROConfig
        from repro.zero.factory import build_model_and_engine

        cfg = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128,
                        max_seq_len=32)
        ctx = virtual_rank_context(4)
        dp_group, _ = virtual_groups(ctx, 4, 1)
        with MemoryProfiler(ctx.device, self_check=True) as prof:
            model, engine = build_model_and_engine(
                ctx, cfg, ZeROConfig(stage=2, checkpoint_activations=True),
                dp_group=dp_group, meta=True,
            )
            ids = Tensor.meta((2, 32), np.int64, device=ctx.device)
            targets = Tensor.meta((2, 32), np.int64, device=ctx.device)
            boundaries = []
            for _ in range(4):
                engine.train_step(ids, targets)
                boundaries.append(dict(prof.live_by_category))
            assert boundaries[0] == boundaries[1] == boundaries[2] == boundaries[3]
            assert len(prof._step_history) == 4  # engine called note_step
            assert prof.leak_suspects() == []
            snap = prof.snapshot()
            memprof.validate_snapshot(snap)
            json.dumps(snap)  # fully serializable


# ---------------------------------------------------------------------------
# OOM enrichment and postmortems
# ---------------------------------------------------------------------------


class TestOOMDiagnostics:
    def test_oom_message_has_device_totals_without_memprof(self):
        """Satellite bugfix: totals appear even with no profiler attached."""
        device = tiny_device(8)
        keep = device.alloc(5 * MB, tag="keep")
        with pytest.raises(OutOfMemoryError) as info:
            device.alloc(16 * MB, tag="too-big")
        exc = info.value
        msg = str(exc)
        assert "device totals" in msg
        assert "capacity" in msg and "largest free block" in msg
        assert exc.capacity == 8 * MB
        assert exc.allocated == keep.size
        assert exc.postmortem is None  # no observatory attached
        device.free(keep)

    def test_host_oom_message_has_totals(self):
        host = HostMemory(4 * MB, name="small-host")
        h = host.alloc(3 * MB, tag="keep")
        with pytest.raises(OutOfMemoryError) as info:
            host.alloc(2 * MB, tag="too-big")
        assert "device totals" in str(info.value)
        host.free(h)

    def test_fragmentation_postmortem_end_to_end(self):
        """Section 6.3 shape: interleaved lifetimes fragment the heap; the
        postmortem must attribute the live bytes, render the fragmentation
        verdict, and name the MD knob that demonstrably fixes the workload."""

        def workload(device):
            ckpts = []
            for i in range(10):
                with memprof.category("activation", site="fwd-act"):
                    act = device.alloc((2 + i) * MB, tag="act")
                with memprof.category("activation_ckpt", site="act-ckpt"):
                    ckpts.append(device.alloc(1 * MB, tag="ckpt"))
                device.free(act)
            with memprof.category("temp", site="fused-buffer"):
                fused = device.alloc(14 * MB, tag="fused")
            device.free(fused)

        device = Device(GPUSpec("frag", 32 * MB, 1e12), use_cache=False)
        with MemoryProfiler(device, self_check=True):
            with pytest.raises(FragmentationError) as info:
                workload(device)
        report = info.value.postmortem
        assert report is not None
        # (b) the capacity-vs-fragmentation verdict.
        assert report.verdict == "fragmentation"
        assert info.value.free >= info.value.requested
        # (a) >= 90% of live bytes attributed (here: all of them).
        assert report.untracked_bytes == 0
        assert report.tracked_bytes == device.allocated_bytes
        assert report.tracked_bytes / (report.tracked_bytes + report.untracked_bytes) >= 0.9
        by_cat = {c.category: c.live_bytes for c in report.categories}
        assert by_cat["activation_ckpt"] == 10 * MB  # the correct category
        # (c) the MD knob is named first...
        assert "memory_defrag" in report.knobs[0]
        assert "memory_defrag" in str(info.value)  # surfaced in the message
        # ...and demonstrably makes the same workload fit.
        fixed = Device(GPUSpec("frag", 32 * MB, 1e12), use_cache=False)
        fixed.enable_defrag(11 * MB, lambda tag: tag == "ckpt")
        with MemoryProfiler(fixed, self_check=True):
            workload(fixed)  # no exception

        # Structured render + JSON forms.
        text = report.render()
        assert "FRAGMENTATION" in text and "activation_ckpt" in text
        blob = report.to_json()
        assert blob["schema"] == "repro.memprof/oom-postmortem-v1"
        json.dumps(blob)

    def test_capacity_postmortem_advisor_hint_fits(self):
        """A stage-0 config that cannot hold its optimizer states gets a
        capacity verdict and an advisor hint whose config actually fits."""
        from repro.analysis.advisor import recommend_zero_config
        from repro.experiments.common import meta_memory_step
        from repro.zero.config import ZeROConfig
        from repro.zero.placement import Mesh

        model = GPTConfig(n_layers=160, hidden=8192, n_heads=64)
        n_gpus, mp = 400, 16
        result = meta_memory_step(
            model, ZeROConfig(stage=0, checkpoint_activations=True),
            n_gpus=n_gpus, mp=mp, batch=8, memprof=True,
        )
        assert not result.fits
        assert "stage" in result.oom_hint  # names a concrete ZeRO knob
        advice = recommend_zero_config(
            model, mesh=Mesh.of_world(n_gpus, mp), budget_bytes=int(32 * GB)
        )
        assert advice.config.stage >= 1 and advice.batch > 0
        assert f"stage {advice.config.stage}" in result.oom_hint
        # The recommended config makes the *same* workload (same batch) fit.
        rerun = meta_memory_step(
            model, advice.config, n_gpus=n_gpus, mp=mp, batch=8, memprof=True,
        )
        assert rerun.fits and rerun.memprof_ok


# ---------------------------------------------------------------------------
# Snapshot schema + telemetry bridge (CI smoke)
# ---------------------------------------------------------------------------


class TestTelemetryBridge:
    def test_snapshot_schema_smoke(self):
        device = tiny_device()
        with MemoryProfiler(device, self_check=True) as prof:
            with memprof.category("param_fp16", site="weights"):
                w = device.alloc(4 * MB, tag="w")
            with memprof.category("activation", site="fwd"):
                a = device.alloc(2 * MB, tag="a")
            device.free(a)

            snap = prof.snapshot()
            memprof.validate_snapshot(snap)
            assert snap["schema"] == memprof.SNAPSHOT_SCHEMA
            assert snap["categories"]["param_fp16"]["live_bytes"] == w.size
            json.dumps(snap)
            device.free(w)

    def test_workload_threads_through_to_report(self):
        model = GPTConfig(n_layers=2, hidden=64, n_heads=4)
        device = tiny_device(4)
        prof = MemoryProfiler(device, workload=Workload(model=model, n_gpus=8))
        try:
            with pytest.raises(OutOfMemoryError) as info:
                with memprof.category("param_fp16"):
                    device.alloc(64 * MB, tag="w")
            report = info.value.postmortem
            assert report is not None and report.verdict == "capacity"
            assert report.advisor_hint  # the advisor had a workload to chew on
        finally:
            prof.detach()
