"""Memory timeline tracer: sampling, phase peaks, engine integration."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.memsim.device import Device
from repro.memsim.timeline import MemoryTimeline
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
SPEC = GPUSpec("small", 64 * 1024 * 1024, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)


class TestTracerBasics:
    def test_records_every_event(self):
        d = Device(SPEC)
        tl = MemoryTimeline(d)
        a = d.alloc(1000, "a")
        b = d.alloc(2000, "b")
        d.free(a)
        assert len(tl.samples) == 3
        assert tl.samples[0].delta > 0
        assert tl.samples[2].delta < 0
        assert tl.samples[1].allocated >= tl.samples[2].allocated
        d.free(b)
        tl.detach()

    def test_phase_marks(self):
        d = Device(SPEC)
        tl = MemoryTimeline(d)
        tl.mark("fwd")
        x = d.alloc(1000, "x")
        tl.mark("bwd")
        y = d.alloc(5000, "y")
        d.free(x)
        d.free(y)
        peaks = tl.phase_peaks()
        assert set(peaks) == {"fwd", "bwd"}
        assert peaks["bwd"] >= peaks["fwd"]
        tl.detach()

    def test_late_timeline_samples_the_tag_of_an_earlier_allocation(self):
        d = Device(SPEC)
        early = d.alloc(1000, "early")
        tl = MemoryTimeline(d)
        d.free(early)
        assert [(s.delta, s.tag) for s in tl.samples] == [(-1024, "early")]
        tl.detach()

    def test_detach_restores_device(self):
        d = Device(SPEC)
        tl = MemoryTimeline(d)
        tl.detach()
        e = d.alloc(1000)
        d.free(e)
        assert tl.samples == []

    def test_largest_allocations(self):
        d = Device(SPEC)
        tl = MemoryTimeline(d)
        for i, size in enumerate([512, 8192, 1024]):
            d.alloc(size, f"t{i}")
        top = tl.largest_allocations(2)
        assert top[0].tag == "t1"
        assert top[0].delta >= top[1].delta
        tl.detach()

    def test_ascii_plot_renders(self):
        d = Device(SPEC)
        tl = MemoryTimeline(d)
        tl.mark("a")
        extents = [d.alloc(1000 * (i + 1)) for i in range(10)]
        tl.mark("b")
        for e in extents:
            d.free(e)
        plot = tl.ascii_plot(width=20, height=4)
        assert "peak" in plot and "#" in plot and "phases: a | b" in plot
        tl.detach()
        assert MemoryTimeline(d).ascii_plot() == "(no samples)"


class TestEngineIntegration:
    def _profile(self, stage):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(stage=stage, checkpoint_activations=False,
                              memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            tl = MemoryTimeline(ctx.device)
            engine.timeline = tl
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
            engine.train_step(ids, tgt)
            tl.detach()
            return tl.phase_peaks()

        return cluster.run(fn)[0]

    def test_phases_labelled_in_order(self):
        peaks = self._profile(stage=2)
        assert set(peaks) >= {"forward", "backward", "reduce", "optimizer"}

    def test_forward_peak_below_backward_peak(self):
        """Backward holds activations + gradients: its peak dominates."""
        peaks = self._profile(stage=0)
        assert peaks["backward"] >= peaks["forward"]

    def test_stage2_backward_peak_below_stage0(self):
        """Stage 2 frees gradients during backward: lower backward peak."""
        p0 = self._profile(stage=0)
        p2 = self._profile(stage=2)
        assert p2["backward"] < p0["backward"]
