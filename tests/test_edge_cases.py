"""Edge-case coverage: tensor_ops validation, runtime guards, misc paths."""

import numpy as np
import pytest

from repro import Cluster
from repro.comm.tensor_ops import all_gather_flat
from repro.comm.virtual import VirtualGroup
from repro.hardware.specs import GPUSpec
from repro.hardware.topology import ClusterTopology
from repro.memsim.timeline import MemoryTimeline
from repro.memsim.device import Device
from repro.nn.module import Module
from repro.configs import TABLE5_FIGURE2

GPU = GPUSpec("t", 10**8, 1e12)


class TestTensorOpsValidation:
    def setup_method(self):
        self.group = VirtualGroup.of_size(4)

    def test_meta_paths_return_none(self):
        assert all_gather_flat(self.group, 0, None, shard_numel=2, dtype=np.float16,
                               is_meta=True) is None

    def test_real_mode_shape_validation(self):
        with pytest.raises(ValueError):
            all_gather_flat(self.group, 0, np.ones(3, np.float32), shard_numel=2,
                            dtype=np.float32, is_meta=False)

    def test_real_mode_collectives_work_end_to_end(self):
        cluster = Cluster(2, gpu=GPU, timeout_s=20.0)

        def fn(ctx):
            gathered = all_gather_flat(
                ctx.world, ctx.rank, np.full(2, float(ctx.rank), np.float32),
                shard_numel=2, dtype=np.float32, is_meta=False,
            )
            return gathered.tolist()

        for gathered in cluster.run(fn):
            assert gathered == [0.0, 0.0, 1.0, 1.0]


class TestRuntimeGuards:
    def test_topology_world_mismatch_rejected(self):
        topo = ClusterTopology.for_world_size(8)
        with pytest.raises(ValueError, match="topology"):
            Cluster(4, gpu=GPU, topology=topo)

    def test_single_rank_cluster_works(self):
        cluster = Cluster(1, gpu=GPU)
        assert cluster.run(lambda ctx: ctx.world.size) == [1]

    def test_context_accessor(self):
        cluster = Cluster(2, gpu=GPU)
        ctx = cluster.context(1)
        assert ctx.rank == 1 and ctx.device is cluster.devices[1]


class TestModuleTraversal:
    def test_modules_iterates_depth_first(self):
        from repro.nn.layers import Linear

        root = Module("root")
        child = root.register_module(Linear("root.l", 4, 4, dtype=np.float32,
                                            rng=np.random.default_rng(0)))
        names = [m.name for m in root.modules()]
        assert names == ["root", "root.l"]
        assert child in list(root.modules())

    def test_duplicate_module_rejected(self):
        root = Module("root")
        root.register_module(Module("a"))
        with pytest.raises(ValueError, match="duplicate"):
            root.register_module(Module("a"))


class TestTimelineEdges:
    def test_empty_peaks(self):
        tl = MemoryTimeline(Device(GPU))
        assert tl.phase_peaks() == {}
        assert tl.peak_allocated() == 0
        assert tl.largest_allocations() == []
        tl.detach()

    def test_peak_by_phase_filter(self):
        d = Device(GPU)
        tl = MemoryTimeline(d)
        tl.mark("a")
        x = d.alloc(1000)
        tl.mark("b")
        d.free(x)
        peaks = tl.phase_peaks()
        assert peaks["a"] > peaks["b"]
        assert peaks["a"] == tl.peak_allocated()
        tl.detach()


class TestExperimentPoint:
    def test_dp_property(self):
        point = TABLE5_FIGURE2[0]
        assert point.mesh.dp == point.n_gpus // point.mp

    def test_model_builds_with_paper_vocab(self):
        point = TABLE5_FIGURE2[0]
        model = point.model
        assert model.vocab_size == 50257 and model.max_seq_len == 1024
