"""Hardware specs and cluster topology (paper Section 10.1 numbers)."""

import pytest

from repro.hardware.specs import DGX2, INFINIBAND_EDR, NVSWITCH, V100_32GB
from repro.hardware.topology import ClusterTopology
from repro.utils.units import GB
from repro.zero.placement import Mesh


def test_v100_spec_matches_paper():
    assert V100_32GB.memory_bytes == 32 * int(GB)
    assert V100_32GB.peak_flops == pytest.approx(125e12)


def test_interconnect_cliff():
    # Section 10.2: 300 GB/s NVSwitch vs 12.5 GB/s InfiniBand EDR per link.
    assert NVSWITCH.bandwidth_bytes_per_s == pytest.approx(300 * GB)
    assert INFINIBAND_EDR.bandwidth_bytes_per_s == pytest.approx(12.5 * GB)
    assert NVSWITCH.bandwidth_bytes_per_s / INFINIBAND_EDR.bandwidth_bytes_per_s == 24


def test_paper_cluster_is_400_gpus():
    topo = ClusterTopology()
    assert topo.world_size == 400
    assert topo.n_nodes == 25
    assert DGX2.gpus_per_node == 16


def test_rank_to_node_mapping():
    topo = ClusterTopology()
    assert topo.node_of(0) == 0
    assert topo.node_of(15) == 0
    assert topo.node_of(16) == 1


def test_rank_bounds_checked():
    topo = ClusterTopology.for_world_size(32)
    with pytest.raises(ValueError):
        topo.node_of(32)
    with pytest.raises(ValueError):
        topo.node_of(-1)


def test_for_world_size_rounds_up_nodes():
    topo = ClusterTopology.for_world_size(17)
    assert topo.n_nodes == 2
    assert topo.world_size == 17


def test_mp_group_within_node_uses_nvswitch():
    topo = ClusterTopology()
    mp_group = Mesh.of_world(topo.world_size, mp=16).mp_group(0)
    assert not topo.group_spans_nodes(mp_group)
    assert topo.link_for_group(mp_group) is NVSWITCH


def test_dp_group_across_nodes_uses_infiniband():
    topo = ClusterTopology()
    dp_group = Mesh.of_world(topo.world_size, mp=16).dp_group(0)
    assert topo.group_spans_nodes(dp_group)
    assert topo.link_for_group(dp_group) is INFINIBAND_EDR


def test_dp_mp_decomposition_partitions_all_ranks():
    topo = ClusterTopology.for_world_size(64)
    mp = 4
    mesh = Mesh.of_world(topo.world_size, mp=mp)
    dp_groups = sorted({tuple(mesh.dp_group(r)) for r in range(topo.world_size)})
    mp_groups = sorted({tuple(mesh.mp_group(r)) for r in range(topo.world_size)})
    all_dp = sorted(r for g in dp_groups for r in g)
    all_mp = sorted(r for g in mp_groups for r in g)
    assert all_dp == list(range(64))
    assert all_mp == list(range(64))
    assert len(dp_groups) == mp
    assert len(mp_groups) == 64 // mp


def test_invalid_mp_degree_rejected():
    topo = ClusterTopology.for_world_size(64)
    with pytest.raises(ValueError):
        Mesh.of_world(topo.world_size, mp=3)
    with pytest.raises(ValueError):
        Mesh.of_world(topo.world_size, mp=0)


def test_empty_group_rejected():
    topo = ClusterTopology.for_world_size(16)
    with pytest.raises(ValueError):
        topo.group_spans_nodes([])


def test_world_size_cannot_exceed_capacity():
    with pytest.raises(ValueError):
        ClusterTopology(n_nodes=1, world_size=17)
