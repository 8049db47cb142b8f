"""Communication ledger accounting and the alpha-beta cost model."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.comm.costmodel import CommCostModel
from repro.comm.ledger import CommEvent, CommLedger, exact_ring_factor
from repro.comm.virtual import VirtualGroup
from repro.hardware.specs import GPUSpec
from repro.hardware.topology import ClusterTopology
from repro.runtime import Cluster

GPU = GPUSpec("t", 10**8, 1e12)


def event(op, nbytes, ranks=(0, 1, 2, 3)):
    return CommEvent(op=op, message_bytes=nbytes, group_size=len(ranks), group_ranks=ranks)


class TestLedger:
    def test_nominal_factors_match_paper_convention(self):
        # Section 7.1: reduce-scatter and all-gather each move ~Psi per rank.
        assert event("reduce_scatter", 100).nominal_bytes == 100
        assert event("all_gather", 100).nominal_bytes == 100
        assert event("all_reduce", 100).nominal_bytes == 200
        assert event("broadcast", 100).nominal_bytes == 100

    def test_exact_ring_factor(self):
        assert exact_ring_factor("all_reduce", 4) == pytest.approx(2 * 3 / 4)
        assert exact_ring_factor("all_gather", 4) == pytest.approx(3 / 4)
        assert exact_ring_factor("all_reduce", 1) == 0.0

    def test_record_and_aggregate(self):
        ledger = CommLedger(rank=0)
        ledger.record("all_reduce", 100, (0, 1), phase="grads")
        ledger.record("all_gather", 50, (0, 1), phase="params")
        assert ledger.nominal_bytes() == 250
        assert ledger.nominal_bytes(phase="params") == 50
        assert ledger.by_phase() == {"grads": 200.0, "params": 50.0}
        assert ledger.by_op() == {"all_reduce": 200.0, "all_gather": 50.0}
        ledger.clear()
        assert ledger.nominal_bytes() == 0

    def test_record_normalises_caller_types(self):
        # record() is public (tiers, activation offload, redundancy call it
        # directly): numpy integers and rank lists/ranges must not end up
        # inside the frozen, hashable, JSON-exported event.
        ledger = CommLedger(rank=0)
        ledger.record("h2d", np.int64(100), [0], phase="copy")
        ledger.record("all_gather", np.int32(8), range(4))
        assert [(type(e.message_bytes), type(e.group_ranks)) for e in ledger.events] == [
            (int, tuple), (int, tuple)
        ]
        assert ledger.events[1] == event("all_gather", 8)
        assert len({*ledger.events}) == 2

    def test_a_repeated_event_is_one_shared_value(self):
        # A list peer is normalised like the ranks and bytes, so the shared
        # event stays hashable, equal to a freshly built one and exportable.
        ledger = CommLedger(rank=0)
        for _ in range(3):
            ledger.record("send", np.int64(64), range(2), phase="pp", peer=[0, 1])
        ledger.record("send", 64, (0, 1), phase="pp", peer=(0, 1))
        first = ledger.events[0]
        assert len(ledger.events) == 4 and all(e is first for e in ledger.events)
        fresh = CommEvent("send", 64, 2, (0, 1), "pp", (0, 1))
        assert first == fresh and hash(first) == hash(fresh)
        assert json.loads(json.dumps(asdict(first))) == {
            "op": "send", "message_bytes": 64, "group_size": 2,
            "group_ranks": [0, 1], "phase": "pp", "peer": [0, 1],
        }
        ledger.record("send", 64, (0, 1), phase="pp", peer=(1, 0))
        assert ledger.events[-1] is not first and ledger.events[-1].peer == (1, 0)
        ledger.clear()
        assert ledger.events == []

    def test_disabled_ledger_skips_recording(self):
        ledger = CommLedger(rank=0)
        ledger.enabled = False
        ledger.record("all_reduce", 100, (0, 1))
        assert not ledger.events

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            CommLedger(0).record("gossip", 1, (0, 1))

    def test_cluster_collectives_are_recorded(self):
        cluster = Cluster(2, gpu=GPU)

        def fn(ctx):
            ctx.world.all_reduce(ctx.rank, np.ones(100, np.float32), phase="x")
            return ctx.ledger.nominal_bytes(phase="x")

        assert cluster.run(fn) == [800.0, 800.0]  # 2 x 400 bytes


class TestVirtualGroup:
    def test_reports_any_size(self):
        g = VirtualGroup.of_size(1024)
        assert g.size == 1024
        assert g.group_index(0) == 0

    def test_meta_collective_records(self):
        g = VirtualGroup.of_size(64)
        ledger = CommLedger(0)
        g.attach_ledger(0, ledger)
        g.meta_collective(0, "reduce_scatter", 1000, "grads")
        assert ledger.nominal_bytes() == 1000
        assert ledger.events[0].group_size == 64

    def test_data_collectives_raise(self):
        g = VirtualGroup.of_size(8)
        with pytest.raises(RuntimeError, match="no peers"):
            g.all_reduce(0, np.ones(4))

    def test_strided_membership(self):
        g = VirtualGroup(tuple(range(0, 64, 16)), member_rank=0)
        assert g.size == 4
        assert g.group_index(48) == 3
        with pytest.raises(ValueError):
            g.group_index(5)

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError):
            VirtualGroup((0, 16), member_rank=3)


class TestCostModel:
    def setup_method(self):
        self.topo = ClusterTopology.for_world_size(64)
        self.model = CommCostModel(self.topo)

    def test_intra_node_faster_than_inter_node(self):
        intra = self.model.event_time(event("all_reduce", 10**9, tuple(range(16))))
        inter = self.model.event_time(event("all_reduce", 10**9, tuple(range(0, 64, 16))))
        assert inter > intra * 10  # 300 vs 12.5 GB/s

    def test_allreduce_twice_reduce_scatter(self):
        ranks = tuple(range(16))
        ar = self.model.event_time(event("all_reduce", 10**9, ranks))
        rs = self.model.event_time(event("reduce_scatter", 10**9, ranks))
        assert ar == pytest.approx(2 * rs, rel=0.01)

    def test_single_rank_group_is_free(self):
        assert self.model.event_time(event("all_reduce", 10**9, (0,))) == 0.0

    def test_pcie_transfers(self):
        t = self.model.event_time(event("d2h", 12 * 10**9, (0,)))
        assert t == pytest.approx(1.0, rel=0.01)  # 12 GB over 12 GB/s

    def test_latency_term_dominates_tiny_messages(self):
        ranks = tuple(range(16))
        t_small = self.model.event_time(event("all_reduce", 8, ranks))
        assert t_small >= 2 * 15 * self.topo.node.intra_node.latency_s

    def test_unknown_op_raises(self):
        bad = CommEvent(op="all_reduce", message_bytes=1, group_size=2, group_ranks=(0, 1))
        object.__setattr__(bad, "op", "bogus")  # bypass the frozen dataclass
        with pytest.raises(ValueError):
            self.model.event_time(bad)
