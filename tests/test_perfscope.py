"""Perfscope: critical-path analytics, stall attribution, perf-regression gate.

Acceptance properties (docs/ARCHITECTURE.md §14):

* **Exactness** — for every engine the reconstructed graph reproduces the
  engine's own clock: a serialized (non-overlapped) rank's critical path
  equals its traced step time *bit-exactly*; an offload/infinity rank's
  equals the runtime's modeled ``step_s`` bit-exactly; and the critical
  path never exceeds the sum of per-track busy time.
* **Conservation** — the stall taxonomy is a partition: per rank, the
  category seconds sum to the step time across the whole engine sweep
  (stages 0-3, offload, infinity).
* **Counterfactual honesty** — the zero-cost-comm what-if agrees with a
  genuinely re-simulated run on free links to within 1%.
* **Zero overhead** — with ``perfscope=False`` the exported trace is
  byte-identical to a perfscope-free build and the step clocks are
  unchanged by turning recording on.
* **Regression gate** — seeded baselines pass ``compare_bench``; an
  injected 20% drift on a gated metric fails it; wall-clock metrics are
  reported but never gated.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

from repro import Cluster, GPTConfig, InfinityConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.experiments.offload_sweep import offload_tiers
from repro.hardware.specs import DGX2, GPUSpec, InterconnectSpec
from repro.hardware.topology import ClusterTopology
from repro.perfscope import CATEGORIES, analyze, rank_scores, rank_stalls
from repro.telemetry import TelemetrySession, validate_chrome_trace
from repro.zero.factory import build_model_and_engine

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))
import compare_bench  # noqa: E402

pytestmark = pytest.mark.perfscope

GPU = GPUSpec("perfscope-gpu", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32)
SMALL = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
WORLD = 4
STEPS = 2
BATCH, SEQ = 2, 16


def run_meta(session, zero, *, world=WORLD, steps=STEPS, topology=None):
    """Meta-mode ZeRO training on a telemetry-attached cluster."""
    cluster = Cluster(world, gpu=GPU, topology=topology, telemetry=session)

    def fn(ctx):
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True, seed=0,
        )
        ids = np.zeros((BATCH, SEQ), dtype=np.int64)
        for _ in range(steps):
            engine.train_step(ids, ids)

    cluster.run(fn)
    return session


def run_infinity(session, infinity, *, steps=STEPS):
    """Real-numerics stage-3 Infinity training, world 2."""
    corpus = SyntheticCorpus(SMALL.vocab_size, seed=7)
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0, telemetry=session)

    def fn(ctx):
        zero = ZeROConfig(stage=3, checkpoint_activations=False,
                          memory_defrag=False, infinity=infinity)
        model, engine = build_model_and_engine(
            ctx, SMALL, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
        )
        for step in range(steps):
            ids, tgt = corpus.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)

    cluster.run(fn)
    return session


def stage_config(stage):
    return ZeROConfig(stage=stage, checkpoint_activations=False,
                      memory_defrag=False)


OFFLOAD = ZeROConfig(stage=2, infinity=offload_tiers(streamed=True),
                     checkpoint_activations=False, memory_defrag=False)


def assert_exact(analysis):
    """Every analyzed step: per-rank critical path == the engine's clock,
    bit-exactly, and the fleet path fits inside total busy time."""
    assert analysis.graphs
    for g in analysis.graphs:
        for rank, observed in g.observed_step_s.items():
            assert g.rank_step_s(rank) == observed
        assert g.critical_path_s <= g.total_busy_s() + 1e-12


# -- exactness: critical path == engine clock, per engine ---------------------


class TestExactness:
    @pytest.mark.parametrize("stage", [0, 1, 2, 3])
    def test_zero_stages_cp_equals_traced_step(self, stage):
        session = run_meta(TelemetrySession(perfscope=True), stage_config(stage))
        assert_exact(analyze(session))

    def test_megatron_composed_cp_equals_traced_step(self):
        """ZeRO-DP x Megatron-MP composition traces exactly too."""
        session = TelemetrySession(perfscope=True)
        cluster = Cluster(WORLD, gpu=GPU, timeout_s=60.0, telemetry=session)
        mp = 2

        def fn(ctx):
            mp_ranks = [r for r in range(WORLD) if r // mp == ctx.rank // mp]
            dp_ranks = [r for r in range(WORLD) if r % mp == ctx.rank % mp]
            zero = stage_config(1)
            model, engine = build_model_and_engine(
                ctx, SMALL, zero, dp_group=ctx.group(dp_ranks),
                mp_group=ctx.group(mp_ranks), dtype=np.float32, seed=5,
            )
            ids = np.zeros((BATCH, SEQ), dtype=np.int64)
            for _ in range(STEPS):
                engine.train_step(ids, ids % SMALL.vocab_size)

        cluster.run(fn)
        assert_exact(analyze(session))

    def test_gpipe_coupled_shows_bubbles(self):
        """Pipeline ranks price their own sends/recvs on local clocks
        (which hide the partner's bubble); rendezvous coupling surfaces the
        bubble as its own stall category."""
        from repro.parallel.engine import EngineConfig

        session = TelemetrySession(perfscope=True)
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0, telemetry=session)

        def fn(ctx):
            model, engine = build_model_and_engine(
                ctx, CFG, stage_config(0), dp_group=ctx.group([ctx.rank]),
                pp_group=ctx.world, dtype=np.float32, seed=0,
                engine_config=EngineConfig(gradient_accumulation_steps=2),
            )
            ids = np.zeros((2, 16), dtype=np.int64)
            for _ in range(STEPS * 2):  # two micro-batches a step
                engine.train_step(ids, ids % CFG.vocab_size)

        cluster.run(fn)
        coupled = analyze(session)
        g = coupled.graphs[-1]
        for rank, observed in g.observed_step_s.items():
            assert g.rank_step_s(rank) >= observed
        bubble = sum(rank_stalls(g, r).get("bubble", 0.0)
                     for r in g.observed_step_s)
        assert bubble > 0.0

    def test_offload_cp_equals_runtime_model(self):
        session = run_meta(TelemetrySession(perfscope=True), OFFLOAD)
        assert_exact(analyze(session))

    @pytest.mark.parametrize("infinity", [
        InfinityConfig(optimizer_tier="nvme", grad_tier="host",
                       param_tier="device"),
        InfinityConfig(optimizer_tier="nvme", grad_tier="nvme",
                       param_tier="nvme", tile_bytes=4096),
    ], ids=["nvme-opt", "nvme-all-tiled"])
    def test_infinity_cp_equals_runtime_model(self, infinity):
        session = run_infinity(TelemetrySession(perfscope=True), infinity)
        assert_exact(analyze(session))


# -- conservation: stall taxonomy partitions the step -------------------------


SWEEP = [
    ("stage0", stage_config(0)),
    ("stage1", stage_config(1)),
    ("stage2", stage_config(2)),
    ("stage3", stage_config(3)),
    ("offload", OFFLOAD),
    ("infinity", None),  # sentinel: real-numerics infinity run
]


class TestConservation:
    @pytest.mark.parametrize("zero", [z for _, z in SWEEP],
                             ids=[n for n, _ in SWEEP])
    def test_stall_seconds_sum_to_step_time(self, zero):
        session = TelemetrySession(perfscope=True)
        if zero is None:
            run_infinity(session, InfinityConfig(
                optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
                prefetch_depth=2,
            ))
        else:
            run_meta(session, zero)
        analysis = analyze(session)
        assert analysis.graphs
        for g in analysis.graphs:
            for rank in g.observed_step_s:
                stalls = rank_stalls(g, rank)
                assert set(stalls) <= set(CATEGORIES)
                assert sum(stalls.values()) == pytest.approx(
                    g.rank_step_s(rank), rel=1e-9, abs=1e-15,
                )

    def test_scores_are_bounded(self):
        session = run_meta(TelemetrySession(perfscope=True), stage_config(2))
        g = analyze(session).graphs[-1]
        for rank in g.observed_step_s:
            s = rank_scores(g, rank)
            assert 0.0 <= s.overlap_efficiency <= 1.0
            assert 0.0 <= s.compute_utilization <= 1.0
            assert 0.0 <= s.exposed_comm_pct <= 100.0


# -- counterfactual honesty ---------------------------------------------------


class TestWhatIf:
    def test_zero_comm_matches_resimulated_free_links(self):
        """The zero-cost-comm probe must agree with actually re-running the
        same training on free (infinite-bandwidth, zero-latency) links."""
        session = run_meta(TelemetrySession(perfscope=True), stage_config(2))
        wi = analyze(session).whatif_zero_comm()
        assert wi.predicted_s <= wi.baseline_s

        free = InterconnectSpec("free", 1e30, 0.0)
        node = dataclasses.replace(DGX2, gpu=GPU, intra_node=free,
                                   inter_node=free)
        topo = ClusterTopology(node=node, n_nodes=1, world_size=WORLD)
        free_session = run_meta(
            TelemetrySession(perfscope=True), stage_config(2), topology=topo,
        )
        g = analyze(free_session).graphs[-1]
        actual = max(g.observed_step_s.values())
        assert wi.predicted_s == pytest.approx(actual, rel=0.01)

    def test_whatif_links_repricing_is_monotone(self):
        """Re-banding PCIe to a faster link can only shrink the offload
        critical path; the baseline leg reproduces the original."""
        session = run_meta(TelemetrySession(perfscope=True), OFFLOAD)
        analysis = analyze(session)
        g = analysis.graphs[-1]
        fast = InterconnectSpec("pcie-fast", 1e12, 1e-7)
        wi = analysis.whatif_links(pcie=fast, label="pcie x10")
        assert wi.baseline_s == pytest.approx(
            max(g.rank_step_s(r) for r in g.observed_step_s), rel=1e-9,
        )
        assert wi.predicted_s <= wi.baseline_s * (1 + 1e-12)
        assert "pcie x10" in wi.describe()

    @pytest.mark.parametrize("rate", [0.0, -1e9])
    def test_whatif_adam_rate_is_validated_like_the_config(self, rate):
        """A what-if CPU-Adam rate re-prices through ``InfinityConfig``, so
        a rate that is not positive is refused — never a negative Adam
        time, never a ZeroDivisionError."""
        analysis = analyze(run_meta(TelemetrySession(perfscope=True), OFFLOAD))
        with pytest.raises(ValueError, match="cpu_adam_elements_per_s must be positive"):
            analysis.whatif_links(adam_rate=rate)


# -- zero overhead when off ---------------------------------------------------


class TestZeroOverhead:
    def _trace_and_steps(self, *, perfscope):
        session = run_meta(
            TelemetrySession(perfscope=perfscope), stage_config(2),
        )
        trace = json.dumps(session.chrome_trace(), sort_keys=True)
        steps = {r: list(t.step_durations) for r, t in session.tracers.items()}
        return trace, steps

    def test_off_is_byte_identical_and_flow_free(self):
        t1, s1 = self._trace_and_steps(perfscope=False)
        t2, s2 = self._trace_and_steps(perfscope=False)
        assert t1 == t2  # deterministic and unperturbed
        assert not any(ev["ph"] in ("s", "t", "f")
                       for ev in json.loads(t1)["traceEvents"])
        t_on, s_on = self._trace_and_steps(perfscope=True)
        assert s_on == s1 == s2  # recording never moves the clocks

    def test_analysis_requires_recording(self):
        session = run_meta(TelemetrySession(), stage_config(0))
        with pytest.raises(RuntimeError, match="perfscope=True"):
            session.perfscope_analysis()


# -- chrome trace: flow events + critical-path annotation ---------------------


class TestChromeTrace:
    def test_collective_flows_link_all_member_ranks(self):
        session = run_meta(TelemetrySession(perfscope=True), stage_config(2))
        trace = session.chrome_trace()
        validate_chrome_trace(trace)
        flows = [ev for ev in trace["traceEvents"]
                 if ev["ph"] in ("s", "t", "f")]
        assert flows
        by_id = {}
        for ev in flows:
            by_id.setdefault(ev["id"], []).append(ev)
        for evs in by_id.values():
            phs = {ev["ph"] for ev in evs}
            assert "s" in phs and "f" in phs
        # A world-spanning collective links one span per member rank.
        assert max(len({ev["pid"] for ev in evs})
                   for evs in by_id.values()) == WORLD

    def test_annotated_trace_carries_critical_path_track(self):
        session = run_meta(TelemetrySession(perfscope=True), stage_config(2))
        analysis = session.perfscope_analysis()
        trace = analysis.annotate_chrome_trace(session.chrome_trace())
        validate_chrome_trace(trace)
        cp = [ev for ev in trace["traceEvents"]
              if ev["ph"] == "X" and ev.get("args", {}).get("category")]
        assert cp
        assert {ev["args"]["category"] for ev in cp} <= set(CATEGORIES)
        assert all("cname" in ev for ev in cp)
        names = [ev for ev in trace["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"
                 and ev["args"]["name"] == "critical-path"]
        assert names


# -- reporting: summary column, step report, gauges ---------------------------


class TestReporting:
    def test_summary_gains_exposed_comm_column(self):
        on = run_meta(TelemetrySession(perfscope=True), stage_config(2))
        assert "exposed comm" in on.summary()
        off = run_meta(TelemetrySession(), stage_config(2))
        assert "exposed comm" not in off.summary()

    def test_step_report_renders_bars_and_straggler(self):
        session = run_meta(TelemetrySession(perfscope=True), OFFLOAD)
        analysis = session.perfscope_analysis()
        report = analysis.reports[-1]
        text = report.render()
        assert "critical path" in text
        assert "#" in text  # the ASCII bars
        assert f"rank {report.straggler_rank}" in text
        assert report.critical_path_s > 0

    def test_gauges_published_to_registry(self):
        session = run_meta(TelemetrySession(perfscope=True), stage_config(3))
        session.perfscope_analysis()
        names = {row["name"] for row in session.registry.rows()}
        assert {"perfscope_critical_path_s", "perfscope_overlap_efficiency",
                "perfscope_exposed_comm_pct",
                "perfscope_compute_utilization"} <= names


# -- perf-regression gate -----------------------------------------------------


def _rows(**metrics):
    return [{"benchmark": "b", "metric": m, "value": v, "unit": "", "config": {}}
            for m, v in metrics.items()]


class TestCompareBench:
    def test_seeded_baselines_pass(self):
        """Every committed artifact gates green against its own baseline."""
        artifacts = sorted(compare_bench.OUTPUT_DIR.glob("BENCH_*.json"))
        assert artifacts, "benchmark artifacts missing"
        baselined = 0
        for path in artifacts:
            ok, table = compare_bench.check_file(path)
            assert ok, table
            if (compare_bench.BASELINE_DIR / path.name).exists():
                baselined += 1
        assert baselined >= 20  # the suite ships seeded baselines

    def test_injected_20pct_regression_fails(self):
        base = _rows(speedup=1.0)
        drifted = _rows(speedup=1.2)
        diffs = compare_bench.compare_rows(drifted, base)
        assert compare_bench.gated_failures(diffs)
        assert diffs[0]["status"] == "drift"
        assert diffs[0]["rel_delta"] == pytest.approx(0.2)

    def test_wall_clock_metrics_reported_not_gated(self):
        base = _rows(step_wall_time_mean=1.0, detector_overhead=2.0)
        cur = _rows(step_wall_time_mean=5.0, detector_overhead=9.0)
        diffs = compare_bench.compare_rows(cur, base)
        assert all(d["status"] == "wall-clock" for d in diffs)
        assert not compare_bench.gated_failures(diffs)

    def test_vanished_gated_metric_fails(self):
        diffs = compare_bench.compare_rows(_rows(), _rows(speedup=1.0))
        assert [d["status"] for d in diffs] == ["missing"]
        assert compare_bench.gated_failures(diffs)

    def test_new_metric_passes_with_note(self):
        diffs = compare_bench.compare_rows(_rows(speedup=1.0), _rows())
        assert [d["status"] for d in diffs] == ["new"]
        assert not compare_bench.gated_failures(diffs)

    def test_cli_check_and_diff_table(self, tmp_path, capsys):
        out = tmp_path / "output"
        base = tmp_path / "baselines"
        out.mkdir(), base.mkdir()
        (out / "BENCH_x.json").write_text(json.dumps(_rows(speedup=1.2)))
        (base / "BENCH_x.json").write_text(json.dumps(_rows(speedup=1.0)))
        rc = compare_bench.main([
            "--check", "--output-dir", str(out), "--baseline-dir", str(base),
        ])
        text = capsys.readouterr().out
        assert rc == 1
        assert "drift" in text and "REGRESSION" in text
        assert "bench diff: BENCH_x.json" in text
        (base / "BENCH_x.json").write_text(json.dumps(_rows(speedup=1.2)))
        rc = compare_bench.main([
            "--check", "--output-dir", str(out), "--baseline-dir", str(base),
        ])
        assert rc == 0
