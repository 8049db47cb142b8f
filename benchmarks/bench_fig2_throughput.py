"""Figure 2: ZeRO-100B vs Megatron baseline throughput, 1.5B-170B."""

from repro.experiments import fig2


def _metrics(rows):
    return {
        **{f"speedup_{r.label}": (r.speedup, "x") for r in rows},
        **{f"zero_tflops_{r.label}": (r.zero_tflops, "TFLOPs/GPU") for r in rows},
    }


def test_fig2_throughput(benchmark, record_table):
    rows = benchmark(fig2.run)
    record_table(
        fig2.render(rows), metrics=_metrics(rows),
        config={"figure": "fig2", "source": "analytic"},
    )
    by_label = {r.label: r for r in rows}
    assert by_label["100B"].speedup > 7  # "up to 10x"
    assert by_label["100B"].zero_aggregate_pflops > 10  # "15 PFlops" scale


def test_fig2_throughput_measured_schedules(benchmark, record_table):
    """Same figure from recorded meta-mode communication schedules."""
    rows = benchmark.pedantic(fig2.run_measured, rounds=1, iterations=1)
    record_table(
        fig2.render(rows).replace(
            "Figure 2 —", "Figure 2 (recorded meta-mode schedules) —"
        ),
        metrics=_metrics(rows),
        config={"figure": "fig2", "source": "measured-schedules"},
    )
    by_label = {r.label: r for r in rows}
    assert by_label["100B"].speedup > 7
    assert 30 < by_label["100B"].zero_tflops < 50
    assert by_label["1.5B"].speedup < 2
