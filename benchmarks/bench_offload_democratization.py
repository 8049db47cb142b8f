"""ZeRO-Offload: max trainable model vs device budget + the tier schedule
on uniform pieces vs the engines' real ones."""

import pytest

from repro.experiments import offload_sweep

pytestmark = pytest.mark.offload


def test_offload_democratization(benchmark, record_table):
    result = benchmark(offload_sweep.run)
    record_table(
        offload_sweep.render(result),
        metrics={
            **{
                f"offload_max_psi_b_{row.budget_gb:.0f}gb": (row.offload_psi_b, "B params")
                for row in result.fit_rows
            },
            **{
                f"device_max_psi_b_{row.budget_gb:.0f}gb": (row.device_psi_b, "B params")
                for row in result.fit_rows
            },
            "max_step_time_rel_err": max(r.rel_err for r in result.time_rows),
        },
        config={"experiment": "offload-democratization"},
    )
    # Offload must strictly enlarge the max trainable model at every budget.
    for row in result.fit_rows:
        assert row.offload_psi_b > row.device_psi_b, row
    # The schedule on uniform pieces must track the simulated timeline.
    for row in result.time_rows:
        assert row.rel_err <= 0.05, row
