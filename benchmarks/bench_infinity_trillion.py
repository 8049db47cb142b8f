"""ZeRO-Infinity: max trainable model per tier reach + the tier schedule on
uniform pieces vs the engines' real ones."""

import pytest

from repro.experiments import infinity_sweep

pytestmark = pytest.mark.infinity


def test_infinity_trillion(benchmark, record_table):
    result = benchmark(infinity_sweep.run)
    by_budget = {}
    for row in result.fit_rows:
        by_budget.setdefault(row.budget_gb, {})[row.label] = row
    record_table(
        infinity_sweep.render(result),
        metrics={
            **{
                f"max_psi_b_{row.budget_gb:.0f}gb_{row.label.replace(' ', '_').replace('+', '')}":
                    (row.psi_b, "B params")
                for row in result.fit_rows
            },
            **{
                f"tier_ratio_{budget:.0f}gb": (
                    rows["+host+NVMe"].psi_b / rows["device only"].psi_b, "x"
                )
                for budget, rows in by_budget.items()
            },
            "max_step_time_rel_err": max(r.rel_err for r in result.time_rows),
        },
        config={"experiment": "infinity-trillion"},
        name="infinity_trillion",
    )
    # Opening the host+NVMe tiers must train a >= 10x larger model than
    # device-only at every fixed device budget.
    for budget, rows in by_budget.items():
        ratio = rows["+host+NVMe"].psi_b / rows["device only"].psi_b
        assert ratio >= 10.0, (budget, ratio)
        # and each deeper reach strictly enlarges the model
        assert rows["+host DRAM"].psi_b > rows["device only"].psi_b, budget
        assert rows["+host+NVMe"].psi_b > rows["+host DRAM"].psi_b, budget
    # The schedule on uniform pieces must track the simulated timeline.
    for row in result.time_rows:
        assert row.rel_err <= 0.05, row
