"""One runner per paper table/figure, each result stated once in its module:

* ``run() -> data`` and ``render(data) -> str``, printed from the command
  line with ``python -m repro.experiments fig2 table1 ...``;
* ``claims(data)``, the paper's claims as ``common.Claim`` rows (what the
  paper states, what the run reproduced, whether it holds);
* ``metrics(data)``, the ``(rows, config)`` a BENCH artifact records;
* ``SOURCES``, BENCH artifact name -> the runner whose data it records
  (fig2 has two: ``run`` and ``run_measured``).

``benchmarks/bench_paper.py`` times and records every source and fails on
an unmet claim; tier-1's ``tests/test_experiments.py`` asserts the same
claims; ``python -m repro.experiments.report`` writes every table with its
claims table into one document. See DESIGN.md's per-experiment index for
what each reproduces. Submodules are imported lazily (import
repro.experiments.fig2 directly).
"""

#: every runner, in the paper's order, with its report section's title
TITLES = {
    "fig1": "Figure 1 — model-state memory per stage",
    "table1": "Table 1 — memory vs DP degree",
    "table2": "Table 2 — max theoretical/measured model size",
    "fig2": "Figure 2 — throughput vs baseline",
    "fig3": "Figure 3 — super-linear scalability",
    "fig4": "Figure 4 — democratization (DP-only)",
    "fig5": "Figure 5 — Turing-NLG shape",
    "fig6": "Figure 6 — max model size per config",
    "fig7": "Figure 7 — max cached memory",
    "fig8": "Figure 8 — throughput per config",
    "sec7": "Section 7 — DP communication volume",
    "sec8": "Section 8 — MP volume and Pa overhead",
    "sec9": "Section 9 — 1T feasibility and compute gap",
    "offload_sweep": "ZeRO-Offload — max model vs device budget, tier schedule",
    "infinity_sweep": "ZeRO-Infinity — max model per tier reach, tier schedule",
}
__all__ = list(TITLES)


def __getattr__(name):
    """Lazy submodule access: repro.experiments.fig2 etc. import on demand."""
    if name in __all__:
        import importlib

        return importlib.import_module(f"repro.experiments.{name}")
    raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
