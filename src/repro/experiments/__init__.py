"""One runner per paper table/figure. Each module exposes run() -> data
and render(data) -> str; print any of them from the command line:

    python -m repro.experiments fig2 table1 ...

Modules: fig1-fig8, sec7, sec8, sec9, table1, table2, offload_sweep,
infinity_sweep; ``python -m repro.experiments.report`` runs the paper's
tables and figures into one document. See DESIGN.md's per-experiment
index for what each reproduces. Submodules are imported lazily (import
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
