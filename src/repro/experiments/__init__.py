"""One runner per paper table/figure. Each module exposes run() -> data
and render(data) -> str; print any of them from the command line:

    python -m repro.experiments fig2 table1 ...

Modules: fig1-fig8, sec7, sec8, sec9, table1, table2, offload_sweep,
infinity_sweep; ``python -m repro.experiments.report`` runs the paper's
tables and figures into one document. See DESIGN.md's per-experiment
index for what each reproduces. Submodules are imported lazily (import
repro.experiments.fig2 directly).
"""

__all__ = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "infinity_sweep", "offload_sweep", "sec7", "sec8", "sec9", "table1", "table2",
]


def __getattr__(name):
    """Lazy submodule access: repro.experiments.fig2 etc. import on demand."""
    if name in __all__:
        import importlib

        return importlib.import_module(f"repro.experiments.{name}")
    raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
