"""Run every experiment and emit one consolidated reproduction report.

Usage:
    python -m repro.experiments.report [output.md]

Executes all table/figure runners (the same code the benchmarks call) and
writes their reproduced rows into a single document, in paper order —
the one-command regeneration of EXPERIMENTS.md's measured content.
"""

from __future__ import annotations

import importlib
import sys
import time

EXPERIMENTS = [
    ("fig1", "Figure 1 — model-state memory per stage"),
    ("table1", "Table 1 — memory vs DP degree"),
    ("table2", "Table 2 — max theoretical/measured model size"),
    ("fig2", "Figure 2 — throughput vs baseline"),
    ("fig3", "Figure 3 — super-linear scalability"),
    ("fig4", "Figure 4 — democratization (DP-only)"),
    ("fig5", "Figure 5 — Turing-NLG shape"),
    ("fig6", "Figure 6 — max model size per config"),
    ("fig7", "Figure 7 — max cached memory"),
    ("fig8", "Figure 8 — throughput per config"),
    ("sec7", "Section 7 — DP communication volume"),
    ("sec8", "Section 8 — MP volume and Pa overhead"),
    ("sec9", "Section 9 — 1T feasibility and compute gap"),
    ("offload_sweep", "ZeRO-Offload — max model vs device budget, tier schedule"),
    ("infinity_sweep", "ZeRO-Infinity — max model per tier reach, tier schedule"),
]


def run_all() -> str:
    sections = ["# ZeRO reproduction report", ""]
    for module_name, title in EXPERIMENTS:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        start = time.time()
        data = module.run()
        rendered = module.render(data)
        elapsed = time.time() - start
        sections.append(f"## {title}")
        sections.append("")
        sections.append("```")
        sections.append(rendered)
        sections.append("```")
        sections.append(f"_regenerated in {elapsed:.1f}s by repro.experiments.{module_name}_")
        sections.append("")
        print(f"[{elapsed:6.1f}s] {title}")
    return "\n".join(sections)


def main() -> None:
    report = run_all()
    out_path = sys.argv[1] if len(sys.argv) > 1 else "reproduction_report.md"
    with open(out_path, "w") as fh:
        fh.write(report + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
