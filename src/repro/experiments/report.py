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

from repro.experiments import TITLES

EXPERIMENTS = list(TITLES.items())


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
