"""Print one or more experiments' tables:

    python -m repro.experiments table1 fig6 ...

Each id is a name in ``repro.experiments.__all__``; its module's
``render(run())`` is printed. No id, or an unknown one, prints the ids
and exits with status 2.
"""

import importlib
import sys

from repro.experiments import __all__ as IDS


def _print_tables(ids: list[str]) -> int:
    if not ids or not set(ids) <= set(IDS):
        print("usage: python -m repro.experiments <id>...\nids: " + " ".join(IDS), file=sys.stderr)
        return 2
    for i, name in enumerate(ids):
        module = importlib.import_module(f"repro.experiments.{name}")
        print(("\n" if i else "") + module.render(module.run()))
    return 0


if __name__ == "__main__":
    sys.exit(_print_tables(sys.argv[1:]))
