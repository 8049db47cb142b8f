"""Every paper table and figure: one case per ``repro.experiments`` entry
and source (``SOURCES``: BENCH artifact name -> runner).

Each case times the runner, records its table and claims under the
entry's artifact name with ``metrics(data)``'s rows, and fails with every
claim that does not hold.
"""

import importlib

import pytest

from repro.experiments import TITLES
from repro.experiments.common import render_claims, unmet

MODULES = {name: importlib.import_module(f"repro.experiments.{name}") for name in TITLES}


@pytest.mark.parametrize(
    "name, artifact", [(name, artifact) for name, m in MODULES.items() for artifact in m.SOURCES]
)
def test_paper(name, artifact, benchmark, record_table):
    module = MODULES[name]
    data = benchmark.pedantic(module.SOURCES[artifact], rounds=1, iterations=1)
    values, config = module.metrics(data)
    claims = module.claims(data)
    record_table(
        module.render(data) + "\n\n" + render_claims(claims),
        metrics=values, config=config, name=artifact,
    )
    failed = unmet(claims)
    assert not failed, f"{name}: " + "; ".join(failed)
