"""Tier-1 guard for the hostbench probe bindings.

``benchmarks/hostbench/probe.py`` wraps a table of public boundaries by
name from outside the package. A refactor that renames, aliases or merges
one of them (two boundaries resolving to one function object, or a name
that no longer resolves) only fails in the benchmark pipeline's traced
run; this test makes it fail in ``pytest``. It reads the benchmark files
and edits none of them.
"""

import pathlib
import sys

HOSTBENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "hostbench"


def test_every_probed_boundary_resolves_and_wraps_once():
    sys.path.insert(0, str(HOSTBENCH))
    try:
        import probe
    finally:
        sys.path.remove(str(HOSTBENCH))

    sites = probe.assert_unpatched()
    assert sites > 0
    recorder = probe.Recorder()
    try:
        recorder.install()  # raises "already wrapped" on aliased boundaries
        assert len(recorder.names) > 0
    finally:
        recorder.uninstall()
    assert probe.assert_unpatched() == sites
