"""Documentation and example guards: the README snippet must run, the
fast examples must execute cleanly end to end."""

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


class TestReadmeSnippet:
    def test_quickstart_block_executes(self):
        """Extract the README's first ```python block and run it."""
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks, "README must contain a python example"
        code = blocks[0]
        namespace: dict = {}
        exec(compile(code, "README.md", "exec"), namespace)  # noqa: S102
        assert "losses" in namespace  # the snippet's terminal variable

    def test_readme_mentions_key_entry_points(self):
        readme = (ROOT / "README.md").read_text()
        for needle in (
            "build_model_and_engine", "pytest benchmarks/", "EXPERIMENTS.md",
            "DESIGN.md", "repro.experiments.report",
        ):
            assert needle in readme, needle


class TestDesignDocs:
    def test_design_lists_every_experiment_runner(self):
        design = (ROOT / "DESIGN.md").read_text()
        for exp in ("Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
                    "Figure 6", "Figure 7", "Figure 8", "Table 1", "Table 2",
                    "§7", "§8", "§9"):
            assert exp in design, exp

    def test_module_map_names_only_what_exists(self):
        """Every backticked ``repro.*`` module and ``*.py`` file in
        DESIGN §3 (the module map) resolves in ``src/repro``."""
        design = (ROOT / "DESIGN.md").read_text()
        section = design[design.index("## 3."):design.index("## 4.")]
        names = re.findall(r"`([^`]+)`", section)
        modules = [n for n in names if re.fullmatch(r"repro(\.\w+)+", n)]
        files = [n for n in names if n.endswith(".py")]
        assert len(modules) >= 10 and len(files) >= 10
        for name in modules:
            assert importlib.util.find_spec(name) is not None, name
        for name in files:
            assert list((ROOT / "src" / "repro").rglob(name)), name

    def test_experiments_doc_covers_every_figure(self):
        doc = (ROOT / "EXPERIMENTS.md").read_text()
        for section in ("Figure 1", "Table 1", "Table 2", "Figure 2", "Figure 3",
                        "Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
                        "Section 7", "Section 8", "Section 9", "Known deviations"):
            assert section in doc, section


FAST_EXAMPLES = [
    "quickstart.py",
    "config_advisor.py",
    "trillion_parameter_simulation.py",
    "scale_100b_simulation.py",
    "sdc_rollback.py",
    "fast_recovery.py",
    "oom_postmortem.py",
    "failslow_eviction.py",
    "infinity_trillion.py",
    "critical_path.py",
    "mission_control.py",
]


class TestExampleSmoke:
    @pytest.mark.parametrize("script", FAST_EXAMPLES)
    def test_example_runs(self, script):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / script)],
            capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip(), "examples must print their findings"

    def test_every_example_has_usage_docstring(self):
        for path in (ROOT / "examples").glob("*.py"):
            head = path.read_text()[:600]
            assert "Usage:" in head, f"{path.name} lacks a Usage: docstring"
