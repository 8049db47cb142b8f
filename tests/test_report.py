"""The consolidated report runner (subset smoke: fast experiments only)."""

import pathlib

from repro.experiments import report


def test_run_all_subset(monkeypatch, tmp_path):
    monkeypatch.setattr(
        report, "EXPERIMENTS",
        [("table1", "Table 1"), ("sec9", "Section 9"), ("fig2", "Figure 2")],
    )
    text = report.run_all()
    assert text.startswith("# ZeRO reproduction report")
    for title in ("## Table 1", "## Section 9", "## Figure 2"):
        assert title in text
    assert "regenerated in" in text


def test_main_writes_file(monkeypatch, tmp_path):
    monkeypatch.setattr(report, "EXPERIMENTS", [("sec9", "Section 9")])
    out = tmp_path / "r.md"
    monkeypatch.setattr("sys.argv", ["report", str(out)])
    report.main()
    assert "Section 9" in out.read_text()


def test_full_experiment_list_is_complete():
    ids = [module for module, _ in report.EXPERIMENTS]
    assert ids == [
        "fig1", "table1", "table2", "fig2", "fig3", "fig4", "fig5",
        "fig6", "fig7", "fig8", "sec7", "sec8", "sec9", "offload_sweep", "infinity_sweep",
    ]


def test_repo_report_artifact_exists():
    root = pathlib.Path(__file__).parent.parent
    artifact = root / "reproduction_report.md"
    assert artifact.exists()
    text = artifact.read_text()
    assert "Section 9" in text and "Figure 7" in text
