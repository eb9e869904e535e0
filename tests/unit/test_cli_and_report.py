"""Unit tests for the CLI and the results report assembler."""

import pathlib

import pytest

from repro.analysis import report


class TestReport:
    def test_coverage_over_empty_dir(self, tmp_path):
        cov = report.coverage(tmp_path)
        assert set(cov) == set(report.EXPECTED_EXHIBITS)
        assert not any(cov.values())

    def test_build_report_lists_missing(self, tmp_path):
        text = report.build_report(tmp_path)
        assert "0/23" in text
        assert "missing" in text

    def test_build_report_includes_present_files(self, tmp_path):
        (tmp_path / "figure21.txt").write_text("== F21 ==\nrow\n")
        text = report.build_report(tmp_path)
        assert "== F21 ==" in text
        assert "1/23" in text

    def test_cli_writes_output_file(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = report.main(["--results", str(tmp_path),
                          "--output", str(out)])
        assert rc == 0
        assert out.exists()


class TestCli:
    def test_costs_command(self, capsys):
        from repro.__main__ import main
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "2048 entries" in out
        assert "0.79 ns" in out

    def test_unknown_figure_errors(self, capsys):
        from repro.__main__ import main
        assert main(["figure", "999"]) == 2

    def test_demo_command(self, capsys):
        from repro.__main__ import main
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "lazy" in out and "eager" in out
        # The consistency checker observes the run; it must not move it.
        assert main(["demo", "--paranoid"]) == 0
        assert capsys.readouterr().out == out
