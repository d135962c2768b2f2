"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "available tables" in output
        assert "pareto" in output

    def test_demo_command_small(self, capsys):
        code = main(
            [
                "demo",
                "--rows",
                "1200",
                "--workers",
                "3",
                "--dimensions",
                "2",
                "--band-width",
                "0.1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "RecPart" in output
        assert "fastest method" in output

    def test_demo_command_with_engine_backend(self, capsys):
        code = main(
            [
                "demo",
                "--rows",
                "900",
                "--workers",
                "3",
                "--dimensions",
                "2",
                "--band-width",
                "0.1",
                "--engine",
                "threads",
            ]
        )
        assert code == 0
        assert "fastest method" in capsys.readouterr().out

    def test_engine_command_compares_backends(self, capsys):
        code = main(
            [
                "engine",
                "--rows",
                "4000",
                "--workers",
                "4",
                "--band-width",
                "0.05",
                "--backends",
                "serial,threads",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "engine backend comparison" in output
        assert "serial" in output and "threads" in output
        assert "identical output counts" in output

    def test_engine_command_rejects_unknown_backend(self, capsys):
        assert main(["engine", "--rows", "500", "--backends", "gpu"]) == 2
        assert "unknown backends" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["demo", "--engine", "simulated"], ["serve", "--backend", "simulated"]]
    )
    def test_simulated_engine_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "invalid choice: 'simulated'" in capsys.readouterr().err

    def test_table_command(self, capsys):
        assert main(["table", "2b", "--scale", "0.03"]) == 0
        output = capsys.readouterr().out
        assert "Table 2b" in output

    def test_table_command_accepts_table_prefix(self, capsys):
        assert main(["table", "Table 16", "--scale", "0.03"]) == 0
        assert "Table 16" in capsys.readouterr().out

    def test_unknown_table(self, capsys):
        assert main(["table", "99"]) == 2
        assert "unknown table" in capsys.readouterr().out

    def test_calibrate_command(self, capsys):
        assert main(["calibrate", "--queries", "5", "--base-input", "600"]) == 0
        output = capsys.readouterr().out
        assert "beta2" in output

    def test_figure4_command(self, capsys, tmp_path):
        csv_path = tmp_path / "fig4.csv"
        assert main(["figure4", "--scale", "0.03", "--csv", str(csv_path)]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert csv_path.exists()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
