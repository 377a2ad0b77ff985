"""CLI redesign: --version, --json everywhere, sweep, registry,
registry-generated experiment commands, real exit codes."""

import json

import pytest

from repro import __version__
from repro.cli import EXPERIMENTS, build_parser, main
from repro.design.report import DesignReport


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestJsonOutputs:
    def test_select_json(self, capsys):
        assert main(["select", "-c", "10", "-p", "1e-9", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["code"] == "3-out-of-5"
        assert data["a_final"] == 9
        assert data["escape_per_cycle"] == "1/8"

    def test_report_json_round_trips(self, capsys):
        assert main(
            ["report", "--words", "2048", "--bits", "16", "-c", "10",
             "-p", "1e-9", "--json"]
        ) == 0
        report = DesignReport.from_json(capsys.readouterr().out)
        assert report.row.code == "3-out-of-5"
        assert report.spec.words == 2048

    def test_experiment_json_wraps_output(self, capsys):
        assert main(["safety", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "safety"
        assert "orders of magnitude" in data["output"]

    def test_table1_json_has_structured_rows(self, capsys):
        assert main(["table1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 6
        assert data["rows"][0]["c"] == 2

    def test_registry_json(self, capsys):
        assert main(["registry", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "mod" in data["mappings"]
        assert "tree" in data["decoders"]


class TestCampaignSubcommands:
    """The 1.3 `repro transient` / `repro march` commands ride the
    EXPERIMENTS table with the campaign-command option set."""

    def test_transient_json_rows_and_stats(self, capsys):
        assert main(["transient", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "transient"
        assert data["engine"] == "vector"
        assert data["campaign"]["engine"] == "vector"
        workloads = {row["workload"] for row in data["rows"]}
        assert {"uniform", "sequential", "bursty"} <= workloads

    def test_march_json_rows(self, capsys):
        assert main(["march", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_test = {row["test"]: row for row in data["rows"]}
        assert by_test["March C-"]["coverage"] == 1.0
        assert by_test["MATS+"]["coverage"] < 1.0
        assert "coupling (write CFid)" in by_test["MATS+"]["missed_classes"]

    def test_serial_engine_flag(self, capsys):
        assert main(["march", "--engine", "serial", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "serial"

    def test_workers_with_serial_rejected(self, capsys):
        assert main(
            ["transient", "--engine", "serial", "--workers", "2"]
        ) == 1
        assert "--workers requires the vector engine" in (
            capsys.readouterr().err
        )

    def test_report_workload_option(self, capsys):
        assert main(
            ["report", "--words", "512", "--bits", "8", "-c", "10",
             "-p", "1e-9", "--empirical", "--workload", "bursty",
             "--json"]
        ) == 0
        report = DesignReport.from_json(capsys.readouterr().out)
        assert report.empirical.workload.startswith("bursty(")

    def test_report_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["report", "--words", "512", "--bits", "8", "-c", "10",
                 "-p", "1e-9", "--workload", "fancy"]
            )


class TestSweep:
    def test_sweep_text_table(self, capsys):
        assert main(["sweep", "-c", "2", "-c", "10", "-p", "1e-9"]) == 0
        out = capsys.readouterr().out
        assert "6 specs" in out
        assert "9-out-of-18" in out  # c=2 row
        assert "3-out-of-5" in out   # c=10 row

    def test_sweep_json_parallel(self, capsys):
        assert main(
            ["sweep", "-c", "10", "-p", "1e-9", "--workers", "4",
             "--org", "16x2K", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1
        assert data[0]["row"]["code"] == "3-out-of-5"

    def test_sweep_custom_org_format(self, capsys):
        assert main(
            ["sweep", "-c", "10", "-p", "1e-9", "--org", "1024x16x8"]
        ) == 0
        assert "16x1K" in capsys.readouterr().out

    def test_sweep_bad_org_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "-c", "10", "-p", "1e-9", "--org", "banana"]
            )

    def test_sweep_transposed_org_rejected(self, capsys):
        # '16x2048' is the paper label order typed numerically; refuse
        # rather than size a 16-word x 2048-bit memory
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "-c", "10", "-p", "1e-9", "--org", "16x2048"]
            )
        assert "did you mean '2048x16'" in capsys.readouterr().err


class TestOutFile:
    def test_report_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(
            ["report", "--words", "1024", "--bits", "16", "-c", "10",
             "-p", "1e-9", "--out", str(target)]
        ) == 0
        assert "16x1K" in target.read_text()
        assert str(target) in capsys.readouterr().out

    def test_experiment_out_writes_file(self, tmp_path):
        target = tmp_path / "table1.txt"
        assert main(["table1", "--out", str(target)]) == 0
        assert "9-out-of-18" in target.read_text()


class TestExitCodes:
    def test_domain_error_returns_1_not_traceback(self, capsys):
        # 3 words is not a power of two -> ValueError inside the command
        code = main(
            ["report", "--words", "3", "--bits", "16", "-c", "10",
             "-p", "1e-9"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_pndc_returns_1(self):
        assert main(["select", "-c", "10", "-p", "2.0"]) == 1


class TestExperimentTable:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 12
        assert len({entry.name for entry in EXPERIMENTS}) == 12
        names = {entry.name for entry in EXPERIMENTS}
        # the 1.3 campaign commands ride the same table
        assert {"transient", "march"} <= names

    def test_parser_has_every_experiment(self):
        parser = build_parser()
        for entry in EXPERIMENTS:
            args = parser.parse_args([entry.name])
            assert callable(args.func)
