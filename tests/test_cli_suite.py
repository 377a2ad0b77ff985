"""CLI surface of the suite orchestrator (`repro suite run|ls|show`)
plus the hardened error paths: every failure mode exits non-zero with a
one-line diagnostic and never a traceback."""

import json

import pytest

from repro.cli import main
from repro.suite import builtin_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSuiteLsShow:
    def test_ls_lists_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "ls", "--json")
        assert code == 0
        names = {entry["name"] for entry in json.loads(out)}
        assert {"paper_grid", "smoke"} <= names

    def test_ls_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "ls")
        assert code == 0
        assert "paper_grid" in out

    def test_show_expands_cells(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "show", "paper_grid",
                               "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["cells"]) == 46
        assert data["name"] == "paper_grid"

    def test_show_accepts_a_spec_file(self, capsys, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(builtin_suite("smoke").to_json())
        code, out, _ = run_cli(capsys, "suite", "show", str(path))
        assert code == 0
        assert "smoke" in out


class TestSuiteRun:
    def test_run_then_resume_via_cli(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out, err = run_cli(
            capsys, "suite", "run", "smoke", "--store", store, "--json"
        )
        assert code == 0
        first = json.loads(out)
        assert first["execution"]["simulated"] == first["execution"]["cells"]
        # progress streamed per cell on stderr, stdout stayed JSON
        assert err.count("]") >= first["execution"]["cells"]

        code, out, _ = run_cli(
            capsys, "suite", "run", "smoke", "--store", store, "--json",
            "--quiet",
        )
        assert code == 0
        second = json.loads(out)
        assert second["execution"]["hits"] == second["execution"]["cells"]
        assert second["execution"]["simulated"] == 0
        assert (
            second["execution"]["verified_hits"]
            == second["execution"]["cells"]
        )

        def stable(payload):
            payload = dict(payload)
            payload.pop("execution")
            payload["cells"] = [
                {k: v for k, v in cell.items() if k != "execution"}
                for cell in payload["cells"]
            ]
            return payload

        assert stable(first) == stable(second)

    def test_only_filter(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "suite", "run", "smoke",
            "--store", str(tmp_path / "s"),
            "--only", "march", "--json", "--quiet",
        )
        assert code == 0
        data = json.loads(out)
        assert all(cell["family"] == "march" for cell in data["cells"])

    def test_errors_surface_in_exit_code(self, capsys, tmp_path):
        # a spec whose only cell fails (parity-less transient RAM):
        # fail-soft still renders the report but exits non-zero
        from repro.suite import MatrixBlock, SuiteSpec

        spec = SuiteSpec(
            name="broken",
            blocks=(
                MatrixBlock(
                    family="transient",
                    targets=({"words": 16, "bits": 8, "column_mux": 4,
                              "parity": False},),
                    workloads=(
                        {"family": "uniform", "cycles": 16, "seed": 1},
                    ),
                    scenarios={"population": "upset-stride"},
                ),
            ),
        )
        path = tmp_path / "broken.json"
        path.write_text(spec.to_json())
        code, out, _ = run_cli(
            capsys, "suite", "run", str(path),
            "--store", str(tmp_path / "s"), "--quiet",
        )
        assert code == 1
        assert "error" in out


class TestHardenedErrorPaths:
    """Unknown suite, malformed spec, conflicting engine flags and a
    missing store directory: non-zero exit, one-line diagnostic, no
    traceback."""

    def test_unknown_suite_name(self, capsys):
        code, out, err = run_cli(capsys, "suite", "run", "nope")
        assert code == 1
        assert err.startswith("error: unknown suite 'nope'")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        code, out, err = run_cli(capsys, "suite", "run", str(path))
        assert code == 1
        assert "malformed suite spec" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        # valid JSON that is not a suite is diagnosed, not dumped
        path.write_text('{"name": "x"}')
        code, _, err = run_cli(capsys, "suite", "show", str(path))
        assert code == 1
        assert "'blocks'" in err

    def test_conflicting_packed_serial(self, capsys):
        # the retired --packed/--serial flags are refused cleanly
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "run", "smoke", "--packed", "--serial"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --packed --serial" in err
        assert "Traceback" not in err

    def test_missing_store_directory(self, capsys, tmp_path):
        missing = str(tmp_path / "does-not-exist")
        code, _, err = run_cli(
            capsys, "results", "ls", "--store", missing
        )
        assert code == 1
        assert err.startswith("error: no result store at")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestHelpEpilog:
    def test_help_documents_suite_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro suite run paper_grid --store S" in out
        assert "verified hit" in out
