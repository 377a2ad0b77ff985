"""The --engine CLI surface: the vector|serial policy on every
campaign-driven command, clean refusal of the retired --packed/--serial
flags, suite-level overrides, and the engine in --json payloads."""

import json

import pytest

from repro.cli import ENGINE_CHOICES, main


class TestEngineChoices:
    def test_choices_cover_the_campaign_policies(self):
        assert set(ENGINE_CHOICES) == {"vector", "serial"}

    def test_unknown_engine_rejected(self, capsys):
        # the retired packed/auto policies are unknown like any other
        for engine in ("warp", "packed", "auto"):
            with pytest.raises(SystemExit) as excinfo:
                main(["march", "--engine", engine])
            assert excinfo.value.code == 2
            assert "--engine" in capsys.readouterr().err


class TestEngineFlag:
    def test_march_serial_json(self, capsys):
        assert main(["march", "--engine", "serial", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "serial"

    def test_march_vector_json(self, capsys):
        assert main(["march", "--engine", "vector", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "vector"

    def test_vector_is_the_default(self, capsys):
        assert main(["march", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "vector"

    def test_serial_never_reads_the_store(self, tmp_path, capsys):
        # the oracle checks the fast path: a store that already holds
        # the vector records must not stand in for its simulation
        store = str(tmp_path / "store")

        def run(engine):
            assert main(
                ["march", "--engine", engine, "--store", store, "--json"]
            ) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["engine"] == engine
            return data["campaign"]["store"]

        assert run("vector")["puts"] > 0
        serial = run("serial")
        assert serial["requests"] == serial["hits"] == 0
        assert serial["puts"] > 0
        again = run("vector")
        assert again["hits"] == again["requests"] > 0

    def test_serial_empirical_report_bypasses_the_report_cache(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")

        def run(engine):
            assert main(
                ["report", "--words", "256", "--bits", "8", "-c", "10",
                 "-p", "1e-9", "--empirical", "--engine", engine,
                 "--store", store, "--json"]
            ) == 0
            return json.loads(capsys.readouterr().out)["empirical"]

        vector = run("vector")
        serial = run("serial")
        assert serial["engine"] == "serial"
        assert not serial["store_hit"]
        assert serial["result_key"] == vector["result_key"]
        for key in ("faults", "detected", "coverage"):
            assert serial[key] == vector[key]

    def test_serial_engine_rejects_workers(self, capsys):
        assert main(
            ["transient", "--engine", "serial", "--workers", "2"]
        ) == 1
        assert "--workers requires the vector engine" in (
            capsys.readouterr().err
        )


class TestDeprecatedAliases:
    """The --packed/--serial aliases are gone: passing one is a clean
    argparse refusal (exit 2, one-line diagnostic, no traceback)."""

    def test_alias_conflicts_with_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["march", "--engine", "serial", "--packed"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --packed" in err
        assert "Traceback" not in err

    def test_help_lists_only_the_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["march", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--engine {vector,serial}" in out
        assert "--packed" not in out and "--serial" not in out


class TestSuiteEngineOverride:
    def test_suite_run_engine_override_json(self, tmp_path, capsys):
        assert main(
            ["suite", "run", "smoke", "--engine", "serial",
             "--store", str(tmp_path / "store"), "--quiet", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["execution"]["errors"] == 0
        engines = {
            cell["provenance"].get("engine")
            for cell in report["cells"]
            if cell["family"] != "design"  # design cells are analytic
        }
        assert engines == {"serial"}

    def test_suite_run_vector_matches_packed_payload(
        self, tmp_path, capsys
    ):
        # the acceptance contract: an --engine vector suite run is
        # stable-payload identical to the serial oracle's run (engine
        # names and wall times aside) and lands under the same store
        # keys, since the engine is not part of the key material
        def run(engine, store):
            assert main(
                ["suite", "run", "smoke", "--engine", engine,
                 "--store", str(store), "--quiet", "--json"]
            ) == 0
            return json.loads(capsys.readouterr().out)

        def stable(report):
            # everything but the engine labels and wall times: the
            # scientific payload and the store keys must be identical
            cells = []
            for cell in report["cells"]:
                cell = dict(cell)
                cell.pop("execution")
                cell["summary"] = {
                    k: v
                    for k, v in cell["summary"].items()
                    if k != "engine"
                }
                cell["provenance"] = {
                    k: v
                    for k, v in cell["provenance"].items()
                    if k != "engine"
                }
                cells.append(cell)
            return cells

        serial = run("serial", tmp_path / "serial-store")
        vector = run("vector", tmp_path / "vector-store")
        assert stable(serial) == stable(vector)

    def test_suite_run_alias_conflicts_with_engine(self, capsys):
        # the retired alias is refused cleanly next to --engine
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["suite", "run", "smoke", "--engine", "serial",
                 "--packed"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --packed" in err
        assert "Traceback" not in err
