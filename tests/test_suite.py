"""The 1.5 campaign-suite orchestrator: declarative SuiteSpec matrices,
store-backed resume, fail-soft scheduling, aggregate SuiteReport."""

import dataclasses
import json

import pytest

from repro.results import ResultStore
from repro.suite import (
    CampaignCell,
    CellOutcome,
    MatrixBlock,
    SuiteReport,
    SuiteRunner,
    SuiteSpec,
    builtin_names,
    builtin_suite,
    execute_cell,
    load_suite,
)


def tiny_suite(cycles=64):
    """Two transient cells + one march cell — fast but multi-family."""
    transient = MatrixBlock(
        family="transient",
        label="t",
        targets=({"words": 16, "bits": 8, "column_mux": 4},),
        workloads=(
            {"family": "uniform", "cycles": cycles, "seed": 1},
            {"family": "scrubbed", "cycles": cycles, "seed": 1},
        ),
        scenarios={"population": "upset-stride", "stride": 4, "cycle": 4},
    )
    march = MatrixBlock(
        family="march",
        label="m",
        targets=({"words": 16, "bits": 8, "column_mux": 4},),
        workloads=({"test": "MATS+"},),
        scenarios={"population": "march-classes"},
    )
    return SuiteSpec(name="tiny", blocks=(transient, march))


class TestSuiteSpec:
    def test_json_round_trip(self):
        suite = tiny_suite()
        assert SuiteSpec.from_json(suite.to_json()) == suite

    def test_expansion_is_the_axis_product(self):
        suite = tiny_suite()
        cells = suite.cells()
        assert len(cells) == 3
        assert [cell.family for cell in cells] == [
            "transient", "transient", "march"
        ]

    def test_cell_ids_are_unique_even_for_duplicate_coordinates(self):
        block = tiny_suite().blocks[0]
        suite = SuiteSpec(name="dup", blocks=(block, block))
        ids = [cell.cell_id for cell in suite.cells()]
        assert len(set(ids)) == len(ids)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign family"):
            MatrixBlock(family="quantum", targets=({"words": 16},))

    def test_unknown_population_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown scenario population"):
            MatrixBlock(
                family="march",
                targets=({"words": 16, "bits": 8},),
                workloads=({"test": "MATS+"},),
                scenarios={"population": "nope"},
            )

    def test_unknown_policy_key_rejected(self):
        with pytest.raises(ValueError, match="unknown policy keys"):
            CampaignCell(
                cell_id="x",
                family="design",
                target={"words": 256, "bits": 8},
                policy={"colapse": False},
            )

    def test_malformed_spec_text(self):
        with pytest.raises(ValueError, match="malformed suite spec"):
            SuiteSpec.from_json("{not json")
        with pytest.raises(ValueError, match="'blocks'"):
            SuiteSpec.from_json('{"name": "x"}')


class TestBuiltins:
    def test_builtin_names(self):
        assert "paper_grid" in builtin_names()
        assert "smoke" in builtin_names()

    def test_paper_grid_shape(self):
        grid = builtin_suite("paper_grid")
        cells = grid.cells()
        # 18 Table-1 + 15 Table-2 design cells (the shared (10, 1e-9)
        # requirement is not duplicated), 3 empirical decoder
        # campaigns, 5 + 1 transient cells, 4 march cells
        assert len(cells) == 46
        by_family = {}
        for cell in cells:
            by_family[cell.family] = by_family.get(cell.family, 0) + 1
        assert by_family == {
            "design": 33, "decoder": 3, "transient": 6, "march": 4
        }
        assert len({cell.cell_id for cell in cells}) == 46

    def test_builtins_round_trip_as_spec_files(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(builtin_suite("paper_grid").to_json())
        assert load_suite(str(path)) == builtin_suite("paper_grid")

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown suite"):
            load_suite("definitely-not-a-suite")


class TestRunner:
    def test_storeless_run_simulates_everything(self):
        report = SuiteRunner().run(tiny_suite())
        assert report.simulated == 3
        assert report.hits == report.errors == 0
        assert all(cell.store_key is None for cell in report.cells)

    def test_store_run_then_resume_all_verified_hits(self, tmp_path):
        store = str(tmp_path / "store")
        first = SuiteRunner(store=store).run(tiny_suite())
        assert first.simulated == 3 and first.hits == 0
        assert all(cell.store_key for cell in first.cells)
        second = SuiteRunner(store=store).run(tiny_suite())
        assert second.hits == 3
        assert second.simulated == 0
        assert second.verified_hits == 3
        assert all(cell.status == "hit" for cell in second.cells)

    def test_resumed_payload_is_stable_modulo_execution(self, tmp_path):
        store = str(tmp_path / "store")
        first = SuiteRunner(store=store).run(tiny_suite())
        second = SuiteRunner(store=store).run(tiny_suite())
        stable_first = first.to_dict(stable_only=True)
        stable_second = second.to_dict(stable_only=True)
        assert stable_first == stable_second
        # ...while the full payloads differ exactly in execution state
        assert first.to_dict() != second.to_dict()
        assert "execution" not in stable_first
        assert all("execution" not in c for c in stable_first["cells"])

    def test_no_cache_reruns_but_refreshes(self, tmp_path):
        store = str(tmp_path / "store")
        SuiteRunner(store=store).run(tiny_suite())
        again = SuiteRunner(store=store, cache=False).run(tiny_suite())
        assert again.hits == 0 and again.simulated == 3

    def test_partial_store_resumes_only_completed_cells(self, tmp_path):
        store = str(tmp_path / "store")
        SuiteRunner(store=store).run(tiny_suite())
        # drop one artifact: exactly that cell re-simulates
        opened = ResultStore(store)
        victim = SuiteRunner(store=store).run(tiny_suite()).cells[0]
        opened.delete(victim.store_key)
        resumed = SuiteRunner(store=store).run(tiny_suite())
        assert resumed.hits == 2 and resumed.simulated == 1

    def test_fail_soft_one_bad_cell_never_kills_the_suite(self):
        bad = MatrixBlock(
            family="transient",
            label="bad",
            # parity disabled: the transient campaign refuses this RAM
            targets=({"words": 16, "bits": 8, "column_mux": 4,
                      "parity": False},),
            workloads=({"family": "uniform", "cycles": 32, "seed": 1},),
            scenarios={"population": "upset-stride", "stride": 8},
        )
        suite = SuiteSpec(
            name="mixed", blocks=(bad,) + tiny_suite().blocks
        )
        report = SuiteRunner().run(suite)
        assert report.errors == 1
        assert report.simulated == 3
        failed = report.cells[0]
        assert failed.status == "error"
        assert "parity" in failed.error
        assert "\n" not in failed.error

    def test_progress_events_stream_per_cell(self):
        events = []
        SuiteRunner(progress=events.append).run(tiny_suite())
        done = [e for e in events if e["event"] == "done"]
        starts = [e for e in events if e["event"] == "start"]
        assert len(done) == len(starts) == 3
        assert done[0]["total"] == 3
        assert {e["status"] for e in done} == {"ran"}

    def test_raising_progress_callback_never_aborts_the_suite(self):
        # regression: a broken observer used to propagate out of _emit
        # and kill the whole run — observers must be fail-soft
        def explode(event):
            raise RuntimeError("observer bug")

        runner = SuiteRunner(progress=explode)
        report = runner.run(tiny_suite())
        assert report.simulated == 3 and report.errors == 0
        # one start + one done event per serial cell, all swallowed
        assert runner.progress_errors == 6

    def test_raising_progress_callback_fail_soft_in_pooled_runs(self):
        def explode(event):
            raise RuntimeError("observer bug")

        runner = SuiteRunner(workers=2, progress=explode)
        report = runner.run(tiny_suite())
        assert report.simulated == 3 and report.errors == 0
        assert runner.progress_errors == 3  # pooled: done events only

    def test_should_stop_halts_between_cells(self):
        seen = []

        def stop_after_first():
            return len(seen) >= 1

        def observe(event):
            if event["event"] == "done":
                seen.append(event)

        runner = SuiteRunner(
            progress=observe, should_stop=stop_after_first
        )
        report = runner.run(tiny_suite())
        assert len(report.cells) == 1  # cell 0 finished, 1 and 2 never ran

    def test_should_stop_true_up_front_runs_nothing(self):
        report = SuiteRunner(should_stop=lambda: True).run(tiny_suite())
        assert report.cells == []
        pooled = SuiteRunner(workers=2, should_stop=lambda: True)
        assert pooled.run(tiny_suite()).cells == []

    def test_process_pool_matches_serial(self, tmp_path):
        serial = SuiteRunner().run(tiny_suite())
        pooled = SuiteRunner(workers=2).run(tiny_suite())
        assert pooled.to_dict(stable_only=True) == serial.to_dict(
            stable_only=True
        )

    def test_pool_resumes_from_serial_store(self, tmp_path):
        store = str(tmp_path / "store")
        SuiteRunner(store=store).run(tiny_suite())
        pooled = SuiteRunner(store=store, workers=2).run(tiny_suite())
        assert pooled.hits == 3 and pooled.simulated == 0

    def test_only_filter_and_engine_override(self, tmp_path):
        report = SuiteRunner().run(tiny_suite(), only="march")
        assert len(report.cells) == 1
        assert report.cells[0].family == "march"
        with pytest.raises(ValueError, match="no 'design' cells"):
            SuiteRunner().run(tiny_suite(), only="design")
        serial = SuiteRunner().run(tiny_suite(), engine="serial")
        assert all(
            cell.summary["engine"] == "serial" for cell in serial.cells
        )
        # the serial oracle agrees with the vector default, cell by cell
        vector = SuiteRunner().run(tiny_suite())
        for left, right in zip(serial.cells, vector.cells):
            assert left.summary["detected"] == right.summary["detected"]

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            SuiteRunner(workers=0)


class TestDesignCells:
    def suite(self):
        return SuiteSpec(
            name="design-only",
            blocks=(
                MatrixBlock(
                    family="design",
                    targets=(
                        {"words": 256, "bits": 8, "c": 10, "pndc": 1e-9},
                    ),
                ),
            ),
        )

    def test_design_cell_reports_the_sized_code(self):
        report = SuiteRunner().run(self.suite())
        cell = report.cells[0]
        assert cell.summary["code"] == "3-out-of-5"
        assert cell.provenance["campaign"] == "design"

    def test_design_cells_hit_the_report_side_table(self, tmp_path):
        store = str(tmp_path / "store")
        SuiteRunner(store=store).run(self.suite())
        second = SuiteRunner(store=store).run(self.suite())
        assert second.hits == 1 and second.verified_hits == 1

    def test_empirical_design_cell_carries_campaign_artifact(
        self, tmp_path
    ):
        store = str(tmp_path / "store")
        suite = SuiteSpec(
            name="empirical",
            blocks=(
                MatrixBlock(
                    family="design",
                    targets=(
                        {"words": 256, "bits": 8, "c": 10, "pndc": 1e-9},
                    ),
                    policies=(
                        {"empirical": True, "empirical_cycles": 64},
                    ),
                ),
            ),
        )
        first = SuiteRunner(store=store).run(suite)
        empirical = first.cells[0].summary["empirical"]
        assert empirical["faults"] > 0
        # the referenced record-level artifact is openable
        artifact = ResultStore(store).get(empirical["result_key"])
        assert artifact.total == empirical["faults"]
        second = SuiteRunner(store=store).run(suite)
        assert second.hits == 1 and second.simulated == 0


class TestExecuteCell:
    def test_outcome_dict_round_trips(self, tmp_path):
        cell = tiny_suite().cells()[0]
        outcome = execute_cell(cell.to_dict(), str(tmp_path / "s"))
        parsed = CellOutcome.from_dict(outcome)
        assert parsed.cell_id == cell.cell_id
        assert parsed.status == "ran"
        assert parsed.store["puts"] == 1
        assert CellOutcome.from_dict(parsed.to_dict()) == parsed

    def test_march_cell_with_unknown_test_fails_soft(self):
        cell = dataclasses.replace(
            tiny_suite().cells()[2], workload={"test": "March Q"}
        )
        outcome = execute_cell(cell.to_dict(), None)
        assert outcome["execution"]["status"] == "error"
        assert "unknown march test" in outcome["error"]


class TestSuiteReport:
    def run_tiny(self, tmp_path):
        return SuiteRunner(store=str(tmp_path / "s")).run(tiny_suite())

    def test_totals_aggregate_coverage(self, tmp_path):
        report = self.run_tiny(tmp_path)
        totals = report.totals()
        assert totals["faults"] == sum(
            cell.summary["faults"] for cell in report.cells
        )
        assert totals["detected"] <= totals["faults"]
        assert 0 < totals["coverage"] <= 1
        assert set(totals["by_family"]) == {"transient", "march"}

    def test_json_round_trip(self, tmp_path):
        report = self.run_tiny(tmp_path)
        parsed = SuiteReport.from_dict(json.loads(report.to_json()))
        assert parsed.suite == report.suite
        assert parsed.hits == report.hits
        assert [c.cell_id for c in parsed.cells] == [
            c.cell_id for c in report.cells
        ]

    def test_render_mentions_cells_and_counters(self, tmp_path):
        report = self.run_tiny(tmp_path)
        text = report.render()
        assert "3 cells" in text
        for cell in report.cells:
            assert cell.cell_id in text
        assert "simulated" in text


class TestPaperGridResume:
    """The acceptance criterion, API-level: paper_grid twice against
    one store — the second run is all verified hits, the simulator is
    never invoked, and the stable payloads are identical."""

    def test_paper_grid_double_run(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        grid = builtin_suite("paper_grid")
        first = SuiteRunner(store=store).run(grid)
        assert first.errors == 0
        # a cold run against a fresh store is a clean all-miss run
        assert first.hits == 0
        assert first.simulated == len(grid.cells())

        # prove "simulator never invoked" mechanically, not just by
        # counters: a resumed run must survive broken engines
        import repro.faultsim.campaign as campaign
        import repro.faultsim.vectorsim as vectorsim
        import repro.scenarios.engine as scenarios_engine

        def boom(*args, **kwargs):
            raise AssertionError("simulator invoked on a resumed run")

        monkeypatch.setattr(campaign, "decoder_campaign_vector", boom)
        monkeypatch.setattr(vectorsim, "_map_jobs", boom)
        monkeypatch.setattr(scenarios_engine, "_map_jobs", boom)
        monkeypatch.setattr(
            scenarios_engine.CampaignEngine, "_run_sharded", boom
        )
        second = SuiteRunner(store=store).run(grid)
        assert second.errors == 0
        assert second.simulated == 0
        assert second.hits == len(grid.cells()) == 46
        assert second.verified_hits == 46
        assert first.to_dict(stable_only=True) == second.to_dict(
            stable_only=True
        )
