"""The 1.5 campaign-suite orchestrator: declarative SuiteSpec matrices,
store-backed resume, fail-soft scheduling, aggregate SuiteReport."""

import dataclasses
import json
import os
import shutil
import threading

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
from repro.suite.runner import source_fingerprint


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
        # ...and, through the cell index, builds no target either
        forbid_builds(monkeypatch)
        second = SuiteRunner(store=store).run(grid)
        assert second.errors == 0
        assert second.simulated == 0
        assert second.hits == len(grid.cells()) == 46
        assert second.verified_hits == 46
        assert first.to_dict(stable_only=True) == second.to_dict(
            stable_only=True
        )

    def test_smoke_double_run_builds_nothing(self, tmp_path, monkeypatch):
        # smoke has a scheme cell, whose target is a whole built memory
        store = str(tmp_path / "store")
        smoke = builtin_suite("smoke")
        assert "scheme" in smoke.families()
        first = SuiteRunner(store=store).run(smoke)
        assert first.errors == 0
        forbid_builds(monkeypatch)
        second = SuiteRunner(store=store).run(smoke)
        assert second.errors == 0 and second.simulated == 0
        assert second.verified_hits == len(smoke.cells())
        assert first.to_dict(stable_only=True) == second.to_dict(
            stable_only=True
        )


def forbid_builds(monkeypatch):
    """Make every way of building a campaign target, its fault list or
    its key material raise."""
    import repro.results.store as store_module
    import repro.scenarios.engine as scenarios_engine
    import repro.suite.populations as populations
    from repro.design.engine import DesignEngine
    from repro.rom.nor_matrix import CheckedDecoder

    def built(*args, **kwargs):
        raise AssertionError("a resumed cell built its target")

    monkeypatch.setattr(CheckedDecoder, "__init__", built)
    monkeypatch.setattr(DesignEngine, "build", built)
    monkeypatch.setattr(store_module, "describe_target", built)
    monkeypatch.setattr(scenarios_engine, "describe_target", built)
    monkeypatch.setattr(populations, "build_population", built)


def index_suite():
    """One cell or two of every family the cell index covers."""
    smoke = builtin_suite("smoke")
    return SuiteSpec(
        name="index",
        blocks=tuple(b for b in smoke.blocks if b.family != "design"),
    )


def entries(store):
    """``{digest: entry}`` of a store's cell index, read off the files
    (``None`` for an entry that is not JSON)."""
    cells = os.path.join(store, "cells")
    out = {}
    for name in sorted(os.listdir(cells)):
        with open(os.path.join(cells, name)) as handle:
            try:
                out[name] = json.load(handle)
            except ValueError:
                out[name] = None
    return out


class TestCellIndex:
    """The cell index serves only a current entry; every other case
    re-keys through the target build, serves the same verified hit and
    rewrites the entry."""

    @pytest.fixture
    def filled(self, tmp_path):
        store = str(tmp_path / "store")
        first = SuiteRunner(store=store).run(index_suite())
        assert first.errors == 0 and first.simulated == 6
        return store, first

    @pytest.fixture
    def keyings(self, monkeypatch):
        """Counts the target descriptions campaigns key on."""
        import repro.scenarios.engine as scenarios_engine

        calls = []
        real = scenarios_engine.describe_target

        def counted(target):
            calls.append(type(target).__name__)
            return real(target)

        monkeypatch.setattr(scenarios_engine, "describe_target", counted)
        return calls

    def resumed_like(self, store, first):
        report = SuiteRunner(store=store).run(index_suite())
        assert report.errors == 0 and report.simulated == 0
        assert report.verified_hits == len(first.cells)
        assert [c.store_key for c in report.cells] == [
            c.store_key for c in first.cells
        ]
        assert report.to_dict(stable_only=True) == first.to_dict(
            stable_only=True
        )
        return report

    def test_one_entry_per_cell_naming_its_key(self, filled):
        store, first = filled
        index = entries(store)
        assert len(index) == len(first.cells)
        assert sorted(e["key"] for e in index.values()) == sorted(
            c.store_key for c in first.cells
        )
        assert {e["source"] for e in index.values()} == {
            source_fingerprint()
        }

    def test_current_entries_skip_the_keying(self, filled, keyings):
        self.resumed_like(*filled)
        assert keyings == []

    def test_entry_with_another_source_is_rekeyed_and_rewritten(
        self, filled, keyings
    ):
        store, first = filled
        opened = ResultStore(store)
        for digest, entry in entries(store).items():
            opened.put_cell_entry(digest, entry["key"], "0" * 64)
        self.resumed_like(store, first)
        assert keyings  # today's path computed every key
        assert {e["source"] for e in entries(store).values()} == {
            source_fingerprint()
        }

    def test_torn_entry_is_rekeyed_and_rewritten(self, filled, keyings):
        store, first = filled
        before = entries(store)
        for digest in before:
            with open(os.path.join(store, "cells", digest), "w") as handle:
                handle.write("{")
        self.resumed_like(store, first)
        assert keyings
        assert entries(store) == before

    def test_entry_naming_a_deleted_key_simulates_that_cell(self, filled):
        store, first = filled
        victim = first.cells[0]
        ResultStore(store).delete(victim.store_key)
        resumed = SuiteRunner(store=store).run(index_suite())
        assert resumed.errors == 0
        assert resumed.simulated == 1 and resumed.cells[0].status == "ran"
        assert resumed.hits == len(first.cells) - 1
        assert resumed.to_dict(stable_only=True) == first.to_dict(
            stable_only=True
        )
        # the entry is rewritten, and the next run is all index hits
        assert victim.store_key in {e["key"] for e in entries(store).values()}
        again = SuiteRunner(store=store).run(index_suite())
        assert again.verified_hits == len(first.cells)

    def test_no_sources_turn_the_index_off(
        self, filled, keyings, monkeypatch, tmp_path
    ):
        import repro.suite.runner as runner

        store, first = filled
        empty = tmp_path / "no-sources"
        empty.mkdir()
        (empty / "README").write_text("no python here")
        monkeypatch.setattr(runner, "_package_root", lambda: str(empty))
        assert source_fingerprint() is None
        shutil.rmtree(os.path.join(store, "cells"))
        self.resumed_like(store, first)
        assert keyings
        assert not os.path.exists(os.path.join(store, "cells"))

    def test_concurrent_first_calls_agree(self, monkeypatch):
        import repro.suite.runner as runner

        expected = source_fingerprint()
        monkeypatch.setattr(runner, "_SOURCE_DIGESTS", {})
        barrier = threading.Barrier(8)
        seen = []

        def first_call():
            barrier.wait(timeout=30)
            seen.append(source_fingerprint())

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 8
        assert len(runner._SOURCE_DIGESTS) == 1

    def test_fingerprint_covers_the_march_table(self, monkeypatch):
        from repro.memory import march

        before = source_fingerprint()
        assert before == source_fingerprint()
        monkeypatch.setitem(
            march.MARCH_TESTS, "MATS+", march.MARCH_C_MINUS
        )
        assert source_fingerprint() != before


class TestCellIndexPluginGuard:
    """A registration from outside ``repro`` can change what a cell
    builds without a source edit: the index is then neither read nor
    written."""

    def test_foreign_population_turns_the_index_off(
        self, tmp_path, monkeypatch
    ):
        from repro.suite.populations import POPULATIONS

        store = str(tmp_path / "store")
        first = SuiteRunner(store=store).run(index_suite())
        shutil.rmtree(os.path.join(store, "cells"))
        POPULATIONS.register("test-foreign-pop", lambda target, params: [])
        try:
            monkeypatch.setattr(
                ResultStore, "cell_entry",
                lambda self, digest: pytest.fail("index read"),
            )
            resumed = SuiteRunner(store=store).run(index_suite())
        finally:
            POPULATIONS.unregister("test-foreign-pop")
        assert resumed.verified_hits == len(first.cells)
        assert not os.path.exists(os.path.join(store, "cells"))

    def test_foreign_mapping_selector_turns_the_index_off(
        self, tmp_path, monkeypatch
    ):
        import functools

        from repro.design import registry

        store = str(tmp_path / "store")
        SuiteRunner(store=store).run(index_suite())
        before = entries(store)
        monkeypatch.setattr(
            registry, "_MAPPING_SELECTORS",
            list(registry._MAPPING_SELECTORS),
        )
        # a partial has no __module__ of its own: it counts as foreign
        registry.register_mapping_selector(
            "mod", functools.partial(isinstance, classinfo=float)
        )
        monkeypatch.setattr(
            ResultStore, "cell_entry",
            lambda self, digest: pytest.fail("index read"),
        )
        monkeypatch.setattr(
            ResultStore, "put_cell_entry",
            lambda self, *args: pytest.fail("index written"),
        )
        resumed = SuiteRunner(store=store).run(index_suite())
        assert resumed.verified_hits == len(resumed.cells)
        assert entries(store) == before

    def test_replaced_rom_programming_misses_never_serves_the_entry(
        self, tmp_path
    ):
        # a decoder cell takes its mapping kind from the code selection,
        # so a replaced mapping factory is the registration that changes
        # its ROM programming
        from repro.core.mapping import ModAMapping
        from repro.design.registry import MAPPINGS

        store = str(tmp_path / "store")
        suite = SuiteSpec(
            name="decoder-only",
            blocks=tuple(
                b for b in index_suite().blocks if b.family == "decoder"
            ),
        )
        first = SuiteRunner(store=store).run(suite)
        before = entries(store)
        original = MAPPINGS.get("mod")
        MAPPINGS.unregister("mod")
        # every address programmed with the first code word
        MAPPINGS.register(
            "mod",
            lambda code, n_bits, complete=True: ModAMapping(
                code, n_bits, a=1, complete=False
            ),
        )
        try:
            replaced = SuiteRunner(store=store).run(suite)
        finally:
            MAPPINGS.unregister("mod")
            MAPPINGS.register("mod", original)
        assert replaced.errors == 0
        assert replaced.simulated == 1
        assert replaced.cells[0].store_key != first.cells[0].store_key
        assert entries(store) == before
        restored = SuiteRunner(store=store).run(suite)
        assert restored.verified_hits == 1
        assert restored.cells[0].store_key == first.cells[0].store_key


class TestCellIndexPolicy:
    def test_serial_engine_never_reads_an_entry(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        SuiteRunner(store=store).run(index_suite())
        monkeypatch.setattr(
            ResultStore, "cell_entry",
            lambda self, digest: pytest.fail("index read"),
        )
        serial = SuiteRunner(store=store).run(index_suite(), engine="serial")
        assert serial.errors == 0
        assert serial.simulated == len(serial.cells)

    def test_no_cache_reruns_and_rewrites_the_entry(
        self, tmp_path, monkeypatch
    ):
        store = str(tmp_path / "store")
        SuiteRunner(store=store).run(index_suite())
        opened = ResultStore(store)
        for digest, entry in entries(store).items():
            opened.put_cell_entry(digest, entry["key"], "0" * 64)
        monkeypatch.setattr(
            ResultStore, "cell_entry",
            lambda self, digest: pytest.fail("index read"),
        )
        again = SuiteRunner(store=store, cache=False).run(index_suite())
        assert again.simulated == len(again.cells)
        assert {e["source"] for e in entries(store).values()} == {
            source_fingerprint()
        }

    def test_tampered_payload_behind_an_entry_is_a_one_line_error(
        self, tmp_path
    ):
        store = str(tmp_path / "store")
        first = SuiteRunner(store=store).run(index_suite())
        victim = first.cells[1]
        opened = ResultStore(store)
        with open(opened._payload_path(victim.store_key), "a") as handle:
            handle.write('{"f":"evil","k":"sa1"}\n')
        resumed = SuiteRunner(store=store).run(index_suite())
        failed = resumed.cells[1]
        assert failed.status == "error"
        assert failed.error.startswith("ResultStoreError: ")
        assert "hash verification" in failed.error
        assert "\n" not in failed.error
        assert resumed.errors == 1
        assert resumed.verified_hits == len(first.cells) - 1
