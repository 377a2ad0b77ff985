"""DesignEngine: build/evaluate/sweep, and equivalence with the legacy
entry points (the API-redesign acceptance criteria)."""

import pytest

from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import SelectionPolicy, select_code
from repro.design.engine import DesignEngine
from repro.design.report import DesignReport
from repro.design.spec import DesignSpec
from repro.memory.organization import PAPER_ORGS, MemoryOrganization

REQUIREMENTS = [(2, 1e-9), (10, 1e-9), (10, 1e-15)]


def legacy_page(organization, c, pndc):
    """The page the pre-2.1 text-report wrapper rendered for
    ``(org, c, pndc)``, its defaults spelled out: exact selection,
    zero-latency column, 1e-5 faults/h, decoder area fraction 0.1."""
    spec = DesignSpec.for_organization(
        organization,
        c=c,
        pndc=pndc,
        policy=SelectionPolicy.EXACT,
        column_zero_latency=True,
    )
    legacy = DesignEngine(fault_rate_per_hour=1e-5, decoder_area_fraction=0.1)
    return legacy.evaluate(spec).render()


@pytest.fixture(scope="module")
def engine():
    return DesignEngine()


class TestBuild:
    def test_build_returns_working_memory(self, engine):
        spec = DesignSpec(words=64, bits=8, column_mux=4)
        memory = engine.build(spec)
        assert isinstance(memory, SelfCheckingMemory)
        memory.write(7, (1, 1, 0, 0, 1, 0, 1, 0))
        result = memory.read(7)
        assert result.data == (1, 1, 0, 0, 1, 0, 1, 0)
        assert not result.error_detected

    def test_build_records_selection(self, engine):
        memory = engine.build(DesignSpec(words=64, bits=8, column_mux=4))
        assert memory.selection is not None
        assert memory.selection.code_name == "3-out-of-5"

    def test_build_matches_legacy_from_requirements(self, engine):
        spec = DesignSpec(
            words=64, bits=8, column_mux=4, column_zero_latency=False
        )
        via_engine = engine.build(spec)
        # what the removed requirements-to-memory shortcut built
        legacy = SelfCheckingMemory.from_selection(
            MemoryOrganization(64, 8, 4), select_code(spec.c, spec.pndc)
        )
        assert (
            via_engine.row.mapping.table() == legacy.row.mapping.table()
        )
        assert (
            via_engine.column.mapping.table()
            == legacy.column.mapping.table()
        )

    def test_zero_latency_column_default(self, engine):
        memory = engine.build(DesignSpec(words=64, bits=8, column_mux=4))
        # identity column mapping: one distinct word per mux way
        assert memory.column.mapping.num_words_used == 4

    def test_row_code_override(self, engine):
        spec = DesignSpec(
            words=64, bits=8, column_mux=4, row_code="2-out-of-4"
        )
        memory = engine.build(spec)
        assert memory.selection.code_name == "2-out-of-4"

    def test_flat_decoder_style(self, engine):
        spec = DesignSpec(
            words=64, bits=8, column_mux=4, decoder_style="flat"
        )
        memory = engine.build(spec)
        memory.write(3, (1,) * 8)
        assert memory.read(3).data == (1,) * 8

    def test_structural_checkers(self, engine):
        spec = DesignSpec(
            words=64, bits=8, column_mux=4, checker_style="structural"
        )
        memory = engine.build(spec)
        assert not memory.read(0).error_detected


class TestEvaluate:
    @pytest.mark.parametrize("org", PAPER_ORGS, ids=lambda o: o.label())
    @pytest.mark.parametrize("req", REQUIREMENTS, ids=str)
    def test_render_matches_legacy_design_report(self, engine, org, req):
        c, pndc = req
        spec = DesignSpec(
            words=org.words,
            bits=org.bits,
            column_mux=org.column_mux,
            c=c,
            pndc=pndc,
        )
        assert engine.evaluate(spec).render() == legacy_page(org, c, pndc)

    def test_selection_fields_match_select_code(self, engine):
        spec = DesignSpec(words=2048, bits=16, c=10, pndc=1e-9)
        report = engine.evaluate(spec)
        selection = select_code(10, 1e-9)
        assert report.row.code == selection.code_name
        assert report.row.a_final == selection.a_final
        assert report.row.pndc_achieved == selection.achieved_pndc

    def test_approximate_policy_flows_through(self, engine):
        spec = DesignSpec(
            words=2048, bits=16, c=10, pndc=1e-20, policy="approximate"
        )
        report = engine.evaluate(spec)
        expected = select_code(
            10, 1e-20, policy=SelectionPolicy.APPROXIMATE
        )
        assert report.row.code == expected.code_name

    def test_report_json_round_trip(self, engine):
        report = engine.evaluate(DesignSpec(words=2048, bits=16))
        assert DesignReport.from_json(report.to_json()) == report


class TestSweep:
    def test_grid_acceptance(self, engine):
        """PAPER_ORGS x 3 requirements: reports match the legacy page."""
        specs = DesignSpec.grid(PAPER_ORGS, REQUIREMENTS)
        reports = engine.sweep(specs, workers=4)
        assert len(reports) == 9
        for spec, report in zip(specs, reports):
            assert report.spec == spec  # order preserved
            assert report.render() == legacy_page(
                spec.organization, spec.c, spec.pndc
            )
            assert DesignReport.from_json(report.to_json()) == report

    def test_serial_and_parallel_agree(self, engine):
        specs = DesignSpec.grid(PAPER_ORGS, REQUIREMENTS[:2])
        assert engine.sweep(specs) == engine.sweep(specs, workers=3)

    def test_process_pool_executor(self, engine):
        specs = DesignSpec.grid(PAPER_ORGS[:1], REQUIREMENTS[:2])
        reports = engine.sweep(specs, workers=2, executor="process")
        assert reports == engine.sweep(specs)

    def test_unknown_executor_rejected(self, engine):
        with pytest.raises(ValueError, match="executor"):
            engine.sweep(
                DesignSpec.grid(PAPER_ORGS[:1], REQUIREMENTS[:1]),
                workers=2,
                executor="fiber",
            )

    def test_accepts_any_iterable(self, engine):
        reports = engine.sweep(
            iter(DesignSpec.grid(PAPER_ORGS[:1], REQUIREMENTS[:1]))
        )
        assert len(reports) == 1
