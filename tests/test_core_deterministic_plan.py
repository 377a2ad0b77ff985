"""Tests for deterministic latency bounds and per-decoder code plans."""


from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.deterministic import (
    deterministic_bounds,
    scan_guarantee,
    worst_case_latency_for_site,
)
from repro.core.mapping import (
    ModAMapping,
    ParityMapping,
    TruncatedBergerMapping,
    mapping_for_code,
)
from repro.core.plan import plan_memory_codes
from repro.core.selection import SelectionPolicy
from repro.decoder.tree import DecoderTree
from repro.design import DesignEngine, DesignSpec
from repro.memory.organization import MemoryOrganization, paper_org


def design_page(organization, **requirements):
    spec = DesignSpec.for_organization(organization, **requirements)
    return DesignEngine().evaluate(spec).render()


class TestWorstCaseLatency:
    def test_sa0_latency_is_excitation_period(self):
        # on a full sweep the faulty line is addressed once per period
        mapping = mapping_for_code(MOutOfNCode(3, 5), 4)
        latency = worst_case_latency_for_site(
            mapping, lo=0, width=4, m1=5, stuck_value=0
        )
        assert latency == 16

    def test_sa1_full_width_block(self):
        mapping = ModAMapping(MOutOfNCode(3, 5), 4, complete=False)
        latency = worst_case_latency_for_site(
            mapping, lo=0, width=4, m1=0, stuck_value=1
        )
        # detecting cycles: X with X % 9 != 0 and X != 0 -> gaps around
        # X=0 and X=9; the worst run of non-detecting cycles is short
        assert 1 <= latency <= 3

    def test_brute_force_cross_check(self):
        mapping = ModAMapping(MOutOfNCode(3, 5), 4, complete=False)
        lo, width, m1 = 1, 2, 2
        stream = list(range(16))
        latency = worst_case_latency_for_site(
            mapping, lo, width, m1, stuck_value=1, stream=stream
        )
        # direct simulation: longest run without detection
        mask = 0b11 << lo
        flags = []
        for address in stream:
            faulty = (address & ~mask) | (m1 << lo)
            flags.append(
                faulty != address
                and mapping.index(faulty) != mapping.index(address)
            )
        positions = [i for i, f in enumerate(flags) if f]
        gaps = [
            b - a
            for a, b in zip(positions, positions[1:] + [positions[0] + 16])
        ]
        assert latency == max(gaps)

    def test_blind_fault_returns_none(self):
        mapping = TruncatedBergerMapping(6, k=2)
        latency = worst_case_latency_for_site(
            mapping, lo=4, width=2, m1=1, stuck_value=1
        )
        assert latency is None


class TestScanGuarantee:
    def test_mod_a_mapping_has_finite_guarantee(self):
        tree = DecoderTree(4)
        mapping = mapping_for_code(MOutOfNCode(3, 5), 4)
        guarantee = scan_guarantee(tree, mapping)
        assert guarantee is not None
        # the slowest site is a stuck-at-0 excited once per 16-sweep
        assert guarantee == 16

    def test_truncated_berger_has_no_guarantee(self):
        tree = DecoderTree(5)
        mapping = TruncatedBergerMapping(5, k=2)
        assert scan_guarantee(tree, mapping) is None

    def test_parity_mapping_guarantee(self):
        tree = DecoderTree(4)
        guarantee = scan_guarantee(tree, ParityMapping(4))
        assert guarantee is not None

    def test_bounds_cover_every_site(self):
        tree = DecoderTree(3)
        mapping = mapping_for_code(MOutOfNCode(3, 5), 3)
        bounds = deterministic_bounds(tree, mapping)
        assert len(bounds) == 2 * tree.circuit.num_gates

    def test_empirical_agreement(self):
        # the bound must dominate a measured sweep campaign
        from repro.checkers.m_out_of_n_checker import MOutOfNChecker
        from repro.faultsim.campaign import decoder_campaign
        from repro.faultsim.injector import decoder_fault_list
        from repro.rom.nor_matrix import CheckedDecoder
        from repro.scenarios import Workload

        mapping = mapping_for_code(MOutOfNCode(3, 5), 4)
        checked = CheckedDecoder(mapping)
        guarantee = scan_guarantee(checked.tree, mapping)
        stream = Workload.sequential(16, 2 * 16)
        result = decoder_campaign(
            checked,
            MOutOfNChecker(3, 5, structural=False),
            decoder_fault_list(checked),
            stream,
            attach_analytic=False,
        )
        assert result.coverage == 1.0
        assert max(result.detection_cycles()) <= guarantee


class TestMemoryCodePlan:
    def test_default_plan_zero_latency_column(self):
        plan = plan_memory_codes(paper_org("16x2K"), c=10, pndc=1e-9)
        assert plan.row.code_name == "3-out-of-5"
        assert plan.column.mapping_kind == "identity"
        assert plan.column.achieved_pndc == 0.0

    def test_shared_code_plan(self):
        plan = plan_memory_codes(
            paper_org("16x2K"), c=10, pndc=1e-9, column_zero_latency=False
        )
        assert plan.column.code_name == plan.row.code_name

    def test_zero_latency_column_costs_little(self):
        org = paper_org("16x2K")
        free = plan_memory_codes(org, 10, 1e-9).overhead_percent()
        shared = plan_memory_codes(
            org, 10, 1e-9, column_zero_latency=False
        ).overhead_percent()
        # the column ROM is r*2^s cells either way: the delta is tiny
        assert abs(free - shared) < 0.2

    def test_mappings_constructible(self):
        plan = plan_memory_codes(paper_org("16x2K"), c=10, pndc=1e-9)
        row_mapping = plan.row_mapping()
        column_mapping = plan.column_mapping()
        assert row_mapping.n_bits == 8
        assert column_mapping.n_bits == 3
        # identity: distinct words per column line
        words = {column_mapping.codeword(a) for a in range(8)}
        assert len(words) == 8

    def test_describe(self):
        plan = plan_memory_codes(paper_org("16x2K"), c=10, pndc=1e-9)
        assert "3-out-of-5" in plan.describe()


class TestDesignReport:
    def test_report_contains_key_sections(self):
        org = MemoryOrganization(2048, 16, column_mux=8)
        text = design_page(org, c=10, pndc=1e-9)
        for token in (
            "16x2K",
            "3-out-of-5",
            "row decoder check",
            "column decoder check",
            "area bill",
            "system safety",
            "meets 1e-09",
        ):
            assert token in text, token

    def test_report_with_shared_column(self):
        org = MemoryOrganization(2048, 16, column_mux=8)
        text = design_page(org, c=10, pndc=1e-9, column_zero_latency=False)
        assert "mapping 'mod'" in text

    def test_report_approximate_policy(self):
        org = MemoryOrganization(2048, 16, column_mux=8)
        text = design_page(
            org, c=10, pndc=1e-20, policy=SelectionPolicy.APPROXIMATE
        )
        assert "MISSES" in text  # the documented 1e-20 inconsistency
