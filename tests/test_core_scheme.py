import pytest

from repro.circuits.faults import NetStuckAt
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.memory.faults import CellStuckAt, DataLineStuckAt
from repro.memory.organization import MemoryOrganization


@pytest.fixture(scope="module")
def memory():
    org = MemoryOrganization(words=64, bits=8, column_mux=4)
    return SelfCheckingMemory.from_selection(org, select_code(10, 1e-9))


class TestConstruction:
    def test_from_requirements(self):
        from repro.design import DesignEngine, DesignSpec

        org = MemoryOrganization(words=64, bits=8, column_mux=4)
        spec = DesignSpec.for_organization(org, c=10, pndc=1e-9)
        memory = DesignEngine().build(spec)
        assert memory.row.mapping.code.name == "3-out-of-5"
        assert memory.row.n == org.p
        assert memory.column.n == org.s

    def test_mapping_width_mismatch_rejected(self):
        org = MemoryOrganization(words=64, bits=8, column_mux=4)
        wrong = mapping_for_code(MOutOfNCode(3, 5), org.p + 1)
        good = mapping_for_code(MOutOfNCode(3, 5), org.s)
        with pytest.raises(ValueError):
            SelfCheckingMemory(org, wrong, good)

    def test_area_overhead_positive(self, memory):
        assert 0 < memory.area_overhead_percent() < 100


class TestFaultFreeOperation:
    def test_write_read_round_trip(self, memory):
        memory.clear_faults()
        memory.write(17, (1, 1, 0, 1, 0, 0, 1, 0))
        result = memory.read(17)
        assert result.data == (1, 1, 0, 1, 0, 0, 1, 0)
        assert not result.error_detected

    def test_no_false_alarms_over_full_sweep(self, memory):
        memory.clear_faults()
        for address in range(64):
            memory.write(address, tuple((address >> b) & 1 for b in range(8)))
        for address in range(64):
            result = memory.read(address)
            assert not result.error_detected, address
            assert result.data == tuple(
                (address >> b) & 1 for b in range(8)
            )


class TestDetection:
    def test_cell_fault_flagged_by_parity(self, memory):
        memory.clear_faults()
        memory.write(9, (0,) * 8)
        memory.inject_memory_fault(CellStuckAt(9, 4, 1))
        result = memory.read(9)
        assert not result.parity_ok
        assert result.error_detected
        memory.clear_faults()

    def test_data_line_fault_flagged(self, memory):
        memory.clear_faults()
        memory.write(0, (0,) * 8)
        memory.inject_memory_fault(DataLineStuckAt(2, 1))
        assert memory.read(0).error_detected
        memory.clear_faults()

    def test_row_decoder_sa0_detected_when_excited(self, memory):
        memory.clear_faults()
        line = memory.row.tree.root.output_nets[5]
        memory.inject_row_fault(NetStuckAt(line, 0))
        address = memory.organization.join_address(5, 0)
        result = memory.read(address)
        assert not result.row_ok          # all-1s out of the ROM
        assert result.error_detected
        memory.clear_faults()

    def test_row_decoder_sa0_silent_when_unexcited(self, memory):
        memory.clear_faults()
        line = memory.row.tree.root.output_nets[5]
        memory.inject_row_fault(NetStuckAt(line, 0))
        address = memory.organization.join_address(6, 0)
        assert not memory.read(address).error_detected
        memory.clear_faults()

    def test_row_decoder_sa1_detected_iff_words_differ(self, memory):
        memory.clear_faults()
        org = memory.organization
        stuck_row = 3
        line = memory.row.tree.root.output_nets[stuck_row]
        memory.inject_row_fault(NetStuckAt(line, 1))
        mapping = memory.row.mapping
        for row in range(org.rows):
            result = memory.read(org.join_address(row, 0))
            expect_detect = (
                row != stuck_row
                and mapping.index(row) != mapping.index(stuck_row)
            )
            assert result.row_ok != expect_detect, row
        memory.clear_faults()

    def test_column_decoder_fault_detected(self, memory):
        memory.clear_faults()
        line = memory.column.tree.root.output_nets[0]
        memory.inject_column_fault(NetStuckAt(line, 0))
        address = memory.organization.join_address(0, 0)
        assert not memory.read(address).column_ok
        memory.clear_faults()

    def test_merged_read_data_is_and_of_words(self, memory):
        memory.clear_faults()
        org = memory.organization
        memory.write(org.join_address(1, 0), (1, 1, 1, 1, 0, 0, 0, 0))
        memory.write(org.join_address(2, 0), (1, 0, 1, 0, 1, 0, 1, 0))
        line = memory.row.tree.root.output_nets[1]
        memory.inject_row_fault(NetStuckAt(line, 1))
        result = memory.read(org.join_address(2, 0))
        assert result.data == (1, 0, 1, 0, 0, 0, 0, 0)
        memory.clear_faults()

    def test_nothing_selected_reads_all_ones_and_flags_parity(self, memory):
        memory.clear_faults()
        # kill the whole root block: no word line can rise
        for net in memory.row.tree.root.output_nets:
            memory.inject_row_fault(NetStuckAt(net, 0))
        result = memory.read(0)
        assert result.data == (1,) * 8
        assert result.error_detected
        memory.clear_faults()


class TestReadResult:
    def test_indication_properties(self, memory):
        memory.clear_faults()
        memory.write(2, (0,) * 8)
        result = memory.read(2)
        assert result.row_ok and result.column_ok and result.parity_ok
        assert result.address == 2
