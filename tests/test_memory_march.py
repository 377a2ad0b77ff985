import pytest

from repro.memory.faults import (
    CellStuckAt,
    CouplingFault,
    DataLineStuckAt,
)
from repro.memory.march import (
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS_PLUS,
    MarchElement,
    MarchTest,
    run_march,
)
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.scenarios import Workload


def make_ram():
    return BehavioralRAM(MemoryOrganization(32, 4, column_mux=2))


class TestMarchDefinitions:
    def test_complexities(self):
        assert MARCH_C_MINUS.complexity == 10
        assert MATS_PLUS.complexity == 5
        assert MARCH_X.complexity == 6
        assert MARCH_Y.complexity == 8

    def test_element_validation(self):
        with pytest.raises(ValueError):
            MarchElement("^", ("r0",))
        with pytest.raises(ValueError):
            MarchElement("+", ("q0",))

    def test_element_addresses(self):
        up = MarchElement("+", ("r0",))
        down = MarchElement("-", ("r0",))
        assert list(up.addresses(4)) == [0, 1, 2, 3]
        assert list(down.addresses(4)) == [3, 2, 1, 0]

    def test_str_representations(self):
        assert "March C-" in str(MARCH_C_MINUS)
        assert "10N" in str(MARCH_C_MINUS)


class TestFaultFreePass:
    @pytest.mark.parametrize(
        "test", [MARCH_C_MINUS, MATS_PLUS, MARCH_X, MARCH_Y]
    )
    def test_healthy_ram_passes(self, test):
        assert run_march(make_ram(), test) == []


class TestCoverage:
    @pytest.mark.parametrize(
        "test", [MARCH_C_MINUS, MATS_PLUS, MARCH_X, MARCH_Y]
    )
    @pytest.mark.parametrize("value", [0, 1])
    def test_every_march_detects_every_cell_stuck_at(self, test, value):
        # SAF coverage is the baseline guarantee of all march tests
        for address in (0, 13, 31):
            for bit in (0, 3):
                ram = make_ram()
                ram.inject(CellStuckAt(address, bit, value))
                violations = run_march(ram, test)
                assert violations, (test.name, address, bit, value)

    def test_violation_records_location(self):
        ram = make_ram()
        ram.inject(CellStuckAt(7, 2, 1))
        violations = run_march(ram, MATS_PLUS)
        assert any(v.address == 7 for v in violations)
        first = violations[0]
        assert first.observed != first.expected

    def test_data_line_fault_detected(self):
        ram = make_ram()
        ram.inject(DataLineStuckAt(1, 1))
        assert run_march(ram, MATS_PLUS)

    def test_march_c_minus_detects_idempotent_coupling(self):
        # CFid: aggressor=1 forces victim bit high on reads
        ram = make_ram()
        ram.inject(
            CouplingFault(
                aggressor_address=3, aggressor_bit=0,
                victim_address=9, victim_bit=0,
                trigger=1, forced=1,
            )
        )
        assert run_march(ram, MARCH_C_MINUS)


class TestWriteTriggeredCoupling:
    """The textbook CFid guarantees: March C- covers every write-triggered
    coupling fault, MATS+ provably does not (its single ascending
    read-write element never re-reads a victim below its aggressor after
    the aggressor's up-transition)."""

    @staticmethod
    def cfid(aggressor, victim, trigger=1, forced=1):
        return CouplingFault(
            aggressor_address=aggressor, aggressor_bit=0,
            victim_address=victim, victim_bit=0,
            trigger=trigger, forced=forced, write_triggered=True,
        )

    @pytest.mark.parametrize("aggressor,victim", [(3, 9), (9, 3)])
    @pytest.mark.parametrize("trigger,forced", [(1, 1), (0, 0)])
    def test_march_c_minus_detects_both_orders_and_transitions(
        self, aggressor, victim, trigger, forced
    ):
        ram = make_ram()
        ram.inject(self.cfid(aggressor, victim, trigger, forced))
        assert run_march(ram, MARCH_C_MINUS), (
            aggressor, victim, trigger, forced,
        )

    def test_mats_plus_misses_aggressor_above_victim(self):
        # aggressor > victim: the ascending element writes the victim
        # first (v=1), so the later aggressor up-transition forces a
        # value the descending r1 then expects — never observed wrong.
        ram = make_ram()
        ram.inject(self.cfid(aggressor=9, victim=3))
        assert run_march(ram, MATS_PLUS) == []

    def test_mats_plus_detects_aggressor_below_victim(self):
        # the opposite order IS caught: SAF-grade coverage only.
        ram = make_ram()
        ram.inject(self.cfid(aggressor=3, victim=9))
        assert run_march(ram, MATS_PLUS)

    def test_apply_write_corrupts_stored_state(self):
        ram = make_ram()
        ram.inject(self.cfid(aggressor=5, victim=2))
        zero = (0,) * ram.organization.bits
        ram.write(2, zero)
        ram.write(5, zero)
        ram.write(5, (1,) * ram.organization.bits)  # 0 -> 1 transition
        assert ram.raw_word(2)[0] == 1  # victim's stored bit forced
        # and the victim's parity is now inconsistent: detectable
        assert not ram.parity_ok(2)

    def test_no_retrigger_without_transition(self):
        ram = make_ram()
        ram.inject(self.cfid(aggressor=5, victim=2))
        ones = (1,) * ram.organization.bits
        ram.write(5, ones)          # transition: forces victim
        ram.force_stored_bit(2, 0, 0)  # repair the victim by hand
        ram.write(5, ones)          # aggressor already at trigger
        assert ram.raw_word(2)[0] == 0  # no transition, no corruption

    def test_same_cell_rejected(self):
        with pytest.raises(ValueError):
            self.cfid(aggressor=4, victim=4)

    def test_campaign_engine_matrix_matches_run_march(self):
        from repro.scenarios import CampaignEngine, MemoryScenario

        scenarios = [
            MemoryScenario(faults=(self.cfid(3, 9),)),
            MemoryScenario(faults=(self.cfid(9, 3),)),
        ]
        for test in (MATS_PLUS, MARCH_C_MINUS):
            result = CampaignEngine().march(make_ram(), scenarios, test)
            for scenario, record in zip(scenarios, result.records):
                ram = make_ram()
                ram.inject(scenario.faults[0])
                assert record.detected == bool(run_march(ram, test))


def march_stream(test, words, reads_only=False):
    return Workload.march(test, words, reads_only=reads_only).address_list()


class TestAddressStream:
    def test_stream_length(self):
        words = 8
        stream = march_stream(MATS_PLUS, words)
        assert len(stream) == MATS_PLUS.complexity * words

    def test_reads_only_filter(self):
        stream = march_stream(MATS_PLUS, 4, reads_only=True)
        # w0 element contributes nothing; two r/w elements -> 1 read each
        assert len(stream) == 8

    def test_descending_elements_reverse(self):
        stream = march_stream(
            MarchTest("t", (MarchElement("-", ("r0",)),)), 4
        )
        assert stream == [3, 2, 1, 0]

    def test_stream_drives_decoder_campaign(self):
        from repro.checkers.m_out_of_n_checker import MOutOfNChecker
        from repro.codes.m_out_of_n import MOutOfNCode
        from repro.core.mapping import mapping_for_code
        from repro.faultsim.campaign import decoder_campaign
        from repro.faultsim.injector import decoder_fault_list
        from repro.rom.nor_matrix import CheckedDecoder

        checked = CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 5))
        stream = march_stream(MARCH_C_MINUS, 32)
        result = decoder_campaign(
            checked,
            MOutOfNChecker(3, 5, structural=False),
            decoder_fault_list(checked),
            stream,
            attach_analytic=False,
        )
        # a full march sweep excites and detects every decoder fault
        assert result.coverage == 1.0
