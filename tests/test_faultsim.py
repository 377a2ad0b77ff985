import pytest

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.circuits.faults import NetStuckAt
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.faultsim.campaign import (
    classify_structural_fault,
    decoder_campaign,
    scheme_campaign,
)
from repro.faultsim.injector import (
    decoder_fault_list,
    rom_fault_list,
    sample_faults,
)
from repro.memory.faults import CellStuckAt, CouplingFault
from repro.memory.march import MATS_PLUS
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.results import ResultRecord, ResultSet, describe_target
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import (
    CampaignEngine,
    MemoryScenario,
    TransientScenario,
    Workload,
)


def _uniform_addresses(n_bits, cycles, seed=0):
    return Workload.uniform(1 << n_bits, cycles, seed=seed).address_list()


@pytest.fixture(scope="module")
def checked4():
    return CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 4))


@pytest.fixture(scope="module")
def checker35():
    return MOutOfNChecker(3, 5, structural=False)


class TestInjector:
    def test_random_addresses_deterministic(self):
        assert _uniform_addresses(4, 10, seed=1) == _uniform_addresses(
            4, 10, seed=1
        )
        assert _uniform_addresses(4, 10, seed=1) != _uniform_addresses(
            4, 10, seed=2
        )

    def test_random_addresses_in_range(self):
        assert all(0 <= a < 16 for a in _uniform_addresses(4, 200))

    def test_sequential_wraps(self):
        assert Workload.sequential(4, 6).address_list() == [0, 1, 2, 3, 0, 1]
        assert Workload.sequential(4, 3, start=2).address_list() == [2, 3, 0]

    def test_burst_length_and_range(self):
        stream = Workload.bursty(16, 50, locality=4, seed=0).address_list()
        assert len(stream) == 50
        assert all(0 <= a < 16 for a in stream)

    def test_decoder_fault_list_counts(self, checked4):
        faults = decoder_fault_list(checked4)
        assert len(faults) == 2 * checked4.tree.circuit.num_gates
        with_inputs = decoder_fault_list(checked4, include_inputs=True)
        assert len(with_inputs) == len(faults) + 8

    def test_rom_fault_list(self, checked4):
        faults = rom_fault_list(checked4)
        assert len(faults) == 2 * 5

    def test_sample_faults(self, checked4):
        faults = decoder_fault_list(checked4)
        sampled = sample_faults(faults, 5, seed=1)
        assert len(sampled) == 5
        assert sample_faults(faults, None) == faults
        assert sample_faults(faults, 10_000) == faults


class TestDecoderCampaign:
    def test_full_coverage_on_long_uniform_stream(self, checked4, checker35):
        faults = decoder_fault_list(checked4)
        addresses = _uniform_addresses(4, 600, seed=5)
        result = decoder_campaign(checked4, checker35, faults, addresses)
        assert result.coverage == 1.0

    def test_sa0_zero_latency(self, checked4, checker35):
        faults = decoder_fault_list(checked4)
        addresses = _uniform_addresses(4, 300, seed=5)
        result = decoder_campaign(checked4, checker35, faults, addresses)
        for record in result.records:
            if record.kind == "sa0" and record.detected:
                assert record.latency == 0

    def test_analytic_escape_attached(self, checked4, checker35):
        faults = decoder_fault_list(checked4)[:6]
        result = decoder_campaign(
            checked4, checker35, faults, _uniform_addresses(4, 50)
        )
        assert all(r.analytic_escape is not None for r in result.records)

    def test_rom_output_faults_detected(self, checked4, checker35):
        faults = rom_fault_list(checked4)
        result = decoder_campaign(
            checked4, checker35, faults, _uniform_addresses(4, 200, seed=9)
        )
        # a ROM bit stuck flips some programmed word off-weight
        assert result.coverage == 1.0
        assert all(r.kind == "rom" for r in result.records)

    def test_classification(self, checked4):
        tree_gate = checked4.tree.circuit.gates[0]
        assert classify_structural_fault(
            checked4, NetStuckAt(tree_gate.output, 0)
        ) == "sa0"
        assert classify_structural_fault(
            checked4, NetStuckAt(checked4.rom_nets[0], 1)
        ) == "rom"
        input_net = checked4.tree.circuit.input_nets[0]
        assert classify_structural_fault(
            checked4, NetStuckAt(input_net, 1)
        ) == "address"


class TestSchemeCampaign:
    def test_end_to_end_coverage(self):
        org = MemoryOrganization(64, 8, column_mux=4)
        memory = SelfCheckingMemory.from_selection(
            org, select_code(10, 1e-9)
        )
        row_faults = sample_faults(
            decoder_fault_list(memory.row), 12, seed=2
        )
        cell_faults = [CellStuckAt(5, 1, 1), CellStuckAt(9, 0, 0)]
        addresses = _uniform_addresses(org.n, 400, seed=3)
        result = scheme_campaign(
            memory,
            addresses,
            row_faults=row_faults,
            memory_faults=cell_faults,
        )
        assert result.total == 14
        assert result.coverage > 0.8
        kinds = {r.kind for r in result.records}
        assert "memory" in kinds

    def test_writer_hook(self):
        org = MemoryOrganization(16, 4, column_mux=2)
        memory = SelfCheckingMemory.from_selection(
            org, select_code(10, 1e-9)
        )
        marker = []

        def writer(mem):
            marker.append(True)
            for a in range(mem.organization.words):
                mem.write(a, (0, 0, 0, 0))

        scheme_campaign(
            memory, [0, 1, 2], memory_faults=[CellStuckAt(0, 0, 1)],
            writer=writer,
        )
        assert marker


class TestResults:
    def make_result(self):
        result = ResultSet(cycles_simulated=100)
        result.add(ResultRecord("f1", "sa1", first_detection=0))
        result.add(ResultRecord("f2", "sa1", first_detection=7))
        result.add(ResultRecord("f3", "sa0", first_detection=None))
        return result

    def test_aggregates(self):
        result = self.make_result()
        assert result.total == 3
        assert result.detected == 2
        assert result.coverage == pytest.approx(2 / 3)
        assert result.mean_detection_cycle() == pytest.approx(3.5)
        assert result.max_detection_cycle() == 7

    def test_escape_fraction_at(self):
        result = self.make_result()
        assert result.escape_fraction_at(1) == pytest.approx(2 / 3)
        assert result.escape_fraction_at(8) == pytest.approx(1 / 3)

    def test_histogram_partitions_everything(self):
        result = self.make_result()
        hist = result.latency_histogram([1, 5, 10])
        assert sum(hist.values()) == result.total
        assert hist["undetected"] == 1

    def test_by_kind(self):
        groups = self.make_result().group_by("kind")
        assert set(groups) == {"sa0", "sa1"}
        assert groups["sa1"].total == 2

    def test_summary_keys(self):
        summary = self.make_result().summary()
        assert {"faults", "detected", "coverage"} <= set(summary)

    def test_latency_requires_first_error(self):
        record = ResultRecord("f", "sa1", first_detection=4, first_error=2)
        assert record.latency == 2
        record = ResultRecord("f", "sa1", first_detection=4)
        assert record.latency is None


ENGINES = ("vector", "serial")


def _write_coupling():
    """A write driving address 1, bit 0 to 1 forces address 2, bit 1."""
    return CouplingFault(1, 0, 2, 1, trigger=1, forced=1,
                         write_triggered=True)


def _faulted_scheme():
    """A small scheme with a behavioural fault registered on its RAM and
    a fault on each decoder, all injected before any campaign."""
    org = MemoryOrganization(16, 4, column_mux=2)
    memory = SelfCheckingMemory.from_selection(org, select_code(10, 1e-9))
    memory.inject_memory_fault(_write_coupling())
    memory.inject_row_fault(
        NetStuckAt(memory.row.tree.root.output_nets[0], 1)
    )
    memory.inject_column_fault(
        NetStuckAt(memory.column.tree.root.output_nets[0], 1)
    )
    return memory


class TestCampaignFaultState:
    """Each campaign family leaves its target the same way on both
    engines."""

    @pytest.mark.parametrize("listed", [False, True], ids=["empty", "faults"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_scheme_campaign_ends_with_no_fault_injected(
        self, engine, listed
    ):
        memory = _faulted_scheme()
        faults = {}
        if listed:
            faults = {
                "row_faults": decoder_fault_list(memory.row)[:3],
                "memory_faults": [CellStuckAt(3, 0, 1)],
            }
        scheme_campaign(
            memory, _uniform_addresses(memory.organization.n, 32, seed=1),
            engine=engine, **faults,
        )
        assert memory.ram.faults == []
        assert memory.row_faults == []
        assert memory.column_faults == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_decoder_campaign_leaves_the_checked_decoder_as_built(
        self, engine
    ):
        checked = CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 4))
        checker = MOutOfNChecker(3, 5, structural=False)
        before = describe_target(checked)
        outputs = [checked.evaluate(address) for address in range(16)]
        decoder_campaign(
            checked, checker, decoder_fault_list(checked),
            _uniform_addresses(4, 64, seed=2), engine=engine,
        )
        assert describe_target(checked) == before
        assert [checked.evaluate(a) for a in range(16)] == outputs

    @pytest.mark.parametrize("family", ["transient", "march"])
    def test_event_campaigns_refuse_a_pre_injected_fault_alike(
        self, family
    ):
        messages = set()
        for engine in ENGINES:
            ram = BehavioralRAM(MemoryOrganization(16, 8, column_mux=4))
            ram.inject(_write_coupling())
            campaign = CampaignEngine(engine=engine)
            with pytest.raises(ValueError, match="fault-free RAM") as info:
                if family == "transient":
                    campaign.transient(
                        ram,
                        [TransientScenario.single(0, bit=0, cycle=1)],
                        Workload.uniform(16, 32, seed=1),
                    )
                else:
                    campaign.march(
                        ram, [MemoryScenario(CellStuckAt(0, 0, 1))],
                        MATS_PLUS,
                    )
            messages.add(str(info.value))
            assert len(ram.faults) == 1
        assert len(messages) == 1
