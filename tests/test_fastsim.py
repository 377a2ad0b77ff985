"""The fast campaign path (the vector engine, the default) vs the serial
oracle: record-level bit-identity, plus the lane-array circuit
evaluator against the serial Circuit.evaluate."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers.base import Checker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.circuits.faults import (
    NetStuckAt,
    PinStuckAt,
    enumerate_stuck_at_faults,
)
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.parallel import (
    VectorCircuit,
    lane_mask,
    pack_bool,
    unpack_lanes,
)
from repro.circuits.simulator import (
    coverage,
    detects,
    fault_free_responses,
    first_difference,
)
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.faultsim.campaign import decoder_campaign, scheme_campaign
from repro.faultsim.vectorsim import _pack_values
from repro.faultsim.injector import (
    decoder_fault_list,
    rom_fault_list,
    sample_faults,
)
from repro.memory.faults import (
    CellStuckAt,
    CouplingFault,
    DataLineStuckAt,
    MuxLineStuckAt,
)
from repro.memory.organization import MemoryOrganization
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import Workload


def _uniform_addresses(n_bits, cycles, seed=0):
    """Uniform stimulus via the canonical Workload."""
    return Workload.uniform(1 << n_bits, cycles, seed=seed).address_list()


def record_key(result):
    return [
        (
            str(r.fault),
            r.kind,
            r.first_detection,
            r.first_error,
            r.analytic_escape,
        )
        for r in result.records
    ]


@pytest.fixture(scope="module")
def checked4():
    return CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 4))


@pytest.fixture(scope="module")
def checker35():
    return MOutOfNChecker(3, 5, structural=False)


class TestPackedCircuit:
    """The lane-array evaluator (faults x packed cycle lanes) is
    lane-exact vs the serial Circuit.evaluate, fault by fault."""

    @staticmethod
    def random_circuit(seed, inputs=4, gates=14):
        rng = random.Random(seed)
        c = Circuit(f"random{seed}")
        nets = c.add_inputs([f"x{i}" for i in range(inputs)])
        pool = list(nets)
        choices = [
            GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
            GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
        ]
        for _ in range(gates):
            gate_type = rng.choice(choices)
            if gate_type in (GateType.NOT, GateType.BUF):
                ins = (rng.choice(pool),)
            else:
                ins = tuple(
                    rng.choice(pool) for _ in range(rng.randint(2, 3))
                )
            pool.append(c.add_gate(gate_type, ins))
        c.add_gate(GateType.CONST1, ())
        pool.append(c.add_gate(GateType.CONST0, ()))
        for net in pool[-4:]:
            c.mark_output(net)
        return c

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_evaluate_packed_for_every_fault(self, seed):
        self._evaluate_matches_packed(seed, lambda faults: [faults])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_evaluate_packed_one_fault_per_batch(self, seed):
        # a lone fault runs only the gates it reaches (pin faults on
        # wide gates included); every other net keeps its golden row
        self._evaluate_matches_packed(
            seed, lambda faults: [[fault] for fault in faults]
        )

    def _evaluate_matches_packed(self, seed, batches):
        """Every fault's output lanes from ``evaluate`` over the fault
        batches ``batches(faults)`` equal the serial ``Circuit.evaluate``
        responses, and each output is consumed once per batch."""
        circuit = self.random_circuit(seed)
        rng = random.Random(100 + seed)
        stimuli = [
            tuple(rng.randint(0, 1) for _ in range(len(circuit.input_nets)))
            for _ in range(33)
        ]
        faults = enumerate_stuck_at_faults(
            circuit, include_inputs=True, include_pins=True
        )
        assert_lane_exact(circuit, stimuli, batches(faults))

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        inputs=st.integers(1, 6),
        gates=st.integers(1, 20),
        lanes=st.integers(1, 130),
        batch=st.integers(1, 8),
    )
    def test_random_netlists_match_serial(
        self, seed, inputs, gates, lanes, batch
    ):
        # random netlists, stimulus counts that straddle lane words and
        # fault batches of any size, against the serial oracle
        circuit = self.random_circuit(seed, inputs=inputs, gates=gates)
        rng = random.Random(seed)
        stimuli = [
            tuple(rng.randint(0, 1) for _ in range(inputs))
            for _ in range(lanes)
        ]
        faults = enumerate_stuck_at_faults(
            circuit, include_inputs=True, include_pins=True
        )
        faults = rng.sample(faults, min(len(faults), 24))
        assert_lane_exact(
            circuit,
            stimuli,
            [faults[i : i + batch] for i in range(0, len(faults), batch)],
        )

    def test_golden_pass_matches_evaluate_packed(self, checked4):
        addresses = _uniform_addresses(4, 40, seed=9)
        golden = VectorCircuit(checked4.circuit).golden(
            _pack_values(np.asarray(addresses), checked4.n),
            lane_mask(len(addresses)),
        )
        outputs = checked4.circuit.output_nets
        got = unpack_lanes(golden[list(outputs)], len(addresses)).T
        for address, lane in zip(addresses, got.astype(int).tolist()):
            stimulus = [(address >> bit) & 1 for bit in range(checked4.n)]
            assert tuple(lane) == checked4.circuit.evaluate(stimulus)


def assert_lane_exact(circuit, stimuli, batches):
    """Run each fault batch through one evaluator over the packed
    stimuli; every fault's output lanes must equal its serial
    responses, and each output must be consumed exactly once."""
    mask = lane_mask(len(stimuli))
    sim = VectorCircuit(circuit)
    golden = sim.golden(
        pack_bool(np.asarray(stimuli, dtype=np.uint8).T), mask
    )
    for batch in batches:
        outputs = {}

        def consume(net, rows):
            assert net not in outputs
            outputs[net] = np.broadcast_to(rows, (len(batch),) + mask.shape)

        sim.evaluate(golden, batch, mask, consume)
        assert set(outputs) == set(circuit.output_nets)
        lanes = np.stack(
            [outputs[net] for net in circuit.output_nets], axis=1
        )  # (F, outputs, W)
        got = unpack_lanes(lanes, len(stimuli)).astype(int)
        for row, fault in enumerate(batch):
            expected = [
                circuit.evaluate(stimulus, faults=(fault,))
                for stimulus in stimuli
            ]
            assert [tuple(r) for r in got[row].T.tolist()] == expected, (
                fault
            )


class TestDecoderCampaignEquivalence:
    @pytest.mark.parametrize("collapse", [True, False])
    def test_net_rom_pin_and_input_faults(
        self, checked4, checker35, collapse
    ):
        faults = (
            decoder_fault_list(checked4)
            + rom_fault_list(checked4)
            + enumerate_stuck_at_faults(
                checked4.circuit, include_inputs=True, include_pins=True
            )
        )
        addresses = _uniform_addresses(4, 220, seed=5)
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial"
        )
        fast = decoder_campaign(
            checked4, checker35, faults, addresses, collapse=collapse
        )
        assert record_key(serial) == record_key(fast)
        assert serial.engine == "serial" and fast.engine == "vector"

    @pytest.mark.parametrize(
        "stream_factory",
        [
            lambda: Workload.sequential(16, 48).address_list(),
            lambda: Workload.bursty(
                16, 64, locality=4, seed=2
            ).address_list(),
            lambda: [3] * 32,  # pathological: one address repeated
        ],
    )
    def test_stream_shapes(self, checked4, checker35, stream_factory):
        faults = decoder_fault_list(checked4)
        addresses = stream_factory()
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial",
            attach_analytic=False,
        )
        fast = decoder_campaign(
            checked4, checker35, faults, addresses, attach_analytic=False
        )
        assert record_key(serial) == record_key(fast)

    def test_empty_stream_and_empty_fault_list(self, checked4, checker35):
        faults = decoder_fault_list(checked4)[:4]
        fast = decoder_campaign(
            checked4, checker35, faults, [], attach_analytic=False
        )
        serial = decoder_campaign(
            checked4, checker35, faults, [], engine="serial",
            attach_analytic=False,
        )
        assert record_key(serial) == record_key(fast)
        assert all(r.first_detection is None for r in fast.records)
        empty = decoder_campaign(
            checked4, checker35, [], _uniform_addresses(4, 16),
            attach_analytic=False,
        )
        assert empty.total == 0

    def test_workers_shard_matches_serial(self, checked4, checker35):
        faults = decoder_fault_list(checked4)
        addresses = _uniform_addresses(4, 120, seed=8)
        sharded = decoder_campaign(
            checked4, checker35, faults, addresses, workers=2,
            attach_analytic=False,
        )
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial",
            attach_analytic=False,
        )
        assert record_key(serial) == record_key(sharded)

    def test_duplicate_faults_in_list(self, checked4, checker35):
        fault = decoder_fault_list(checked4)[3]
        faults = [fault, fault, fault]
        addresses = _uniform_addresses(4, 60, seed=1)
        serial = decoder_campaign(
            checked4, checker35, faults, addresses, engine="serial",
            attach_analytic=False,
        )
        fast = decoder_campaign(
            checked4, checker35, faults, addresses, attach_analytic=False
        )
        assert record_key(serial) == record_key(fast)
        assert fast.total == 3

    def test_unknown_engine_rejected(self, checked4, checker35):
        with pytest.raises(ValueError):
            decoder_campaign(
                checked4, checker35, [], [], engine="quantum"
            )


class _MembershipChecker(Checker):
    """Plugin-style checker (no packed override): generic fallback path."""

    def __init__(self, mapping):
        self.input_width = mapping.rom_width
        self._words = {
            mapping.codeword(a) for a in range(1 << mapping.n_bits)
        }

    def indication(self, word):
        return (1, 0) if tuple(word) in self._words else (1, 1)


def test_plugin_checker_campaign_matches_serial(checked4):
    checker = _MembershipChecker(checked4.mapping)
    faults = decoder_fault_list(checked4)
    addresses = _uniform_addresses(4, 150, seed=13)
    serial = decoder_campaign(
        checked4, checker, faults, addresses, engine="serial",
        attach_analytic=False,
    )
    fast = decoder_campaign(
        checked4, checker, faults, addresses, attach_analytic=False
    )
    assert record_key(serial) == record_key(fast)


class TestSchemeCampaignEquivalence:
    def build_memory(self, structural=False):
        org = MemoryOrganization(64, 8, column_mux=4)
        return SelfCheckingMemory.from_selection(
            org, select_code(10, 1e-9), structural_checkers=structural
        )

    MEMORY_FAULTS = [
        CellStuckAt(5, 1, 1),
        CellStuckAt(9, 0, 0),
        DataLineStuckAt(3, 1),
        MuxLineStuckAt(2, 0, 0),
        CouplingFault(3, 0, 40, 1),
    ]

    @pytest.mark.parametrize("structural", [False, True])
    def test_all_fault_kinds_match_serial(self, structural):
        serial_memory = self.build_memory(structural)
        fast_memory = self.build_memory(structural)
        row_faults = decoder_fault_list(serial_memory.row) + [
            PinStuckAt(gate.index, pin, value)
            for gate in serial_memory.row.tree.circuit.gates[:10]
            for pin in range(len(gate.inputs))
            for value in (0, 1)
        ]
        column_faults = sample_faults(
            decoder_fault_list(serial_memory.column), 10, seed=4
        )
        addresses = _uniform_addresses(
            serial_memory.organization.n, 250, seed=3
        )
        serial = scheme_campaign(
            serial_memory, addresses, row_faults=row_faults,
            column_faults=column_faults, memory_faults=self.MEMORY_FAULTS,
            engine="serial",
        )
        fast = scheme_campaign(
            fast_memory, addresses, row_faults=row_faults,
            column_faults=column_faults, memory_faults=self.MEMORY_FAULTS,
        )
        key = lambda res: [
            (str(r.fault), r.kind, r.first_detection) for r in res.records
        ]
        assert key(serial) == key(fast)

    def test_adversarial_writer_with_corrupt_contents(self):
        """A writer that leaves non-code words in the array: the vector
        engine's fault-free rejection words must mirror serial."""

        def corrupting_writer(memory):
            for address in range(memory.organization.words):
                memory.write(address, (address & 1,) * 8)
            # leave a few stored words off the parity code
            for address in (0, 17, 33):
                memory.ram.flip_stored_bit(address, 2)

        serial_memory = self.build_memory()
        fast_memory = self.build_memory()
        row_faults = sample_faults(
            decoder_fault_list(serial_memory.row), 14, seed=6
        )
        addresses = _uniform_addresses(
            serial_memory.organization.n, 200, seed=11
        )
        serial = scheme_campaign(
            serial_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS[:2],
            writer=corrupting_writer, engine="serial",
        )
        fast = scheme_campaign(
            fast_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS[:2],
            writer=corrupting_writer,
        )
        key = lambda res: [
            (str(r.fault), r.kind, r.first_detection) for r in res.records
        ]
        assert key(serial) == key(fast)

    def test_workers_shard_matches_serial(self):
        serial_memory = self.build_memory()
        fast_memory = self.build_memory()
        row_faults = sample_faults(
            decoder_fault_list(serial_memory.row), 12, seed=2
        )
        addresses = _uniform_addresses(
            serial_memory.organization.n, 150, seed=5
        )
        serial = scheme_campaign(
            serial_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS, engine="serial",
        )
        sharded = scheme_campaign(
            fast_memory, addresses, row_faults=row_faults,
            memory_faults=self.MEMORY_FAULTS, workers=2,
        )
        key = lambda res: [
            (str(r.fault), r.kind, r.first_detection) for r in res.records
        ]
        assert key(serial) == key(sharded)


class TestSimulatorEngines:
    def build_circuit(self):
        c = Circuit("sim")
        a, b, d = c.add_inputs(["a", "b", "d"])
        x = c.add_gate(GateType.XOR, (a, b))
        y = c.add_gate(GateType.AND, (x, d))
        z = c.add_gate(GateType.NOR, (a, y))
        c.mark_output(y)
        c.mark_output(z)
        return c

    def all_stimuli(self):
        return list(itertools.product((0, 1), repeat=3))

    def test_fault_free_responses_engines_agree(self):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        assert fault_free_responses(c, stimuli) == fault_free_responses(
            c, stimuli, engine="serial"
        )

    def test_first_difference_engines_agree(self):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        golden = fault_free_responses(c, stimuli)
        for fault in enumerate_stuck_at_faults(
            c, include_inputs=True, include_pins=True
        ):
            serial = first_difference(
                c, fault, stimuli, engine="serial"
            )
            assert first_difference(c, fault, stimuli) == serial
            assert (
                first_difference(c, fault, stimuli, golden=golden)
                == serial
            )

    def test_detects_and_coverage_engines_agree(self):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        checker = lambda response: response != (1, 0)
        faults = enumerate_stuck_at_faults(
            c, include_inputs=True, include_pins=True
        )
        for fault in faults:
            assert detects(c, fault, stimuli, checker) == detects(
                c, fault, stimuli, checker, engine="serial"
            )
        packed = coverage(c, faults, stimuli, checker)
        serial = coverage(c, faults, stimuli, checker, engine="serial")
        assert packed["coverage"] == serial["coverage"]
        assert packed["first_detection"] == serial["first_detection"]
        assert packed["undetected"] == serial["undetected"]

    @pytest.mark.parametrize("engine", ["vector", "serial"])
    def test_first_difference_rejects_mismatched_golden(self, engine):
        c = self.build_circuit()
        stimuli = self.all_stimuli()
        golden = fault_free_responses(c, stimuli)
        fault = NetStuckAt(c.gates[0].output, 1)
        for short in (golden[:-1], golden[:2]):
            with pytest.raises(ValueError, match="golden has"):
                first_difference(
                    c, fault, stimuli, golden=short, engine=engine
                )

    @pytest.mark.parametrize("engine", ["vector", "serial"])
    def test_coverage_counts_repeated_faults(self, engine):
        # concatenated fault lists repeat faults: every count is per
        # list entry, so an undetected fault listed twice is two misses
        c = Circuit("and")
        a, b = c.add_inputs(["a", "b"])
        c.mark_output(c.add_gate(GateType.AND, (a, b)))
        fault = NetStuckAt(c.gates[0].output, 1)
        stimuli = list(itertools.product((0, 1), repeat=2))
        report = coverage(
            c, [fault, fault], stimuli, lambda r: True, engine=engine
        )
        assert report["total"] == 2
        assert report["detected"] == 0
        assert report["undetected"] == [fault, fault]
        assert report["coverage"] == 0.0
        assert report["first_detection"] == {fault: None}

    def test_empty_stimuli(self):
        c = self.build_circuit()
        fault = NetStuckAt(c.gates[0].output, 1)
        assert first_difference(c, fault, []) is None
        assert detects(c, fault, [], lambda r: True) is None
        report = coverage(c, [fault], [], lambda r: True)
        assert report["coverage"] == 0.0


class TestDesignEngineEmpirical:
    def test_evaluate_attaches_empirical_report(self):
        from repro.design import DesignEngine, DesignSpec
        from repro.design.report import DesignReport

        spec = DesignSpec(words=256, bits=8, c=10, pndc=1e-9)
        engine = DesignEngine()
        report = engine.evaluate(spec, empirical=True, empirical_cycles=128)
        emp = report.empirical
        assert emp is not None
        assert emp.engine == "vector"
        assert emp.faults > 0 and emp.cycles == 128
        assert 0.0 <= emp.coverage <= 1.0
        assert "empirical validation" in report.render()
        # round-trips through dict/json with the empirical section
        clone = DesignReport.from_dict(report.to_dict())
        assert clone.empirical == emp
        # evaluate without the hook stays lean
        assert engine.evaluate(spec).empirical is None

    def test_empirical_engines_agree(self):
        from repro.design import DesignEngine, DesignSpec

        spec = DesignSpec(words=256, bits=8, c=10, pndc=1e-9)
        engine = DesignEngine()
        fast = engine.empirical(spec, cycles=128)
        serial = engine.empirical(spec, cycles=128, engine="serial")
        for field in (
            "faults", "detected", "coverage", "mean_detection_cycle",
            "max_detection_cycle", "escape_fraction_at_c",
            "zero_latency_sa0",
        ):
            assert getattr(fast, field) == getattr(serial, field), field


class TestCampaignCLI:
    def test_latency_json_reports_throughput(self, capsys):
        from repro.cli import main

        assert main(["latency", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "vector"
        assert payload["wall_time_s"] > 0
        assert payload["campaign"]["faults"] > 0
        assert payload["campaign"]["faults_per_sec"] > 0

    def test_report_empirical_json(self, capsys):
        from repro.cli import main

        assert main([
            "report", "--words", "256", "--bits", "8", "-c", "10",
            "-p", "1e-9", "--empirical", "--empirical-cycles", "64",
            "--json",
        ]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["empirical"]["cycles"] == 64
        assert payload["empirical"]["engine"] == "vector"

    def test_serial_flag_round_trip(self, capsys):
        from repro.cli import main

        assert main(["latency", "--engine", "serial", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "serial"
        assert payload["campaign"]["engine"] == "serial"

    def test_workers_with_serial_engine_rejected(self, capsys):
        from repro.cli import main

        assert main(
            ["latency", "--engine", "serial", "--workers", "2"]
        ) == 1
        assert "--workers requires the vector engine" in (
            capsys.readouterr().err
        )
