"""Lane-exact equivalence of the lane evaluator with the serial one."""

import itertools
import random

import numpy as np
import pytest

from repro.circuits.faults import NetStuckAt, PinStuckAt
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.parallel import (
    VectorCircuit,
    lane_mask,
    pack_bool,
    unpack_lanes,
)
from repro.circuits.simulator import fault_free_responses


def build_mixed_circuit():
    c = Circuit("mixed")
    a, b, d = c.add_inputs(["a", "b", "d"])
    n1 = c.add_gate(GateType.AND, (a, b))
    n2 = c.add_gate(GateType.NOR, (b, d, n1))
    n3 = c.add_gate(GateType.XOR, (a, n2))
    n4 = c.add_gate(GateType.NAND, (n1, n3))
    n5 = c.add_gate(GateType.NOT, (n4,))
    n6 = c.add_gate(GateType.XNOR, (n5, d))
    n7 = c.add_gate(GateType.OR, (n6, n2))
    n8 = c.add_gate(GateType.BUF, (n7,))
    one = c.add_gate(GateType.CONST1, ())
    n9 = c.add_gate(GateType.AND, (n8, one))
    c.mark_output(n3)
    c.mark_output(n9)
    return c


def lane_outputs(circuit, stimuli, fault=None):
    """Per-stimulus outputs of the lane evaluator, under ``fault``."""
    bits = np.asarray(stimuli, dtype=np.uint8)
    mask = lane_mask(len(bits))
    sim = VectorCircuit(circuit)
    golden = sim.golden(pack_bool(bits.T), mask)
    rows = {net: golden[net] for net in circuit.output_nets}
    if fault is not None:

        def consume(net, words):
            rows[net] = np.broadcast_to(words, (1,) + mask.shape)[0]

        sim.evaluate(golden, [fault], mask, consume)
    outputs = np.stack([rows[net] for net in circuit.output_nets])
    lanes = unpack_lanes(outputs, len(bits)).T.astype(np.uint8)
    return [tuple(row) for row in lanes.tolist()]


class TestPacking:
    def test_pack_validation(self):
        c = build_mixed_circuit()
        assert fault_free_responses(c, []) == []
        with pytest.raises(ValueError):
            fault_free_responses(c, [(1, 0, 0), (1, 0)])
        with pytest.raises(ValueError):
            fault_free_responses(c, [(1, 0)])
        with pytest.raises(ValueError):
            fault_free_responses(c, [(2, 0, 0)])


class TestEquivalence:
    def test_fault_free_all_lanes(self):
        c = build_mixed_circuit()
        stimuli = list(itertools.product((0, 1), repeat=3))
        outs = lane_outputs(c, stimuli)
        for stimulus, out in zip(stimuli, outs):
            assert out == c.evaluate(stimulus)

    @pytest.mark.parametrize("seed", range(4))
    def test_with_random_faults(self, seed):
        rng = random.Random(seed)
        c = build_mixed_circuit()
        stimuli = list(itertools.product((0, 1), repeat=3))
        for _ in range(10):
            if rng.random() < 0.5:
                gate = rng.choice(c.gates)
                fault = NetStuckAt(gate.output, rng.randint(0, 1))
            else:
                gate = rng.choice([g for g in c.gates if g.inputs])
                fault = PinStuckAt(
                    gate.index,
                    rng.randrange(len(gate.inputs)),
                    rng.randint(0, 1),
                )
            outs = lane_outputs(c, stimuli, fault)
            for stimulus, out in zip(stimuli, outs):
                assert out == c.evaluate(stimulus, faults=(fault,)), fault

    def test_input_stuck_at(self):
        c = build_mixed_circuit()
        stimuli = [(0, 0, 0), (1, 1, 1)]
        fault = NetStuckAt(c.input_nets[0], 1)
        outs = lane_outputs(c, stimuli, fault)
        for stimulus, out in zip(stimuli, outs):
            assert out == c.evaluate(stimulus, faults=(fault,))

    def test_validation(self):
        # the retired bigint engine is an unknown engine like any other
        c = build_mixed_circuit()
        with pytest.raises(ValueError, match="engine must be one of"):
            fault_free_responses(c, [(0, 0, 0)], engine="packed")


class TestPackedRomWords:
    def test_matches_serial_checked_decoder(self):
        from repro.codes.m_out_of_n import MOutOfNCode
        from repro.core.mapping import mapping_for_code
        from repro.rom.nor_matrix import CheckedDecoder

        checked = CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 5))
        addresses = [3, 17, 0, 31, 8, 8, 25]
        fault = NetStuckAt(checked.tree.root.output_nets[6], 1)
        stimuli = [
            [(address >> bit) & 1 for bit in range(checked.n)]
            for address in addresses
        ]
        outputs = lane_outputs(checked.circuit, stimuli, fault)
        for address, out in zip(addresses, outputs):
            word = out[1 << checked.n :]
            assert word == checked.rom_word(address, faults=(fault,))

    def test_whole_stream_in_one_pass(self):
        from repro.codes.m_out_of_n import MOutOfNCode
        from repro.core.mapping import mapping_for_code
        from repro.rom.nor_matrix import CheckedDecoder

        checked = CheckedDecoder(mapping_for_code(MOutOfNCode(2, 4), 4))
        addresses = list(range(16)) * 4
        stimuli = [
            [(address >> bit) & 1 for bit in range(checked.n)]
            for address in addresses
        ]
        words = [
            response[1 << checked.n :]
            for response in fault_free_responses(checked.circuit, stimuli)
        ]
        assert len(words) == 64
        assert all(
            w == checked.expected_word(a) for a, w in zip(addresses, words)
        )
