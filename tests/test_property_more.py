"""Second batch of property-based tests: new substrates and invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.equivalence import collapse_faults
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.codes.m_out_of_n import MOutOfNCode
from repro.codes.unordered import bitwise_and
from repro.core.deterministic import worst_case_latency_for_site
from repro.core.mapping import ModAMapping
from repro.memory.march import (
    MARCH_C_MINUS,
    MATS_PLUS,
    run_march,
)
from repro.memory.faults import CellStuckAt
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.rom.nor_matrix import NORMatrix
from repro.scenarios import Workload


def _random_circuit(rng_choices, inputs=3):
    circuit = Circuit("prop")
    nets = list(circuit.add_inputs([f"x{i}" for i in range(inputs)]))
    pool = list(nets)
    gate_types = [
        GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
        GateType.XOR, GateType.NOT,
    ]
    for choice in rng_choices:
        gate_type = gate_types[choice[0] % len(gate_types)]
        if gate_type is GateType.NOT:
            ins = (pool[choice[1] % len(pool)],)
        else:
            ins = (
                pool[choice[1] % len(pool)],
                pool[choice[2] % len(pool)],
            )
        pool.append(circuit.add_gate(gate_type, ins))
    circuit.mark_output(pool[-1])
    return circuit


class TestCollapseSoundness:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 30), st.integers(0, 30)
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=4000)
    def test_classes_are_functionally_equivalent(self, choices):
        circuit = _random_circuit(choices)
        classes = collapse_faults(circuit)
        vectors = list(itertools.product((0, 1), repeat=3))
        for cls in classes.classes:
            signatures = {
                tuple(circuit.evaluate(v, faults=(f,)) for v in vectors)
                for f in cls
            }
            assert len(signatures) == 1


class TestNorMatrixProperties:
    @given(st.data())
    @settings(max_examples=50)
    def test_multi_select_is_and_of_singles(self, data):
        code = MOutOfNCode(3, 5)
        num_lines = data.draw(st.integers(min_value=2, max_value=8))
        rows = [
            code.word_at(data.draw(st.integers(0, 9)))
            for _ in range(num_lines)
        ]
        matrix = NORMatrix(rows)
        active = data.draw(
            st.lists(
                st.integers(0, num_lines - 1),
                min_size=1,
                max_size=num_lines,
                unique=True,
            )
        )
        merged = matrix.output_for_lines(active)
        expected = rows[active[0]]
        for line in active[1:]:
            expected = bitwise_and(expected, rows[line])
        assert merged == expected

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=20)
    def test_empty_selection_is_all_ones(self, num_lines):
        code = MOutOfNCode(2, 4)
        rows = [code.word_at(i % 6) for i in range(num_lines)]
        assert NORMatrix(rows).output_for_lines(()) == (1, 1, 1, 1)


class TestDeterministicBoundProperties:
    @given(
        st.integers(min_value=3, max_value=6),
        st.data(),
    )
    @settings(max_examples=40, deadline=4000)
    def test_bound_positive_and_within_period(self, n_bits, data):
        mapping = ModAMapping(MOutOfNCode(3, 5), n_bits, complete=False)
        width = data.draw(st.integers(1, n_bits))
        lo = data.draw(st.integers(0, n_bits - width))
        m1 = data.draw(st.integers(0, (1 << width) - 1))
        stuck = data.draw(st.sampled_from([0, 1]))
        latency = worst_case_latency_for_site(
            mapping, lo, width, m1, stuck
        )
        period = 1 << n_bits
        if latency is not None:
            assert 1 <= latency <= period

    @given(st.integers(min_value=3, max_value=6), st.data())
    @settings(max_examples=30, deadline=4000)
    def test_sa0_bound_is_exactly_the_excitation_period(self, n_bits, data):
        mapping = ModAMapping(MOutOfNCode(3, 5), n_bits, complete=False)
        width = data.draw(st.integers(1, n_bits))
        lo = data.draw(st.integers(0, n_bits - width))
        m1 = data.draw(st.integers(0, (1 << width) - 1))
        latency = worst_case_latency_for_site(mapping, lo, width, m1, 0)
        # excitations (bits[lo, lo+width) == m1) come in runs of 2^lo
        # consecutive addresses repeating every 2^(lo+width): the worst
        # gap between consecutive excitations is the span between the end
        # of one run and the start of the next, plus one.
        assert latency == (1 << (lo + width)) - (1 << lo) + 1


class TestMarchProperties:
    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0, 1]),
    )
    @settings(max_examples=40, deadline=4000)
    def test_march_c_minus_detects_any_cell_stuck_at(self, address, bit, value):
        ram = BehavioralRAM(MemoryOrganization(32, 4, column_mux=2))
        ram.inject(CellStuckAt(address, bit, value))
        assert run_march(ram, MARCH_C_MINUS)

    @given(st.sampled_from([MATS_PLUS, MARCH_C_MINUS]))
    @settings(max_examples=10)
    def test_stream_length_is_complexity_times_words(self, test):
        words = 16
        stream = Workload.march(test, words).address_list()
        assert len(stream) == test.complexity * words
        assert all(0 <= a < words for a in stream)
