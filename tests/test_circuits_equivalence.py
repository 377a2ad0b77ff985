"""Fault-collapsing tests, including a behavioural-equivalence proof."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.equivalence import (
    collapse_faults,
    representative_faults,
)
from repro.circuits.faults import NetStuckAt, enumerate_stuck_at_faults
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit


def inverter_chain(length):
    c = Circuit("chain")
    net = c.add_input("a")
    for i in range(length):
        net = c.add_gate(GateType.NOT, (net,), name=f"inv{i}")
    c.mark_output(net)
    return c


def and_gate():
    c = Circuit("and2")
    a = c.add_input("a")
    b = c.add_input("b")
    c.mark_output(c.add_gate(GateType.AND, (a, b)))
    return c


def random_circuit(seed, inputs=3, gates=8):
    rng = random.Random(seed)
    c = Circuit(f"random{seed}")
    nets = c.add_inputs([f"x{i}" for i in range(inputs)])
    pool = list(nets)
    choices = [
        GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
        GateType.XOR, GateType.NOT,
    ]
    for _ in range(gates):
        gate_type = rng.choice(choices)
        if gate_type is GateType.NOT:
            ins = (rng.choice(pool),)
        else:
            ins = (rng.choice(pool), rng.choice(pool))
        pool.append(c.add_gate(gate_type, ins))
    c.mark_output(pool[-1])
    c.mark_output(pool[-2])
    return c


class TestCollapseStructure:
    def test_inverter_chain_collapses_hard(self):
        # every fault along a chain is equivalent to one of 2 classes
        c = inverter_chain(5)
        classes = collapse_faults(c)
        assert classes.num_classes == 2
        assert classes.total == 2 + 5 * 2 + 5 * 2  # stems + outputs + pins

    def test_and_gate_classes(self):
        c = and_gate()
        classes = collapse_faults(c)
        # universe: 2 inputs*2 + 1 output*2 + 2 pins*2 = 10 faults.
        # inputs are single-reader: stem ≡ pin.  pin sa0 ≡ out sa0.
        # classes: {a/0, pinA/0, b/0, pinB/0, out/0}, {a/1,pinA/1},
        # {b/1,pinB/1}, {out/1} -> 4 classes
        assert classes.num_classes == 4
        assert classes.collapse_ratio == pytest.approx(0.4)

    def test_representatives_one_per_class(self):
        c = and_gate()
        reps = representative_faults(c)
        assert len(reps) == collapse_faults(c).num_classes

    def test_restricted_fault_set(self):
        from repro.circuits.faults import NetStuckAt

        c = and_gate()
        subset = [
            NetStuckAt(c.gates[0].output, 0),
            NetStuckAt(c.input_nets[0], 0),
        ]
        classes = collapse_faults(c, subset)
        # both belong to the big sa0 class -> one class
        assert classes.num_classes == 1
        assert classes.total == 2

    def test_class_of_lookup(self):
        from repro.circuits.faults import NetStuckAt

        c = and_gate()
        classes = collapse_faults(c)
        cls = classes.class_of(NetStuckAt(c.gates[0].output, 0))
        assert len(cls) >= 5
        with pytest.raises(KeyError):
            classes.class_of(NetStuckAt(999, 0))


class TestBehaviouralEquivalence:
    """Collapsed classes must be *functionally* indistinguishable."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits(self, seed):
        c = random_circuit(seed)
        classes = collapse_faults(c)
        vectors = list(itertools.product((0, 1), repeat=len(c.input_nets)))
        for cls in classes.classes:
            signatures = set()
            for fault in cls:
                signature = tuple(
                    c.evaluate(v, faults=(fault,)) for v in vectors
                )
                signatures.add(signature)
            assert len(signatures) == 1, cls

    def test_decoder_tree_collapse_ratio(self):
        from repro.decoder.tree import DecoderTree

        tree = DecoderTree(4)
        classes = collapse_faults(tree.circuit)
        # AND-tree structure collapses a large share of the faults
        assert classes.collapse_ratio < 0.7

    def test_decoder_tree_classes_equivalent(self):
        from repro.decoder.tree import DecoderTree

        tree = DecoderTree(3)
        classes = collapse_faults(tree.circuit)
        vectors = list(itertools.product((0, 1), repeat=3))
        for cls in classes.classes:
            signatures = {
                tuple(tree.circuit.evaluate(v, faults=(f,)) for v in vectors)
                for f in cls
            }
            assert len(signatures) == 1


# -- restricted lists: the skip is never visible ------------------------------

GATE_TYPES = [
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR, GateType.XOR,
    GateType.XNOR, GateType.NOT, GateType.BUF, GateType.CONST0,
    GateType.CONST1,
]


@st.composite
def collapse_cases(draw):
    """A random netlist (every gate type, duplicate pins, random
    outputs) and a fault list drawn from its universe: stems only (the
    lists that may skip the union-find) or stems and pins, with
    duplicates."""
    circuit = Circuit("generated")
    pool = circuit.add_inputs(
        [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    )
    for _ in range(draw(st.integers(1, 14))):
        gate_type = draw(st.sampled_from(GATE_TYPES))
        if gate_type in (GateType.CONST0, GateType.CONST1):
            arity = 0
        elif gate_type in (GateType.NOT, GateType.BUF):
            arity = 1
        else:
            arity = draw(st.integers(2, 4))
        inputs = draw(st.lists(st.sampled_from(pool), min_size=arity,
                               max_size=arity))
        pool.append(circuit.add_gate(gate_type, inputs))
    for net in draw(st.lists(st.sampled_from(pool), max_size=4)):
        circuit.mark_output(net)
    universe = enumerate_stuck_at_faults(circuit, include_pins=True)
    if draw(st.booleans()):
        universe = [f for f in universe if isinstance(f, NetStuckAt)]
    faults = draw(st.lists(st.sampled_from(universe), max_size=24))
    return circuit, faults


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=collapse_cases())
def test_restricted_collapse_is_the_full_partition_restricted(case):
    """``collapse_faults(c, faults)`` (which may skip the union-find)
    equals the full-universe partition restricted to ``faults``: the
    same classes, in first-occurrence order, with first-listed
    representatives, over the distinct keys."""
    circuit, faults = case
    full = collapse_faults(circuit)
    class_of = {
        fault.key(): index
        for index, cls in enumerate(full.classes)
        for fault in cls
    }
    expected = {}
    for fault in faults:
        members = expected.setdefault(class_of[fault.key()], [])
        if fault.key() not in [member.key() for member in members]:
            members.append(fault)
    got = collapse_faults(circuit, faults)
    assert [[f.key() for f in cls] for cls in got.classes] == [
        [f.key() for f in cls] for cls in expected.values()
    ]
    assert got.total == len({fault.key() for fault in faults})


def test_stem_lists_of_a_checked_decoder_skip_and_pins_still_merge():
    """The paper's stem-only lists are all singletons; adding the pin
    faults brings the merges back."""
    from repro.codes.m_out_of_n import MOutOfNCode
    from repro.core.mapping import mapping_for_code
    from repro.faultsim.injector import decoder_fault_list
    from repro.rom.nor_matrix import CheckedDecoder

    checked = CheckedDecoder(mapping_for_code(MOutOfNCode(2, 5), 5))
    stems = decoder_fault_list(checked)
    classes = collapse_faults(checked.circuit, stems + stems[:3])
    assert classes.num_classes == classes.total == len(stems)
    with_pins = enumerate_stuck_at_faults(checked.circuit, include_pins=True)
    merged = collapse_faults(checked.circuit, with_pins)
    assert merged.num_classes < merged.total == len(with_pins)
