"""Terminal faults — faults that force one net whose only readers are
wide gates whose output nothing reads (the ROM columns) — are computed
in bulk by the vector engine, without a gate-by-gate traversal.  Their
records must equal the serial oracle's and the gate-by-gate path's:
generated checked decoders and fault lists, hand-built netlists at each
edge of the classification, the bulk words against the serial
evaluator on random netlists, and pinned terminal counts on the paper's
row decoders."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers.base import Checker
from repro.circuits import parallel
from repro.circuits.faults import FaultBase, NetStuckAt, PinStuckAt
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.parallel import (
    VectorCircuit,
    lane_mask,
    pack_bool,
    unpack_lanes,
)
from repro.core.mapping import AddressMapping, ModAMapping
from repro.core.scheme import SelfCheckingMemory
from repro.decoder.flat import FlatDecoder
from repro.design.engine import DesignEngine
from repro.design.registry import (
    build_mapping,
    checker_for,
    mapping_for_code,
    resolve_code,
)
from repro.design.spec import DesignSpec
from repro.faultsim.campaign import decoder_campaign, scheme_campaign
from repro.faultsim.injector import decoder_fault_list, rom_fault_list
from repro.memory.organization import PAPER_ORGS, MemoryOrganization
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import Workload

GENERATED = settings(max_examples=40, derandomize=True, deadline=None)

#: window caps and live-word budgets the records must be invariant in
#: (as in test_vectorsim: one cycle per window, straddled words, one
#: word, a clipped ramp, the default; one fault per batch up to dozens)
CHUNKS = (1, 7, 64, 100, None)
BUDGETS = (1, 300, 2000)


class ForceNets(FaultBase):
    """A plugin fault forcing one or more nets, no pin."""

    def __init__(self, *forces):
        self.forces = tuple(forces)

    def register(self, net_faults, pin_faults):
        for net, value in self.forces:
            net_faults[net] = value

    def key(self):
        return ("force",) + self.forces

    def __repr__(self):
        parts = ", ".join(f"n{net}/sa{value}" for net, value in self.forces)
        return f"ForceNets({parts})"


def line_nets(checked):
    return frozenset(checked.circuit.output_nets[: 1 << checked.n])


def terminal_nets(checked):
    """The nets a fault may force and still be computed in bulk."""
    sim = VectorCircuit(checked.circuit)
    lines = line_nets(checked)
    return [
        net
        for net, ends in enumerate(sim.terminal)
        if ends is not None and lines.isdisjoint(ends)
    ]


def campaign(checked, checker, faults, addresses, **kwargs):
    return decoder_campaign(
        checked, checker, faults, addresses, attach_analytic=False, **kwargs
    )


def all_dense(sim, reps, lines=frozenset()):
    """A ``terminal_forces`` that sends every fault gate by gate."""
    none = np.full(len(reps), -1, dtype=np.int64)
    return none, none.copy()


# -- generated checked decoders ----------------------------------------------


@st.composite
def decoder_cases(draw):
    """A registry code's checked decoder (tree or flat, 2-6 address
    bits, behavioural or structural checker), a fault list mixing
    terminal stems, deep stems, ROM and tree pin faults, plugin faults
    forcing one net and two, and duplicates, and a trace shorter or
    longer than the line count."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["mod", "parity", "berger"]))
    if kind == "mod":
        width = draw(st.integers(3, 7))
        weight = draw(st.integers(1, width - 1))
        mapping = mapping_for_code(
            resolve_code(f"{weight}-out-of-{width}"), n
        )
    elif kind == "parity":
        mapping = mapping_for_code(resolve_code("1-out-of-2"), n)
    else:
        mapping = build_mapping(
            "truncated-berger", None, n, k=draw(st.integers(1, n - 1))
        )
    decoder = FlatDecoder(n) if draw(st.booleans()) else None
    checked = CheckedDecoder(mapping, decoder=decoder)
    checker = checker_for(mapping, structural=draw(st.booleans()))

    circuit = checked.circuit
    nets = list(circuit.input_nets) + [gate.output for gate in circuit.gates]
    terminal = terminal_nets(checked)
    deep = [net for net in nets if net not in set(terminal)]
    rom = set(checked.rom_nets)
    rom_gates = [
        gate for gate in circuit.gates if gate.output in rom and gate.inputs
    ]
    tree_gates = [gate for gate in circuit.gates if gate.output not in rom]
    value = st.integers(0, 1)

    def stems(pool):
        return st.builds(NetStuckAt, st.sampled_from(pool), value)

    def pins(gates):
        return st.sampled_from(gates).flatmap(
            lambda gate: st.builds(
                PinStuckAt,
                st.just(gate.index),
                st.integers(0, len(gate.inputs) - 1),
                value,
            )
        )

    one_net = st.builds(
        lambda net, v: ForceNets((net, v)), st.sampled_from(nets), value
    )
    two_nets = st.builds(
        lambda a, b, v, w: ForceNets((a, v), (b, w)),
        st.sampled_from(nets),
        st.sampled_from(nets),
        value,
        value,
    )
    kinds = [stems(terminal), stems(deep), pins(tree_gates), one_net, two_nets]
    if rom_gates:
        kinds.append(pins(rom_gates))
    faults = draw(st.lists(st.one_of(kinds), min_size=1, max_size=10))
    faults += draw(st.lists(st.sampled_from(faults), max_size=2))
    cycles = draw(st.integers(1, 2 * (1 << n) + 8))
    addresses = Workload.uniform(
        1 << n, cycles, seed=draw(st.integers(0, 99))
    ).address_list()
    return dict(
        checked=checked,
        checker=checker,
        faults=faults,
        addresses=addresses,
        collapse=draw(st.booleans()),
        chunk=draw(st.sampled_from(CHUNKS)),
        budget=draw(st.sampled_from(BUDGETS)),
    )


@GENERATED
@given(case=decoder_cases())
def test_generated_decoder_campaigns_equal_serial(case):
    """Record by record, ``first_error`` included, at a drawn window cap
    and live-word budget, and with every fault sent gate by gate."""
    checked, checker = case["checked"], case["checker"]
    faults, addresses = case["faults"], case["addresses"]
    serial = campaign(checked, checker, faults, addresses, engine="serial")
    with mock.patch.object(parallel, "LIVE_WORDS", case["budget"]):
        vector = campaign(
            checked, checker, faults, addresses,
            collapse=case["collapse"], chunk=case["chunk"],
        )
    assert vector.records == serial.records
    with mock.patch.object(VectorCircuit, "terminal_forces", all_dense):
        dense = campaign(
            checked, checker, faults, addresses, collapse=case["collapse"]
        )
    assert dense.records == serial.records


# -- hand-built netlists ------------------------------------------------------


class GoldenWordChecker(Checker):
    """Accepts exactly the ROM words the fault-free circuit emits."""

    def __init__(self, checked):
        self.words = {
            checked.evaluate(address)[1] for address in range(1 << checked.n)
        }
        self.input_width = len(next(iter(self.words)))

    def indication(self, word):
        return (0, 1) if tuple(word) in self.words else (1, 1)


def paper_style_decoder(n=4):
    return CheckedDecoder(mapping_for_code(resolve_code("2-out-of-5"), n))


def extra_output(checked, gate_type, inputs):
    net = checked.circuit.add_gate(gate_type, inputs)
    checked.circuit.mark_output(net)
    return net


def narrow_reader(checked):
    """A word line that also feeds a narrow gate (an AND2 output)."""
    lines = checked.circuit.output_nets
    out = extra_output(checked, GateType.AND, (lines[1], lines[2]))
    return [lines[1], lines[2]], [out, lines[3]]


def double_pin(checked):
    """A wide gate that reads one word line at two pins."""
    lines = checked.circuit.output_nets
    out = extra_output(checked, GateType.OR, (lines[0], lines[0], lines[3]))
    return [lines[0]], [lines[3], out]


def rom_column_read(checked):
    """A ROM column that another gate reads: its NOR is no sink, so
    its word lines are not terminal."""
    circuit = checked.circuit
    rom = next(
        net
        for net in checked.rom_nets
        if len(circuit.driver_of(net).inputs) >= parallel._WIDE_FANIN
    )
    members = list(circuit.driver_of(rom).inputs)
    out = extra_output(checked, GateType.NOT, (rom,))
    return [rom] + members, [out]


def own_outputs(checked):
    """Faults on terminal gates' own outputs: the ROM columns, and a
    wide sink gate of every fold type over word lines."""
    lines = checked.circuit.output_nets
    extra = [
        extra_output(
            checked, gate_type, (lines[4 + i], lines[5 + i], lines[12])
        )
        for i, gate_type in enumerate(
            [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
             GateType.XOR, GateType.XNOR]
        )
    ]
    return [], list(checked.rom_nets) + extra + [lines[4], lines[12]]


def buf_output(checked):
    """A BUF-driven output next to the ROM columns."""
    lines = checked.circuit.output_nets
    out = extra_output(checked, GateType.BUF, (lines[7],))
    return [lines[7]], [out]


@pytest.mark.parametrize(
    "edit",
    [narrow_reader, double_pin, rom_column_read, own_outputs, buf_output],
)
@pytest.mark.parametrize("chunk", [7, None])
def test_hand_built_edges(edit, chunk):
    """Each edge classifies as expected, and bulk, gate-by-gate and
    serial records agree over every stem fault of the circuit."""
    checked = paper_style_decoder()
    dense_nets, terminal = edit(checked)
    checker = GoldenWordChecker(checked)
    circuit = checked.circuit
    bulk = set(terminal_nets(checked))
    assert set(terminal) <= bulk
    assert not set(dense_nets) & bulk
    faults = [
        NetStuckAt(net, value)
        for net in range(circuit.num_nets)
        for value in (0, 1)
    ]
    faults.append(ForceNets((terminal[0], 1)))
    addresses = Workload.uniform(16, 40, seed=3).address_list()
    serial = campaign(checked, checker, faults, addresses, engine="serial")
    vector = campaign(checked, checker, faults, addresses, chunk=chunk)
    assert vector.records == serial.records
    with mock.patch.object(VectorCircuit, "terminal_forces", all_dense):
        dense = campaign(checked, checker, faults, addresses, chunk=chunk)
    assert dense.records == serial.records


class HandDecoder:
    """A hand-wired 3-to-8 decoder for the word-line edges of the bulk
    path: line 0 decodes address 1, so the fault-free lines differ from
    the ideal one-hot words (the other lines' mismatch must stay in a
    faulted line's ``err``), and line 7 is a wide AND of three buffers
    nothing else reads, so terminal nets feed a gate that drives a word
    line (those faults must run gate by gate)."""

    n = 3

    def __init__(self):
        circuit = self.circuit = Circuit("hand")
        bits = circuit.add_inputs(["a0", "a1", "a2"])
        inverted = [circuit.add_gate(GateType.NOT, (bit,)) for bit in bits]

        def literals(value):
            return [
                bits[i] if (value >> i) & 1 else inverted[i]
                for i in range(3)
            ]

        lines = [
            circuit.add_gate(GateType.AND, literals(value or 1))
            for value in range(7)
        ]
        buffers = [circuit.add_gate(GateType.BUF, (bit,)) for bit in bits]
        lines.append(circuit.add_gate(GateType.AND, buffers))
        for value, net in enumerate(lines):
            circuit.mark_output(net, name=f"w{value}")
        self.buffers = buffers

    def site_of_net(self, net):
        return None


class AllOnesLine(AddressMapping):
    """2-out-of-4 words by address, but line 7's ROM row is all ones,
    so no ROM column reads it."""

    n_bits = 3
    rom_width = 4
    num_words_used = 7
    WORDS = [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
             (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]

    def index(self, address):
        return address

    def codeword(self, address):
        return self.WORDS[address]


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_hand_wired_word_lines(chunk):
    decoder = HandDecoder()
    checked = CheckedDecoder(AllOnesLine(), decoder=decoder)
    checker = GoldenWordChecker(checked)
    circuit = checked.circuit
    bulk = set(terminal_nets(checked))
    lines = circuit.output_nets[:8]
    assert set(lines[:7]) <= bulk and not set(decoder.buffers) & bulk
    assert VectorCircuit(circuit).terminal[decoder.buffers[0]] == (lines[7],)
    faults = [
        NetStuckAt(net, value)
        for net in range(circuit.num_nets)
        for value in (0, 1)
    ]
    addresses = Workload.uniform(8, 48, seed=11).address_list()
    serial = campaign(checked, checker, faults, addresses, engine="serial")
    vector = campaign(checked, checker, faults, addresses, chunk=chunk)
    assert vector.records == serial.records


def test_aliasing_rows_reach_the_parity_path():
    """With a = 3, a word line stuck at 1 merges with lines that carry
    its code word, which only the parity data path can catch: the bulk
    violations of terminal line faults decide those records."""
    org = MemoryOrganization(64, 4, column_mux=2)

    def build():
        code = resolve_code("2-out-of-4")
        return SelfCheckingMemory(
            org,
            ModAMapping(code, org.p, a=3),
            mapping_for_code(code, org.s),
        )

    probe = build()
    row_faults = decoder_fault_list(probe.row) + rom_fault_list(probe.row)
    column_faults = decoder_fault_list(probe.column)
    assert set(terminal_nets(probe.row)) & {f.net for f in row_faults}
    addresses = Workload.uniform(64, 120, seed=2).address_list()
    serial = scheme_campaign(
        build(), addresses, row_faults=row_faults,
        column_faults=column_faults, engine="serial",
    )
    for chunk in (7, None):
        vector = scheme_campaign(
            build(), addresses, row_faults=row_faults,
            column_faults=column_faults, engine="vector", chunk=chunk,
        )
        assert vector.records == serial.records


def test_bulk_path_runs_on_the_paper_shape(monkeypatch):
    """A checked tree decoder's word-line stems take the bulk path."""
    checked = paper_style_decoder()
    calls = []
    words = VectorCircuit.terminal_words

    def spy(self, golden, mask, outputs):
        calls.append(len(outputs))
        return words(self, golden, mask, outputs)

    monkeypatch.setattr(VectorCircuit, "terminal_words", spy)
    faults = decoder_fault_list(checked)
    addresses = Workload.uniform(16, 40, seed=3).address_list()
    checker = checker_for(checked.mapping)
    vector = campaign(checked, checker, faults, addresses)
    assert calls and set(calls) == {len(checked.rom_nets)}
    serial = campaign(checked, checker, faults, addresses, engine="serial")
    assert vector.records == serial.records


# -- the bulk words against the serial evaluator ------------------------------

GATES = [
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
]


def random_netlist(seed, inputs, gates):
    """Gates of every type with fan-in up to 5 (duplicate pins
    allowed); every net no gate reads is an output, plus a few more."""
    rng = random.Random(seed)
    circuit = Circuit(f"random{seed}")
    pool = circuit.add_inputs([f"x{i}" for i in range(inputs)])
    for _ in range(gates):
        gate_type = rng.choice(GATES)
        arity = 1 if gate_type in (GateType.NOT, GateType.BUF) else (
            rng.randint(2, 5)
        )
        pool.append(
            circuit.add_gate(
                gate_type, [rng.choice(pool) for _ in range(arity)]
            )
        )
    read = {net for gate in circuit.gates for net in gate.inputs}
    for net in pool:
        if net not in read or rng.random() < 0.2:
            circuit.mark_output(net)
    return circuit


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    inputs=st.integers(1, 6),
    gates=st.integers(1, 24),
    lanes=st.integers(1, 130),
)
def test_terminal_words_equal_serial_outputs(seed, inputs, gates, lanes):
    circuit = random_netlist(seed, inputs, gates)
    sim = VectorCircuit(circuit)
    faults = [
        NetStuckAt(net, value)
        for net in range(circuit.num_nets)
        if sim.terminal[net] is not None
        for value in (0, 1)
    ]
    nets, values = sim.terminal_forces(faults)
    assert (nets >= 0).all()
    rng = random.Random(seed)
    stimuli = [
        tuple(rng.randint(0, 1) for _ in range(inputs)) for _ in range(lanes)
    ]
    mask = lane_mask(lanes)
    golden = sim.golden(pack_bool(np.asarray(stimuli, dtype=np.uint8).T), mask)
    outputs = circuit.output_nets
    words = sim.terminal_words(golden, mask, outputs)(nets, values)
    lanes_of = unpack_lanes(
        np.stack(
            [np.broadcast_to(w, (len(faults),) + mask.shape) for w in words],
            axis=1,
        ),
        lanes,
    ).astype(int)  # (F, outputs, lanes)
    for row, fault in enumerate(faults):
        expected = [
            circuit.evaluate(stimulus, faults=(fault,)) for stimulus in stimuli
        ]
        assert [tuple(r) for r in lanes_of[row].T.tolist()] == expected, fault


def test_multi_net_and_pin_faults_are_never_terminal():
    checked = paper_style_decoder()
    line = checked.circuit.output_nets[5]
    rom_gate = checked.circuit.driver_of(checked.rom_nets[0])
    sim = VectorCircuit(checked.circuit)
    faults = [
        NetStuckAt(line, 1),
        ForceNets((line, 1)),
        ForceNets((line, 1), (checked.rom_nets[0], 0)),
        PinStuckAt(rom_gate.index, 0, 1),
        ForceNets((checked.circuit.num_nets, 1)),
    ]
    nets, values = sim.terminal_forces(faults, line_nets(checked))
    assert nets.tolist() == [line, line, -1, -1, -1]
    assert values.tolist() == [1, 1, -1, -1, -1]


# -- pinned counts ------------------------------------------------------------


@pytest.mark.parametrize(
    "org, terminal, total",
    [
        (PAPER_ORGS[0], 522, 634),
        (PAPER_ORGS[1], 1034, 1660),
        (PAPER_ORGS[2], 2058, 2694),
    ],
    ids=["2048x16", "4096x32", "8192x64"],
)
def test_paper_row_decoder_terminal_counts(org, terminal, total):
    """The share of each paper row decoder's stem faults taken in bulk:
    its word-line and ROM-column stems."""
    spec = DesignSpec.for_organization(org, c=10, pndc=1e-9)
    checked = CheckedDecoder(DesignEngine().plan(spec).row_mapping())
    faults = decoder_fault_list(checked)
    nets, _ = VectorCircuit(checked.circuit).terminal_forces(
        faults, line_nets(checked)
    )
    assert (int((nets >= 0).sum()), len(faults)) == (terminal, total)
