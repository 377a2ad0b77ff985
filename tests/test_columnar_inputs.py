"""The vector scheme campaign's columnar inputs against their behavioural
references: generated campaigns (golden image, memory faults patched
into it, structural faults both computed in bulk and run gate by gate)
against the serial oracle, the golden image against
``default_scheme_writer``, the uniform trace against
``random.Random.randrange``, and the address views of concatenated and
interleaved workloads against their per-access traces."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_event_walks import memory_fault_strategy

from repro.circuits.parallel import VectorCircuit
from repro.codes.parity import ParityCode
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.faultsim.campaign import default_scheme_writer, scheme_campaign
from repro.faultsim.injector import (
    decoder_fault_list,
    rom_fault_list,
    sample_faults,
)
from repro.faultsim.vectorsim import default_scheme_image
from repro.memory.faults import (
    CellStuckAt,
    CompositeFault,
    CouplingFault,
    DataLineStuckAt,
    MemoryFault,
)
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.scenarios import Workload
from repro.scenarios.workload import ConcatWorkload, InterleavedWorkload

GENERATED = settings(max_examples=40, derandomize=True, deadline=None)


class RawWordFlip(MemoryFault):
    """A plugin fault that defines only ``apply_read``: a read of an
    address congruent to ``residue`` modulo 3 sees ``bit`` flipped
    when the stored word's bit 0 is 1.  It reads the stored word
    through ``raw_word``, so the RAM must hold the campaign's
    contents."""

    def __init__(self, residue, bit):
        self.residue = residue
        self.bit = bit

    def apply_read(self, address, word, memory):
        if address % 3 == self.residue and memory.raw_word(address)[0]:
            word[self.bit] ^= 1

    def __repr__(self):
        return f"RawWordFlip({self.residue}, {self.bit})"


def seeded_writer(seed):
    """Random data with the parity of a few words broken afterwards:
    contents the default writer never produces."""

    def write(memory):
        rng = random.Random(seed)
        org = memory.organization
        for address in range(org.words):
            memory.write(
                address, [rng.getrandbits(1) for _ in range(org.bits)]
            )
        for address in rng.sample(range(org.words), 2):
            memory.ram.flip_stored_bit(address, 0)

    return write


def build_memory(words, bits, mux):
    return SelfCheckingMemory.from_selection(
        MemoryOrganization(words, bits, column_mux=mux),
        select_code(10, 1e-9),
    )


def scheme_memory_faults(words, stored, mux):
    """Every built-in memory fault, out-of-range cells and mux columns,
    read-state coupling within one word, the ``apply_read``-only
    plugin, and composites of two to four of those (whose parts may
    overwrite each other's bits or the aggressor a coupling reads)."""
    base = memory_fault_strategy(words, stored, mux, spill=2)
    bits = st.integers(0, stored - 1)
    values = st.integers(0, 1)
    same_cell = st.builds(
        lambda address, bit, victim_bit, trigger, forced: CouplingFault(
            address, bit, address, victim_bit,
            trigger=trigger, forced=forced,
        ),
        st.integers(0, words - 1), bits, bits, values, values,
    )
    plugin = st.builds(RawWordFlip, st.integers(0, 2), bits)
    leaf = st.one_of(base, same_cell, plugin)
    composite = st.lists(leaf, min_size=2, max_size=4).map(CompositeFault)
    return st.one_of(leaf, composite)


@st.composite
def shapes(draw):
    """(words, data bits, column mux) of a small organisation."""
    n = draw(st.integers(3, 6))  # 8-64 words
    s = draw(st.integers(1, min(3, n - 1)))  # column mux 2-8
    return 1 << n, draw(st.integers(1, 6)), 1 << s


@st.composite
def hook_cases(draw):
    words, bits, mux = draw(shapes())
    ram = BehavioralRAM(MemoryOrganization(words, bits, column_mux=mux))
    rng = random.Random(draw(st.integers(0, 99)))
    ram.load(
        np.array(
            [[rng.getrandbits(1) for _ in range(bits + 1)]
             for _ in range(words)],
            dtype=np.uint8,
        )
    )
    return ram, draw(scheme_memory_faults(words, bits + 1, mux))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=hook_cases())
def test_image_hooks_equal_apply_read_on_every_word(case):
    """Each built-in override patches exactly what the base hook (its
    ``apply_read`` over every word) patches, out-of-range sites and
    composites included."""
    ram, fault = case
    image = np.array(
        [ram.raw_word(a) for a in range(ram.organization.words)],
        dtype=np.uint8,
    )
    patched, reference = image.copy(), image.copy()
    fault.apply_read_image(patched, ram)
    MemoryFault.apply_read_image(fault, reference, ram)
    assert patched.tolist() == reference.tolist()


def test_composite_coupling_reads_the_stored_aggressor():
    """An earlier part that changes the aggressor's read leaves the
    coupling alone: it compares the stored aggressor bit."""
    ram = BehavioralRAM(MemoryOrganization(8, 2, column_mux=2))
    fault = CompositeFault(
        [DataLineStuckAt(0, 1), CouplingFault(3, 0, 5, 1, trigger=1)]
    )
    image = np.zeros((8, 3), dtype=np.uint8)
    reference = image.copy()
    fault.apply_read_image(image, ram)
    MemoryFault.apply_read_image(fault, reference, ram)
    assert image.tolist() == reference.tolist()
    assert image[:, 0].tolist() == [1] * 8 and image[5, 1] == 0


@st.composite
def scheme_cases(draw):
    words, bits, mux = draw(shapes())
    return dict(
        shape=(words, bits, mux),
        memory_faults=draw(
            st.lists(
                scheme_memory_faults(words, bits + 1, mux),
                min_size=1,
                max_size=6,
            )
        ),
        terminal=draw(st.integers(0, 3)),
        deep=draw(st.integers(0, 3)),
        writer_seed=draw(st.one_of(st.none(), st.integers(0, 99))),
        trace_seed=draw(st.integers(0, 99)),
        cycles=draw(st.integers(1, 96)),
    )


def axis_faults(checked, terminal, deep, seed):
    """Up to ``terminal`` stem faults the vector engine computes in bulk
    and ``deep`` ones it runs gate by gate, from the tree and ROM stems
    of one decoder."""
    faults = decoder_fault_list(checked) + rom_fault_list(checked)
    lines = frozenset(checked.circuit.output_nets[: 1 << checked.n])
    nets, _ = VectorCircuit(checked.circuit).terminal_forces(faults, lines)
    bulk = [fault for fault, net in zip(faults, nets) if net >= 0]
    rest = [fault for fault, net in zip(faults, nets) if net < 0]
    return sample_faults(bulk, terminal, seed=seed) + sample_faults(
        rest, deep, seed=seed + 1
    )


@GENERATED
@given(case=scheme_cases())
def test_vector_scheme_campaign_equals_serial(case):
    words, bits, mux = case["shape"]
    seed = case["writer_seed"]
    probe = build_memory(words, bits, mux)
    kwargs = dict(
        row_faults=axis_faults(
            probe.row, case["terminal"], case["deep"], seed=1
        ),
        column_faults=axis_faults(
            probe.column, case["terminal"], case["deep"], seed=3
        ),
        memory_faults=case["memory_faults"],
        writer=None if seed is None else seeded_writer(seed),
    )
    addresses = Workload.uniform(
        words, case["cycles"], seed=case["trace_seed"]
    ).address_list()
    serial_memory = build_memory(words, bits, mux)
    vector_memory = build_memory(words, bits, mux)
    serial = scheme_campaign(
        serial_memory, addresses, engine="serial", **kwargs
    )
    vector = scheme_campaign(
        vector_memory, addresses, engine="vector", **kwargs
    )
    assert vector.records == serial.records
    # the vector path leaves the contents the serial fill left
    assert [
        vector_memory.ram.raw_word(a) for a in range(words)
    ] == [serial_memory.ram.raw_word(a) for a in range(words)]


# -- the golden image --------------------------------------------------------

#: (words, bits, column mux): tiny, the paper RAM, a word wider than
#: the 64-bit products, and odd shapes in between
ORGS = [(8, 1, 2), (16, 3, 4), (64, 8, 8), (2048, 16, 8), (16, 70, 2)]


def written_contents(ram):
    default_scheme_writer(ram)
    return [list(ram.raw_word(a)) for a in range(ram.organization.words)]


@pytest.mark.parametrize("parity", ["even", "odd", "none"])
@pytest.mark.parametrize("shape", ORGS)
def test_golden_image_is_what_the_default_writer_stores(shape, parity):
    words, bits, mux = shape
    org = MemoryOrganization(words, bits, column_mux=mux)

    def ram():
        return BehavioralRAM(
            org, with_parity=parity != "none", even_parity=parity == "even"
        )

    image = default_scheme_image(ram())
    expected = written_contents(ram())
    assert image.dtype == np.uint8
    assert image.shape == (words, bits + (parity != "none"))
    assert image.tolist() == expected
    loaded = ram()
    loaded.load(image)
    assert [
        list(loaded.raw_word(a)) for a in range(words)
    ] == expected


def test_golden_image_refuses_products_past_64_bits():
    # 2**33 words: (words - 1) * 0x9E3779B1 needs more than 64 bits,
    # so the caller must fall back to the writer (nothing is allocated)
    org = MemoryOrganization(1 << 33, 4, column_mux=8)
    ram = SimpleNamespace(
        organization=org, word_width=5, with_parity=True,
        parity_code=ParityCode(4),
    )
    assert default_scheme_image(ram) is None


def test_load_checks_the_shape():
    ram = BehavioralRAM(MemoryOrganization(8, 2, column_mux=2))
    with pytest.raises(ValueError):
        ram.load(np.zeros((8, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        ram.load(np.zeros((4, 3), dtype=np.uint8))


def test_vector_campaign_leaves_the_written_contents():
    memory = build_memory(64, 8, 4)
    scheme_campaign(memory, [0, 5, 9], engine="vector")
    assert [
        list(memory.ram.raw_word(a)) for a in range(64)
    ] == written_contents(build_memory(64, 8, 4).ram)


def test_registered_fault_sees_the_behavioural_fill():
    """A write-triggered coupling registered on the RAM corrupts the
    default fill; the vector campaign must keep that fill (and drop
    the fault afterwards, as the serial oracle does)."""

    def run(engine):
        memory = build_memory(64, 8, 4)
        # the fill writes 1 into bit 0 of word 1 (0x9E3779B1 is odd),
        # forcing bit 3 of the already written all-zero word 0 to 1
        memory.inject_memory_fault(
            CouplingFault(1, 0, 0, 3, trigger=1, forced=1,
                          write_triggered=True)
        )
        result = scheme_campaign(
            memory, [2, 0, 1], memory_faults=[CellStuckAt(9, 0, 1)],
            engine=engine,
        )
        return result.records, memory.ram.raw_word(0), memory.ram.faults

    serial, vector = run("serial"), run("vector")
    assert vector == serial
    records, word0, faults = vector
    # word 0 left the parity code, so its read at cycle 1 is caught
    assert [r.first_detection for r in records] == [1]
    assert word0[3] == 1 and faults == []


# -- the uniform trace -------------------------------------------------------

#: spaces where getrandbits' rejection is tightest or loosest, up to
#: 2**70
EDGE_SPACES = sorted(
    {1, 2, 3}
    | {(1 << k) + d for k in range(2, 71, 4) for d in (-1, 0, 1)}
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    space=st.one_of(
        st.sampled_from(EDGE_SPACES),
        st.integers(1, 5000),
        st.integers(1, 1 << 70),
    ),
    seed=st.one_of(
        st.integers(-(1 << 80), 1 << 80), st.integers(-5, 5)
    ),
    cycles=st.integers(0, 80),
)
def test_uniform_trace_is_the_randrange_sequence(space, seed, cycles):
    rng = random.Random(seed)
    expected = [rng.randrange(space) for _ in range(cycles)]
    assert Workload.uniform(space, cycles, seed=seed).address_list() == (
        expected
    )


def test_uniform_trace_takes_any_integer_space():
    # randrange coerces with __index__: a NumPy integer draws the same
    # trace as the int it stands for
    pinned = Workload.uniform(2048, 16, seed=1).address_list()
    assert Workload.uniform(np.int64(2048), 16, seed=1).address_list() == (
        pinned
    )


SPACES = st.integers(1, 300)
LENGTHS = st.integers(0, 40)
SEEDS = st.integers(0, 99)

#: the leaf kinds a campaign trace is composed of, with unequal lengths
LEAF_WORKLOADS = st.one_of(
    st.builds(Workload.uniform, SPACES, LENGTHS, seed=SEEDS),
    st.builds(
        Workload.sequential, SPACES, LENGTHS, start=st.integers(0, 500)
    ),
    st.builds(
        Workload.bursty, SPACES, LENGTHS, locality=st.integers(1, 9),
        seed=SEEDS,
    ),
    st.builds(
        Workload.scrubbed, SPACES, LENGTHS,
        scrub_period=st.integers(0, 6), seed=SEEDS,
    ),
    st.builds(
        Workload.explicit, st.lists(st.integers(0, 1000), max_size=30)
    ),
)


def _composed(parts):
    groups = st.lists(parts, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        groups.map(ConcatWorkload), groups.map(InterleavedWorkload)
    )


def reference_trace(workload):
    """The address trace composed by hand from the leaves' accesses:
    parts back to back, or round by round with exhausted parts left
    out."""
    if isinstance(workload, ConcatWorkload):
        return [a for part in workload.parts for a in reference_trace(part)]
    if isinstance(workload, InterleavedWorkload):
        traces = [reference_trace(part) for part in workload.parts]
        return [
            trace[i]
            for i in range(max(map(len, traces)))
            for trace in traces
            if i < len(trace)
        ]
    return [access.address for access in workload.accesses()]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(workload=st.recursive(LEAF_WORKLOADS, _composed, max_leaves=12))
def test_composed_address_views_follow_the_accesses(workload):
    expected = [access.address for access in workload.accesses()]
    assert expected == reference_trace(workload)
    assert len(expected) == workload.cycles
    assert list(workload.addresses()) == expected
    assert workload.address_list() == expected
