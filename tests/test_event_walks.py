"""Generated differential tests: the transient and march event walks of
the vector engine against the serial replay, record by record."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultsim.transient import TransientUpset
from repro.memory.faults import (
    CellStuckAt,
    CouplingFault,
    DataLineStuckAt,
    MuxLineStuckAt,
)
from repro.memory.march import MARCH_TESTS
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.scenarios import (
    CampaignEngine,
    MemoryScenario,
    TransientScenario,
    Workload,
)

#: a 16x4 parity RAM: stored bits 0-3 are data, bit 4 is the parity bit
WORDS, BITS, MUX = 16, 4, 4
STORED = BITS + 1
CYCLES = 80

GENERATED = settings(max_examples=150, derandomize=True, deadline=None)


def make_ram():
    return BehavioralRAM(MemoryOrganization(WORDS, BITS, column_mux=MUX))


def make_workload(kind, seed):
    if kind == "uniform":
        return Workload.uniform(WORDS, CYCLES, seed=seed)
    if kind == "scrubbed":
        return Workload.scrubbed(WORDS, CYCLES, scrub_period=3, seed=seed)
    if kind == "mixed":
        return Workload.mixed(WORDS, CYCLES, seed=seed, write_ratio=0.3)
    return Workload.sequential(WORDS, CYCLES, start=seed % WORDS)


addresses = st.integers(0, WORDS - 1)
stored_bits = st.integers(0, STORED - 1)
values = st.integers(0, 1)

upsets = st.builds(
    TransientUpset,
    address=addresses,
    bit=stored_bits,
    cycle=st.integers(-2, CYCLES + 5),
)
transient_scenarios = st.lists(
    st.lists(upsets, min_size=1, max_size=3).map(
        lambda strikes: TransientScenario(upsets=tuple(strikes))
    ),
    min_size=1,
    max_size=6,
)


@GENERATED
@given(
    scenarios=transient_scenarios,
    kind=st.sampled_from(["uniform", "scrubbed", "mixed", "sequential"]),
    seed=st.integers(0, 50),
    chunk=st.sampled_from([None, 1, 7, 64]),
)
def test_transient_walk_equals_serial(scenarios, kind, seed, chunk):
    workload = make_workload(kind, seed)
    vector = CampaignEngine(chunk=chunk).transient(
        make_ram(), scenarios, workload
    )
    serial = CampaignEngine("serial").transient(
        make_ram(), scenarios, workload
    )
    assert vector.records == serial.records


def _write_coupling(cells, bits, trigger, forced):
    (aggressor, victim), (aggressor_bit, victim_bit) = cells, bits
    return CouplingFault(
        aggressor, aggressor_bit, victim, victim_bit,
        trigger=trigger, forced=forced, write_triggered=True,
    )


def _sites(count, spill):
    inside = st.integers(0, count - 1)
    if not spill:
        return inside
    return st.one_of(
        inside,
        st.integers(-spill, -1),
        st.integers(count, count - 1 + spill),
    )


def memory_fault_strategy(words, stored, mux, spill=0):
    """Cell, data-line, mux-line and read/write coupling faults of a
    ``words`` x ``stored``-bit RAM with ``mux`` columns.

    ``spill`` > 0 also draws cell addresses (stuck-at cells,
    read-coupling victims) and mux columns up to that far past either
    end of their range, each end as often as the range itself.
    """
    addresses = st.integers(0, words - 1)
    cells = _sites(words, spill)
    bits = st.integers(0, stored - 1)
    return st.one_of(
        st.builds(CellStuckAt, cells, bits, values),
        st.builds(DataLineStuckAt, bits, values),
        st.builds(MuxLineStuckAt, _sites(mux, spill), bits, values),
        st.builds(
            CouplingFault,
            addresses, bits, cells, bits,
            trigger=values, forced=values,
        ),
        st.builds(
            _write_coupling,
            st.lists(addresses, min_size=2, max_size=2, unique=True),
            st.tuples(bits, bits),
            values,
            values,
        ),
    )


memory_faults = memory_fault_strategy(WORDS, STORED, MUX)


@GENERATED
@given(faults=st.lists(memory_faults, min_size=1, max_size=8))
def test_march_walk_equals_serial(faults):
    scenarios = [MemoryScenario(fault) for fault in faults]
    for test in MARCH_TESTS.values():
        vector = CampaignEngine().march(make_ram(), scenarios, test)
        serial = CampaignEngine("serial").march(make_ram(), scenarios, test)
        assert vector.records == serial.records, test.name
