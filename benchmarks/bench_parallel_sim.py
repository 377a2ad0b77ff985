"""X11 — bit-parallel simulation speedup on campaign workloads.

Times serial vs lane-parallel evaluation of a checked decoder over a
long address stream and asserts (a) identical results, (b) a real
speedup — the substrate that keeps exhaustive campaigns affordable.
"""

import time

import pytest

from repro.circuits.simulator import fault_free_responses
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.scenarios import Workload
from repro.rom.nor_matrix import CheckedDecoder

N_BITS = 6
CYCLES = 256


@pytest.fixture(scope="module")
def checked():
    return CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), N_BITS))


@pytest.fixture(scope="module")
def addresses():
    return Workload.uniform(1 << N_BITS, CYCLES, seed=31).address_list()


def lane_rom_words(checked, addresses):
    """The ROM word per address from one lane pass over the stream: the
    circuit's outputs past its word lines."""
    stimuli = [
        [(address >> bit) & 1 for bit in range(checked.n)]
        for address in addresses
    ]
    return [
        response[1 << checked.n :]
        for response in fault_free_responses(checked.circuit, stimuli)
    ]


def test_bench_serial_stream(benchmark, checked, addresses):
    def serial():
        return [checked.rom_word(a) for a in addresses]

    words = benchmark(serial)
    assert len(words) == CYCLES


def test_bench_packed_stream(benchmark, checked, addresses):
    words = benchmark(lane_rom_words, checked, addresses)
    assert len(words) == CYCLES


def test_packed_equals_serial_and_is_faster(checked, addresses):
    start = time.perf_counter()
    serial = [checked.rom_word(a) for a in addresses]
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    packed = lane_rom_words(checked, addresses)
    packed_time = time.perf_counter() - start

    assert packed == serial
    speedup = serial_time / packed_time if packed_time else float("inf")
    print(
        f"\nserial {serial_time * 1e3:.1f} ms vs packed "
        f"{packed_time * 1e3:.1f} ms -> x{speedup:.1f} speedup"
    )
    # one netlist pass for 256 lanes vs 256 passes: demand at least 5x
    # (typical is 30-80x) to keep the assertion robust on slow machines
    assert speedup > 5
