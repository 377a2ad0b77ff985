"""Vector (NumPy lane-array) campaign engine vs the serial oracle:
record-level bit-identity across fault kinds, collapse modes and window
widths, lane-helper unit tests, checker-lane equivalence against the
bigint ``accepts_packed`` primitives, and the engine policy surface."""

import random

import pytest

from repro.checkers.base import Checker
from repro.checkers.berger_checker import BergerChecker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.checkers.parity_checker import ParityChecker
from repro.checkers.two_rail_checker import TwoRailChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.faultsim import vectorsim
from repro.faultsim.campaign import (
    decoder_campaign,
    default_scheme_writer,
    scheme_campaign,
)
from repro.faultsim.injector import decoder_fault_list, sample_faults
from repro.faultsim.vectorsim import CAMPAIGN_ENGINES, check_engine
from repro.memory.faults import (
    CellStuckAt,
    CompositeFault,
    CouplingFault,
    DataLineStuckAt,
    MuxLineStuckAt,
)
from repro.memory.organization import MemoryOrganization
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import Workload

#: window widths the engine must be invariant in (1 = one cycle per
#: window, 7 = lanes straddle word boundaries, 64 = exactly one word,
#: None = DEFAULT_WINDOW, i.e. a single window for these streams)
CHUNKS = (1, 7, 64, None)

#: live-word budgets for the fault batches: one fault per batch, then a
#: handful, then a few dozen (the default fits these cases in one)
BUDGETS = (1, 300, 2000)


def record_key(result):
    return [
        (str(r.fault), r.kind, r.first_detection, r.first_error)
        for r in result.records
    ]


# -- engine policy -----------------------------------------------------------


class TestResolveEngine:
    def test_known_policies(self):
        assert CAMPAIGN_ENGINES == ("vector", "serial")
        assert check_engine("vector") == "vector"
        assert check_engine("serial") == "serial"

    def test_unknown_policy_rejected(self):
        # the retired policies are unknown like any other name
        for engine in ("warp", "packed", "auto"):
            with pytest.raises(ValueError, match="engine must be one of"):
                check_engine(engine)


# -- lane helpers ------------------------------------------------------------


class TestLaneHelpers:
    def test_pack_unpack_roundtrip(self):
        import numpy as np

        rng = random.Random(3)
        for lanes in (1, 7, 63, 64, 65, 130):
            bits = np.array(
                [rng.randrange(2) for _ in range(lanes)], dtype=bool
            )
            row = vectorsim._pack_bool(bits[None, :])[0]
            assert row.shape == ((lanes + 63) // 64,)
            back = vectorsim._unpack_lanes(row, lanes)
            assert back.tolist() == bits.tolist()

    def test_row_int_roundtrip(self):
        import numpy as np

        rng = random.Random(5)
        for words in (1, 2, 3):
            value = rng.getrandbits(64 * words - 7)
            row = vectorsim._int_to_row(value, words)
            assert row.dtype == np.uint64
            assert vectorsim._row_to_int(row) == value

    def test_lane_mask(self):
        assert vectorsim._row_to_int(vectorsim._lane_mask(64)) == (
            (1 << 64) - 1
        )
        assert vectorsim._row_to_int(vectorsim._lane_mask(70)) == (
            (1 << 70) - 1
        )

    def test_first_set_lanes_matches_bigint(self):
        import numpy as np

        from repro.circuits.parallel import first_set_lane

        rng = random.Random(11)
        rows = []
        for _ in range(40):
            value = rng.getrandbits(rng.randrange(1, 180))
            if rng.random() < 0.2:
                value = 0
            rows.append(value)
        words = np.stack(
            [vectorsim._int_to_row(v, 3) for v in rows]
        )
        firsts = vectorsim._first_set_lanes(words)
        for value, first in zip(rows, firsts.tolist()):
            expected = first_set_lane(value)
            assert first == (-1 if expected is None else expected)

    def test_mask_through_lane_truncates_after_detection(self):
        import numpy as np

        rng = random.Random(13)
        values = [rng.getrandbits(150) for _ in range(16)]
        lanes = np.array(
            [rng.randrange(-1, 150) for _ in values], dtype=np.int64
        )
        words = np.stack([vectorsim._int_to_row(v, 3) for v in values])
        kept = vectorsim._mask_through_lane(words, lanes)
        for value, lane, row in zip(values, lanes.tolist(), kept):
            if lane < 0:
                expected = value
            else:
                expected = value & ((1 << (lane + 1)) - 1)
            assert vectorsim._row_to_int(row) == expected


class _EveryOtherChecker(Checker):
    """Plugin checker (accepts words with an even popcount) without a
    packed override — exercises the bigint fallback in _accepts_lanes."""

    input_width = 5

    def indication(self, word):
        ones = sum(word) % 2
        return (ones, 1 - ones)


class TestAcceptsLanes:
    @pytest.mark.parametrize(
        "checker",
        [
            MOutOfNChecker(3, 5, structural=False),
            ParityChecker(5),
            ParityChecker(5, even=False),
            BergerChecker(3),
            TwoRailChecker(2),
            _EveryOtherChecker(),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_matches_accepts_packed(self, checker):
        import numpy as np

        rng = random.Random(17)
        lanes = 130  # straddles two words + a partial third
        width = checker.input_width
        mask = vectorsim._lane_mask(lanes)
        for _ in range(5):
            packed = [rng.getrandbits(lanes) for _ in range(width)]
            columns = [
                np.stack([vectorsim._int_to_row(c, 3)]) for c in packed
            ]
            got = vectorsim._accepts_lanes(checker, columns, mask, lanes)
            want = checker.accepts_packed(packed, lanes)
            assert vectorsim._row_to_int(got[0] & mask) == want


# -- decoder campaigns -------------------------------------------------------


class TestDecoderBitIdentity:
    @pytest.fixture(scope="class")
    def workload(self):
        checked = CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 4))
        checker = MOutOfNChecker(3, 5, structural=False)
        faults = decoder_fault_list(checked)
        addresses = Workload.uniform(16, 200, seed=23).address_list()
        serial = decoder_campaign(
            checked, checker, faults, addresses, engine="serial"
        )
        return checked, checker, faults, addresses, serial

    @pytest.mark.parametrize("collapse", [True, False])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_vector_equals_serial(self, workload, collapse, chunk):
        checked, checker, faults, addresses, serial = workload
        vector = decoder_campaign(
            checked, checker, faults, addresses,
            collapse=collapse, engine="vector", chunk=chunk,
        )
        assert vector.engine == "vector"
        assert record_key(vector) == record_key(serial)

    def test_analytic_column_matches_packed(self, workload):
        # the analytic escapes attached to vector records are the serial
        # oracle's (one shared analytic_escapes table)
        checked, checker, faults, addresses, serial = workload
        vector = decoder_campaign(
            checked, checker, faults, addresses, engine="vector"
        )
        assert [r.analytic_escape for r in vector.records] == [
            r.analytic_escape for r in serial.records
        ]
        assert any(r.analytic_escape is not None for r in vector.records)

    def test_fault_batches_are_invisible(self, workload, monkeypatch):
        # from one fault per batch (a one-word budget) to a few dozen
        checked, checker, faults, addresses, serial = workload
        for budget in BUDGETS:
            monkeypatch.setattr(vectorsim, "LIVE_WORDS", budget)
            vector = decoder_campaign(
                checked, checker, faults, addresses, engine="vector"
            )
            assert record_key(vector) == record_key(serial), budget

    def test_chunk_must_be_positive(self, workload):
        checked, checker, faults, addresses, _ = workload
        with pytest.raises(ValueError, match="chunk"):
            decoder_campaign(
                checked, checker, faults, addresses,
                engine="vector", chunk=0,
            )


class TestGateOrder:
    """Gates run in a topological order that keeps a decoder tree's
    live width small, however many word lines it has."""

    @pytest.fixture(scope="class")
    def circuit(self):
        mapping = mapping_for_code(MOutOfNCode(6, 13), 10)
        return CheckedDecoder(mapping).circuit

    def test_every_gate_once_after_its_inputs(self, circuit):
        order = [step[0] for step in vectorsim._VectorCircuit(circuit).steps]
        assert sorted(gate.index for gate in order) == list(
            range(len(circuit.gates))
        )
        produced = set(circuit.input_nets)
        for gate in order:
            assert set(gate.inputs) <= produced
            produced.add(gate.output)

    def test_live_width_stays_small(self, circuit, monkeypatch):
        ordered = vectorsim._VectorCircuit(circuit).live
        # netlist order holds a whole 256-line level of the tree at once
        monkeypatch.setattr(
            vectorsim, "_low_pressure_order",
            lambda circuit, wide: range(len(circuit.gates)),
        )
        netlist = vectorsim._VectorCircuit(circuit).live
        assert ordered < 64 and netlist > 256


# -- scheme campaigns --------------------------------------------------------


def _weird_writer(memory):
    """Non-code contents at a few addresses: forces the fault-free
    other-axis / parity reject paths that default contents never hit."""
    default_scheme_writer(memory)
    for address in (0, 3, 7):
        memory.ram.flip_stored_bit(address, 0)


class TestSchemeBitIdentity:
    @pytest.fixture(scope="class", params=[(64, 8, 4), (32, 4, 8)])
    def scheme_case(self, request):
        words, bits, mux = request.param
        org = MemoryOrganization(words, bits, column_mux=mux)

        def build():
            return SelfCheckingMemory.from_selection(
                org, select_code(10, 1e-9)
            )

        probe = build()
        row_faults = sample_faults(
            decoder_fault_list(probe.row), 8, seed=3
        )
        column_faults = sample_faults(
            decoder_fault_list(probe.column), 5, seed=4
        )
        memory_faults = [
            CellStuckAt(5 % words, 1, 1),
            DataLineStuckAt(1, 1),
            MuxLineStuckAt(1, 0, 1),
            CouplingFault(
                4 % words, 0, 9 % words, 1, trigger=1, forced=0
            ),
            CompositeFault(
                [CellStuckAt(2, 0, 1), DataLineStuckAt(0, 0)]
            ),
        ]
        addresses = Workload.uniform(words, 220, seed=9).address_list()
        return build, row_faults, column_faults, memory_faults, addresses

    def _run(self, scheme_case, engine, **kw):
        build, rf, cf, mf, addresses = scheme_case
        return scheme_campaign(
            build(), addresses, row_faults=rf, column_faults=cf,
            memory_faults=mf, engine=engine, **kw,
        )

    @pytest.mark.parametrize("collapse", [True, False])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_vector_equals_serial_and_packed(
        self, scheme_case, collapse, chunk
    ):
        # vector records equal the serial oracle's for every window
        # width (chunk=None is the single, fully lane-packed window)
        serial = self._run(scheme_case, "serial", collapse=collapse)
        vector = self._run(
            scheme_case, "vector", collapse=collapse, chunk=chunk
        )
        assert record_key(serial) == record_key(vector)

    def test_non_code_contents_stay_identical(self, scheme_case):
        build, rf, cf, mf, addresses = scheme_case
        runs = {
            engine: scheme_campaign(
                build(), addresses, row_faults=rf, column_faults=cf,
                memory_faults=mf, writer=_weird_writer, engine=engine,
            )
            for engine in ("serial", "vector")
        }
        assert record_key(runs["serial"]) == record_key(runs["vector"])

    def test_structural_checkers_stay_identical(self, scheme_case):
        build, rf, cf, mf, addresses = scheme_case
        org = build().organization
        structural = SelfCheckingMemory.from_selection(
            org, select_code(10, 1e-9), structural_checkers=True
        )
        serial = scheme_campaign(
            structural, addresses, row_faults=rf, column_faults=cf,
            memory_faults=mf, engine="serial",
        )
        structural = SelfCheckingMemory.from_selection(
            org, select_code(10, 1e-9), structural_checkers=True
        )
        vector = scheme_campaign(
            structural, addresses, row_faults=rf, column_faults=cf,
            memory_faults=mf, engine="vector",
        )
        assert record_key(serial) == record_key(vector)

    def test_fault_batches_are_invisible(self, scheme_case, monkeypatch):
        serial = self._run(scheme_case, "serial")
        for budget in BUDGETS:
            monkeypatch.setattr(vectorsim, "LIVE_WORDS", budget)
            vector = self._run(scheme_case, "vector")
            assert record_key(vector) == record_key(serial), budget

    def test_memory_faults_only(self, scheme_case):
        build, _rf, _cf, mf, addresses = scheme_case
        serial = scheme_campaign(
            build(), addresses, memory_faults=mf, engine="serial"
        )
        vector = scheme_campaign(
            build(), addresses, memory_faults=mf, engine="vector"
        )
        assert record_key(serial) == record_key(vector)

    def test_vector_is_the_default(self, scheme_case):
        build, rf, cf, mf, addresses = scheme_case
        result = scheme_campaign(
            build(), addresses, row_faults=rf, column_faults=cf,
            memory_faults=mf,
        )
        assert result.engine == "vector"
