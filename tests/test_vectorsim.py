"""Vector (NumPy lane-array) campaign engine vs the serial oracle:
record-level bit-identity across fault kinds, collapse modes and window
widths, lane-helper unit tests against Python-int references,
checker-lane equivalence against the serial ``accepts``, and the engine
policy surface."""

import random

import numpy as np
import pytest

from repro.checkers.base import Checker
from repro.checkers.berger_checker import BergerChecker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.checkers.parity_checker import ParityChecker
from repro.checkers.two_rail_checker import TwoRailChecker
from repro.circuits import parallel
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

#: window caps the engine must be invariant in (1 = one cycle per
#: window, 7 = lanes straddle word boundaries, 64 = exactly one word,
#: 100 = a cap the ramp overshoots, so its last ramp window is clipped
#: to 36 lanes, None = DEFAULT_WINDOW: these streams end inside the
#: 64, 64, 128, ... ramp)
CHUNKS = (1, 7, 64, 100, None)

#: live-word budgets for the fault batches: one fault per batch, then a
#: handful, then a few dozen (the default fits these cases in one)
BUDGETS = (1, 300, 2000)


def record_key(result):
    return [
        (str(r.fault), r.kind, r.first_detection, r.first_error)
        for r in result.records
    ]


def int_to_row(value, words):
    """Python-int lanes -> (W,) uint64 lane row: the reference form the
    lane helpers are checked against."""
    row = np.zeros(words, dtype=np.uint64)
    for j in range(words):
        row[j] = np.uint64((value >> (64 * j)) & ((1 << 64) - 1))
    return row


def row_to_int(row):
    """(W,) uint64 lane row -> Python int (inverse of int_to_row)."""
    value = 0
    for j, word in enumerate(row.tolist()):
        value |= word << (64 * j)
    return value


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
        rng = random.Random(3)
        for lanes in (1, 7, 63, 64, 65, 128, 130):
            bits = np.array(
                [rng.randrange(2) for _ in range(lanes)], dtype=bool
            )
            row = parallel.pack_bool(bits[None, :])[0]
            assert row.shape == ((lanes + 63) // 64,)
            back = parallel.unpack_lanes(row, lanes)
            assert back.tolist() == bits.tolist()
            # a transposed (non-contiguous) matrix packs the same
            matrix = np.stack([bits, ~bits], axis=1)  # (lanes, 2)
            rows = parallel.pack_bool(matrix.T)
            assert rows.tolist() == [
                row.tolist(), parallel.pack_bool(~bits).tolist()
            ]
            assert parallel.unpack_lanes(rows, lanes).tolist() == (
                matrix.T.tolist()
            )

    def test_row_int_roundtrip(self):
        rng = random.Random(5)
        for words in (1, 2, 3):
            value = rng.getrandbits(64 * words - 7)
            row = int_to_row(value, words)
            assert row.dtype == np.uint64
            assert row_to_int(row) == value

    def test_lane_mask(self):
        assert row_to_int(parallel.lane_mask(64)) == (1 << 64) - 1
        assert row_to_int(parallel.lane_mask(70)) == (1 << 70) - 1

    def test_first_set_lanes_matches_bigint(self):
        rng = random.Random(11)
        rows = []
        for _ in range(40):
            value = rng.getrandbits(rng.randrange(1, 180))
            if rng.random() < 0.2:
                value = 0
            rows.append(value)
        words = np.stack([int_to_row(v, 3) for v in rows])
        firsts = parallel.first_set_lanes(words)
        for value, first in zip(rows, firsts.tolist()):
            assert first == (value & -value).bit_length() - 1

    def test_windows_ramp_up_to_the_cap(self):
        windows = list(vectorsim._windows(30_000, vectorsim.DEFAULT_WINDOW))
        widths = [stop - start for start, stop in windows]
        assert widths[0] == 64
        # from the second window on, each doubles until the cap
        ramp = widths[1 : widths.index(vectorsim.DEFAULT_WINDOW)]
        assert ramp == [64 << i for i in range(len(ramp))]
        # the ramp fills exactly the first cap: full windows keep the
        # boundaries a fixed-width schedule has
        ends = [stop for _, stop in windows]
        assert ends[len(ramp) :] == [8192, 16384, 24576, 30_000]

    @pytest.mark.parametrize("cap", [1, 7, 63, 64, 65, 100, 128, 8192])
    @pytest.mark.parametrize("total", [0, 1, 64, 65, 200, 1000, 20_000])
    def test_windows_tile_the_trace(self, total, cap):
        windows = list(vectorsim._windows(total, cap))
        if not total:
            assert windows == []
            return
        assert windows[0] == (0, min(64, cap, total))
        assert windows[-1][1] == total
        for (_, stop), (start, _) in zip(windows, windows[1:]):
            assert start == stop  # no gap, no overlap
        widths = [stop - start for start, stop in windows]
        assert all(0 < width <= cap for width in widths)
        # every window after the first ramp ones starts on a cap multiple
        for start, _ in windows:
            if start >= cap:
                assert start % cap == 0
        # each window is a lane-word slice of its cap-wide block (what
        # the shared fault-free pass relies on): it starts on a word
        # and ends on one or at the block's end
        for start, stop in windows:
            base = start - start % cap
            assert (start - base) % 64 == 0
            assert (stop - base) % 64 == 0 or stop == min(base + cap, total)
            words = vectorsim._block_words(start, stop, cap)
            assert words.start * 64 == start - base
            assert words.stop * 64 >= stop - base > (words.stop - 1) * 64

    def test_mask_through_lane_truncates_after_detection(self):
        rng = random.Random(13)
        values = [rng.getrandbits(150) for _ in range(16)]
        lanes = np.array(
            [rng.randrange(-1, 150) for _ in values], dtype=np.int64
        )
        words = np.stack([int_to_row(v, 3) for v in values])
        kept = vectorsim._mask_through_lane(words, lanes)
        for value, lane, row in zip(values, lanes.tolist(), kept):
            if lane < 0:
                expected = value
            else:
                expected = value & ((1 << (lane + 1)) - 1)
            assert row_to_int(row) == expected


class _EveryOtherChecker(Checker):
    """Plugin checker (accepts words with an even popcount) without a
    lane override — exercises the base class's judge-each-word
    fallback."""

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
        # (F, W) columns: three observation rows of 130 lanes, which
        # straddle two words and a partial third
        rng = np.random.default_rng(17)
        lanes, rows = 130, 3
        mask = parallel.lane_mask(lanes)
        for _ in range(5):
            # (F, lanes, width) observed words
            bits = rng.integers(0, 2, (rows, lanes, checker.input_width))
            columns = list(parallel.pack_bool(bits.transpose(2, 0, 1)))
            got = checker.accepts_lanes(columns, mask)
            assert got.shape == (rows, mask.shape[0])
            assert not (got & ~mask).any()  # no lane past the mask
            want = [
                [checker.accepts(tuple(word)) for word in row]
                for row in bits.tolist()
            ]
            assert parallel.unpack_lanes(got, lanes).tolist() == want


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
            monkeypatch.setattr(parallel, "LIVE_WORDS", budget)
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

    def test_early_detections_cost_one_lane_word(self, workload, monkeypatch):
        # faults all detected within 64 cycles leave after the first
        # 64-lane window, however long the trace
        checked, checker, faults, addresses, serial = workload
        early = [
            record.first_detection is not None
            and record.first_detection < 64
            for record in serial.records
        ]
        assert any(early) and len(addresses) > 64
        lanes = []
        evaluate = vectorsim._decoder_window

        def spy(checked, sim, checker, window, *rest):
            lanes.append(len(window))
            return evaluate(checked, sim, checker, window, *rest)

        monkeypatch.setattr(vectorsim, "_decoder_window", spy)
        vector = decoder_campaign(
            checked, checker,
            [fault for fault, keep in zip(faults, early) if keep],
            addresses, engine="vector",
        )
        assert lanes == [64]
        assert record_key(vector) == [
            key for key, keep in zip(record_key(serial), early) if keep
        ]

    #: the trace keeps to word lines 0-7 for 300 cycles, so what only
    #: lines 8-15 expose is first seen past the 256-lane mark, after
    #: four hand-offs of the survivors
    LATE = Workload.uniform(8, 300, seed=5) + Workload.uniform(
        16, 300, seed=6
    )

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_late_detections_cross_the_ramp(self, chunk):
        checked = CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 4))
        checker = MOutOfNChecker(3, 5, structural=False)
        faults = decoder_fault_list(checked)
        addresses = self.LATE.address_list()
        serial = decoder_campaign(
            checked, checker, faults, addresses, engine="serial"
        )
        assert any(
            record.first_detection is not None
            and record.first_detection >= 256
            for record in serial.records
        )
        vector = decoder_campaign(
            checked, checker, faults, addresses, engine="vector",
            chunk=chunk,
        )
        assert record_key(vector) == record_key(serial)

    def test_fault_free_selection_errors_count_for_every_fault(
        self, monkeypatch
    ):
        # word-line outputs 9 and 12 swapped: the fault-free decoder
        # selects the wrong line for two addresses, an error every
        # undetected fault shows, on the lines it does not reach too
        # (one fault per batch, so most lines stay golden)
        checked = CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 4))
        lines = checked.circuit._output_nets
        lines[9], lines[12] = lines[12], lines[9]
        checker = MOutOfNChecker(3, 5, structural=False)
        faults = decoder_fault_list(checked)
        addresses = self.LATE.address_list()
        serial = decoder_campaign(
            checked, checker, faults, addresses, engine="serial"
        )
        assert any(
            record.first_error is not None and record.first_error >= 300
            for record in serial.records
        )
        monkeypatch.setattr(parallel, "LIVE_WORDS", 1)
        vector = decoder_campaign(
            checked, checker, faults, addresses, engine="vector"
        )
        assert record_key(vector) == record_key(serial)


class TestGateOrder:
    """Gates run in a topological order that keeps a decoder tree's
    live width small, however many word lines it has."""

    @pytest.fixture(scope="class")
    def circuit(self):
        mapping = mapping_for_code(MOutOfNCode(6, 13), 10)
        return CheckedDecoder(mapping).circuit

    def test_every_gate_once_after_its_inputs(self, circuit):
        order = [step[0] for step in parallel.VectorCircuit(circuit).steps]
        assert sorted(gate.index for gate in order) == list(
            range(len(circuit.gates))
        )
        produced = set(circuit.input_nets)
        for gate in order:
            assert set(gate.inputs) <= produced
            produced.add(gate.output)

    def test_live_width_stays_small(self, circuit, monkeypatch):
        ordered = parallel.VectorCircuit(circuit).live
        # netlist order holds a whole 256-line level of the tree at once
        monkeypatch.setattr(
            parallel, "low_pressure_order",
            lambda circuit, wide: range(len(circuit.gates)),
        )
        netlist = parallel.VectorCircuit(circuit).live
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
        # cap (chunk=None: the 220-cycle trace ends in the third window
        # of the 64, 64, 128 ... ramp)
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
            monkeypatch.setattr(parallel, "LIVE_WORDS", budget)
            vector = self._run(scheme_case, "vector")
            assert record_key(vector) == record_key(serial), budget

    def test_early_detections_cost_one_lane_word(
        self, scheme_case, monkeypatch
    ):
        # structural faults of both axes all detected within 64 cycles:
        # one 64-lane window per axis, however long the trace
        build, rf, cf, _mf, addresses = scheme_case
        serial = scheme_campaign(
            build(), addresses, row_faults=rf, column_faults=cf,
            engine="serial",
        )
        early = [
            record.first_detection is not None
            and record.first_detection < 64
            for record in serial.records
        ]
        rows = [f for f, keep in zip(rf, early) if keep]
        columns = [f for f, keep in zip(cf, early[len(rf) :]) if keep]
        assert rows and columns and len(addresses) > 64
        calls = []
        evaluate = vectorsim._VectorSchemeState._axis_window

        def spy(self, axis, *rest):
            mask = rest[-1]
            lanes = parallel.unpack_lanes(mask, 64 * len(mask)).sum()
            calls.append((axis, int(lanes)))
            return evaluate(self, axis, *rest)

        monkeypatch.setattr(
            vectorsim._VectorSchemeState, "_axis_window", spy
        )
        vector = scheme_campaign(
            build(), addresses, row_faults=rows, column_faults=columns,
            engine="vector",
        )
        assert calls == [("row", 64), ("column", 64)]
        assert record_key(vector) == [
            key for key, keep in zip(record_key(serial), early) if keep
        ]

    @pytest.fixture(scope="class")
    def late_case(self):
        # the trace keeps to the lower half of the array for 300 cycles,
        # so row faults only the upper rows expose are first detected
        # past the 256-lane mark, after four hand-offs of the survivors
        org = MemoryOrganization(64, 8, column_mux=4)

        def build():
            return SelfCheckingMemory.from_selection(
                org, select_code(10, 1e-9)
            )

        probe = build()
        faults = dict(
            row_faults=decoder_fault_list(probe.row),
            column_faults=sample_faults(
                decoder_fault_list(probe.column), 5, seed=4
            ),
        )
        addresses = (
            Workload.uniform(32, 300, seed=5)
            + Workload.uniform(64, 300, seed=6)
        ).address_list()
        serial = scheme_campaign(
            build(), addresses, engine="serial", **faults
        )
        return build, faults, addresses, serial

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_late_detections_cross_the_ramp(self, late_case, chunk):
        build, faults, addresses, serial = late_case
        assert any(
            record.first_detection is not None
            and record.first_detection >= 256
            for record in serial.records
        )
        vector = scheme_campaign(
            build(), addresses, engine="vector", chunk=chunk, **faults
        )
        assert record_key(vector) == record_key(serial)

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
