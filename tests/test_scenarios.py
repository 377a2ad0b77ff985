"""The unified scenario layer: Workload vocabulary, FaultScenario
hierarchy, CampaignEngine routing, packed/serial bit-identity for the
transient and march backends, chunked-lane invariance, and cross-process
reproducibility."""

import hashlib
import pickle
import random

import pytest

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.design.engine import DesignEngine
from repro.design.spec import DesignSpec
from repro.faultsim.campaign import decoder_campaign, scheme_campaign
from repro.faultsim.injector import decoder_fault_list
from repro.faultsim.transient import TransientUpset
from repro.memory.faults import (
    CellStuckAt,
    CompositeFault,
    CouplingFault,
    DataLineStuckAt,
    MemoryFault,
    MuxLineStuckAt,
)
from repro.memory.march import (
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS_PLUS,
)
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import (
    CampaignEngine,
    MemoryScenario,
    StructuralScenario,
    TransientScenario,
    Workload,
    as_scenarios,
    as_workload,
    named_workload,
)


def records(result):
    return [
        (str(r.fault), r.kind, r.first_detection, r.first_error)
        for r in result.records
    ]


def make_ram(words=32, bits=8, mux=4):
    return BehavioralRAM(MemoryOrganization(words, bits, column_mux=mux))


@pytest.fixture(scope="module")
def checked5():
    return CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), 5))


@pytest.fixture(scope="module")
def checker35():
    return MOutOfNChecker(3, 5, structural=False)


# -- Workload vocabulary -----------------------------------------------------


def trace_digest(workload):
    trace = ",".join(map(str, workload.address_list()))
    return hashlib.sha256(trace.encode()).hexdigest()[:16]


class TestWorkloadShims:
    """Workload traces stay bit-identical to the pre-1.3 stream helpers
    they replaced; those helpers are gone, so their outputs are pinned
    here by digest."""

    def test_uniform_matches_random_addresses(self):
        workload = Workload.uniform(64, 100, seed=3)
        assert workload.address_list()[:8] == [30, 16, 47, 60, 8, 1, 60, 33]
        assert trace_digest(workload) == "4267849565a5fff6"

    def test_sequential_matches_helper(self):
        workload = Workload.sequential(32, 50, start=7)
        assert trace_digest(workload) == "b68959d0cb4b4b8c"

    def test_bursty_matches_helper(self):
        workload = Workload.bursty(32, 77, locality=4, seed=9)
        assert trace_digest(workload) == "b0266147e2b28d58"

    def test_scrubbed_matches_helper(self):
        workload = Workload.scrubbed(16, 80, scrub_period=4, seed=1)
        assert trace_digest(workload) == "ea40076ff8b2cc0b"

    def test_march_matches_helper(self):
        full = Workload.march(MARCH_C_MINUS, 8)
        reads = Workload.march(MARCH_C_MINUS, 8, reads_only=True)
        assert (len(full), len(reads)) == (80, 40)
        assert trace_digest(full) == "cefea42456dba75f"
        assert trace_digest(reads) == "d3b20c865569b20d"

    def test_uniform_reproduces_legacy_rng_sequence(self):
        rng = random.Random(11)
        expected = [rng.randint(0, 15) for _ in range(40)]
        assert Workload.uniform(16, 40, seed=11).address_list() == expected


class TestWorkloadSemantics:
    def test_seeded_iteration_is_repeatable(self):
        workload = Workload.uniform(64, 50, seed=5)
        assert workload.address_list() == workload.address_list()

    def test_len_matches_trace(self):
        for workload in (
            Workload.uniform(8, 33, seed=1),
            Workload.bursty(8, 33, seed=1),
            Workload.march(MATS_PLUS, 4),
            Workload.march(MATS_PLUS, 4, reads_only=True),
            Workload.mixed(8, 33, seed=2),
            Workload.explicit([1, 2, 3]),
            Workload.uniform(8, 10, seed=1) + Workload.sequential(8, 5),
            Workload.sequential(8, 9).interleave(
                Workload.uniform(8, 4, seed=3)
            ),
        ):
            assert len(workload) == len(list(workload))

    def test_concat_order(self):
        combined = Workload.explicit([1, 2]) + Workload.explicit([3, 4])
        assert combined.address_list() == [1, 2, 3, 4]

    def test_concat_flattens(self):
        a, b, c = (Workload.explicit([i]) for i in range(3))
        assert len((a + b + c).parts) == 3

    def test_interleave_round_robin(self):
        woven = Workload.explicit([0, 0, 0, 0]).interleave(
            Workload.explicit([9, 9])
        )
        assert woven.address_list() == [0, 9, 0, 9, 0, 0]

    def test_uniform_trace_is_pinned(self):
        # the columnar address path draws the same trace, bit for bit,
        # as the per-access one it replaced
        workload = Workload.uniform(2048, 16, seed=1)
        trace = workload.address_list()
        assert trace == [
            550, 258, 1044, 482, 2029, 1841, 1934, 1554,
            859, 384, 1998, 116, 1596, 1772, 8, 1824,
        ]
        assert [access.address for access in workload.accesses()] == trace
        assert {(a.op, a.bit) for a in workload.accesses()} == {("r", None)}

    def test_march_workload_carries_ops_and_backgrounds(self):
        accesses = list(Workload.march(MATS_PLUS, 2))
        assert accesses[0].op == "w" and accesses[0].bit == 0
        reads = [a for a in accesses if a.is_read]
        assert {a.bit for a in reads} == {0, 1}

    def test_mixed_workload_has_writes(self):
        workload = Workload.mixed(8, 40, seed=1, write_ratio=0.5)
        ops = {a.op for a in workload}
        assert ops == {"r", "w"}
        assert workload.has_writes

    def test_workloads_pickle(self):
        for workload in (
            Workload.uniform(8, 5, seed=1),
            Workload.march(MARCH_C_MINUS, 4),
            Workload.uniform(8, 5, seed=1) + Workload.sequential(8, 2),
        ):
            clone = pickle.loads(pickle.dumps(workload))
            assert clone == workload
            assert clone.address_list() == workload.address_list()

    def test_dict_round_trip(self):
        for workload in (
            Workload.uniform(8, 5, seed=1),
            Workload.bursty(8, 5, locality=3, seed=2),
            Workload.scrubbed(8, 5, scrub_period=2, seed=3),
            Workload.march(MATS_PLUS, 4, reads_only=True),
            Workload.mixed(8, 5, seed=4, write_ratio=0.25),
            Workload.explicit([1, 2, 3]),
            Workload.uniform(8, 5, seed=1)
            + Workload.march(MARCH_X, 4),
            Workload.sequential(8, 4).interleave(
                Workload.uniform(8, 4, seed=5)
            ),
        ):
            assert Workload.from_dict(workload.to_dict()) == workload

    def test_march_from_dict_accepts_name(self):
        workload = Workload.from_dict(
            {"kind": "march", "test": "MATS+", "words": 4}
        )
        assert workload.test == MATS_PLUS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_dict({"kind": "nope"})

    def test_as_workload_wraps_lists(self):
        workload = as_workload([3, 1, 2])
        assert workload.address_list() == [3, 1, 2]
        assert as_workload(workload) is workload

    def test_named_workload_families(self):
        for name in ("uniform", "sequential", "bursty", "scrubbed"):
            assert len(named_workload(name, 16, 20, seed=1)) == 20
        march = named_workload("march", 16, 0)
        assert march.test == MARCH_C_MINUS
        with pytest.raises(ValueError):
            named_workload("fancy", 16, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload.uniform(0, 5)
        with pytest.raises(ValueError):
            Workload.uniform(4, -1)
        with pytest.raises(ValueError):
            Workload.mixed(4, 5, write_ratio=1.5)


# -- FaultScenario hierarchy -------------------------------------------------


class TestScenarios:
    def test_as_scenarios_routes_by_type(self):
        from repro.circuits.faults import NetStuckAt

        scenarios = as_scenarios(
            [
                NetStuckAt(3, 1),
                CellStuckAt(0, 0, 1),
                TransientUpset(1, 2, 3),
            ]
        )
        kinds = [s.kind for s in scenarios]
        assert kinds == ["structural", "memory", "transient"]

    def test_structural_axis_validated(self):
        from repro.circuits.faults import NetStuckAt

        with pytest.raises(ValueError):
            StructuralScenario(fault=NetStuckAt(0, 1), axis="diagonal")

    def test_memory_scenario_composes(self):
        single = MemoryScenario(faults=(CellStuckAt(0, 0, 1),))
        assert isinstance(single.fault, CellStuckAt)
        multi = MemoryScenario(
            faults=(CellStuckAt(0, 0, 1), DataLineStuckAt(1, 0))
        )
        assert isinstance(multi.fault, CompositeFault)

    def test_transient_scenario_properties(self):
        scenario = TransientScenario(
            upsets=(TransientUpset(4, 1, 9), TransientUpset(2, 0, 3))
        )
        assert scenario.cycle == 3
        assert scenario.addresses == (2, 4)
        assert TransientScenario.single(1, 2, 3).upsets == (
            TransientUpset(1, 2, 3),
        )

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError):
            MemoryScenario(faults=())
        with pytest.raises(ValueError):
            TransientScenario(upsets=())


# -- CampaignEngine routing --------------------------------------------------


class TestCampaignEngineFacade:
    def test_engine_validated(self):
        with pytest.raises(ValueError):
            CampaignEngine(engine="vectorised")
        with pytest.raises(ValueError):
            CampaignEngine(workers=0)
        with pytest.raises(ValueError):
            CampaignEngine(chunk=0)

    def test_decoder_matches_direct_call(self, checked5, checker35):
        faults = decoder_fault_list(checked5)
        workload = Workload.uniform(32, 60, seed=2)
        via_facade = CampaignEngine().decoder(
            checked5, checker35, faults, workload
        )
        direct = decoder_campaign(
            checked5, checker35, faults, workload.address_list()
        )
        assert records(via_facade) == records(direct)

    def test_scheme_routes_scenarios_by_kind(self):
        org = MemoryOrganization(64, 8, column_mux=4)
        selection = select_code(10, 1e-9)

        def build():
            return SelfCheckingMemory.from_selection(org, selection)

        memory = build()
        row = decoder_fault_list(memory.row)[:4]
        column = decoder_fault_list(memory.column)[:3]
        memory_faults = [CellStuckAt(5, 1, 1), DataLineStuckAt(3, 1)]
        scenarios = (
            [StructuralScenario(fault=f, axis="row") for f in row]
            + [StructuralScenario(fault=f, axis="column") for f in column]
            + [MemoryScenario(faults=(f,)) for f in memory_faults]
        )
        workload = Workload.uniform(64, 120, seed=4)
        via_facade = CampaignEngine().scheme(
            build(), workload, scenarios
        )
        direct = scheme_campaign(
            build(),
            workload.address_list(),
            row_faults=row,
            column_faults=column,
            memory_faults=memory_faults,
        )
        assert [
            (str(r.fault), r.kind, r.first_detection)
            for r in via_facade.records
        ] == [
            (str(r.fault), r.kind, r.first_detection)
            for r in direct.records
        ]

    def test_scheme_rejects_transient_scenarios(self):
        org = MemoryOrganization(64, 8, column_mux=4)
        memory = SelfCheckingMemory.from_selection(org, select_code(10, 1e-9))
        with pytest.raises(TypeError):
            CampaignEngine().scheme(
                memory,
                Workload.uniform(64, 10),
                [TransientScenario.single(0, 0, 0)],
            )

    def test_transient_rejects_memory_scenarios(self):
        with pytest.raises(TypeError):
            CampaignEngine().transient(
                make_ram(),
                [MemoryScenario(faults=(CellStuckAt(0, 0, 1),))],
                Workload.uniform(32, 10),
            )

    def test_march_rejects_transient_scenarios(self):
        with pytest.raises(TypeError):
            CampaignEngine().march(
                make_ram(),
                [TransientScenario.single(0, 0, 0)],
                MATS_PLUS,
            )


# -- chunked-lane invariance (satellite) -------------------------------------


class TestChunkedLaneInvariance:
    """Vector results are identical for chunk sizes W in {1, 7, 64, full}
    (transient campaigns ignore ``chunk``; the invariance still holds)."""

    def test_decoder_campaign_chunk_invariant(self, checked5, checker35):
        faults = decoder_fault_list(checked5)
        addresses = Workload.uniform(32, 90, seed=13).address_list()
        reference = records(
            decoder_campaign(checked5, checker35, faults, addresses)
        )
        serial = records(
            decoder_campaign(
                checked5, checker35, faults, addresses, engine="serial"
            )
        )
        assert reference == serial
        for chunk in (1, 7, 64, len(addresses)):
            chunked = records(
                decoder_campaign(
                    checked5, checker35, faults, addresses, chunk=chunk
                )
            )
            assert chunked == reference, f"chunk={chunk}"

    def test_transient_campaign_chunk_invariant(self):
        scenarios = [
            TransientScenario.single(a, a % 8, (a * 11) % 150)
            for a in range(0, 32, 3)
        ] + [
            TransientScenario(
                upsets=(TransientUpset(7, 1, 10), TransientUpset(7, 4, 60))
            )
        ]
        workload = Workload.scrubbed(32, 200, scrub_period=4, seed=6)
        reference = records(
            CampaignEngine().transient(make_ram(), scenarios, workload)
        )
        for chunk in (1, 7, 64, len(workload)):
            chunked = records(
                CampaignEngine(chunk=chunk).transient(
                    make_ram(), scenarios, workload
                )
            )
            assert chunked == reference, f"chunk={chunk}"

    def test_chunk_invariance_holds_with_workload_writes(self):
        scenarios = [
            TransientScenario.single(a, 2, 25) for a in (0, 5, 9)
        ]
        workload = Workload.mixed(16, 120, seed=8, write_ratio=0.4)
        ram16 = lambda: make_ram(words=16, mux=2)  # noqa: E731
        reference = records(
            CampaignEngine().transient(ram16(), scenarios, workload)
        )
        serial = records(
            CampaignEngine(engine="serial").transient(
                ram16(), scenarios, workload
            )
        )
        assert reference == serial
        for chunk in (1, 7, 64):
            assert (
                records(
                    CampaignEngine(chunk=chunk).transient(
                        ram16(), scenarios, workload
                    )
                )
                == reference
            )


# -- transient backend bit-identity ------------------------------------------


class TestTransientEngines:
    def scenarios(self):
        return [
            TransientScenario.single(a, a % 9, c)
            for a, c in [(0, 3), (5, 0), (17, 100), (31, 5000), (9, 50)]
        ] + [
            # double flip restoring parity: error without detection
            TransientScenario(
                upsets=(TransientUpset(7, 1, 16), TransientUpset(7, 4, 30))
            ),
            # re-flip of the same bit: healed after the second strike
            TransientScenario(
                upsets=(TransientUpset(3, 2, 10), TransientUpset(3, 2, 40))
            ),
            # two victims
            TransientScenario(
                upsets=(TransientUpset(2, 0, 10), TransientUpset(4, 5, 20))
            ),
        ]

    @pytest.mark.parametrize(
        "workload",
        [
            Workload.scrubbed(32, 400, scrub_period=4, seed=2),
            Workload.uniform(32, 400, seed=1),
            Workload.sequential(32, 300),
            Workload.mixed(32, 400, seed=3, write_ratio=0.3),
            Workload.march(MARCH_Y, 32),
            Workload.uniform(32, 200, seed=1) + Workload.sequential(32, 64),
            Workload.sequential(32, 200).interleave(
                Workload.uniform(32, 100, seed=4)
            ),
        ],
        ids=lambda w: w.kind,
    )
    def test_packed_matches_serial_record_by_record(self, workload):
        scenarios = self.scenarios()
        packed = CampaignEngine("vector").transient(
            make_ram(), scenarios, workload
        )
        serial = CampaignEngine("serial").transient(
            make_ram(), scenarios, workload
        )
        assert records(packed) == records(serial)
        assert packed.engine == "vector" and serial.engine == "serial"

    def test_double_upset_is_parity_escape(self):
        scenario = TransientScenario(
            upsets=(TransientUpset(7, 1, 5), TransientUpset(7, 4, 5))
        )
        result = CampaignEngine().transient(
            make_ram(), [scenario], Workload.sequential(32, 64)
        )
        record = result.records[0]
        assert record.first_error is not None
        assert record.first_detection is None

    def test_write_clears_the_upset(self):
        # victim written (re-encoded) before ever being read: no error
        scenario = TransientScenario.single(3, 2, 0)
        accesses = [("w", 3, 0), ("r", 3, None)]
        from repro.scenarios.workload import Access, ExplicitWorkload

        class Script(ExplicitWorkload):
            def accesses(self):
                for op, address, bit in accesses:
                    yield Access(op, address, bit)

        script = Script(addresses_=(3, 3))
        packed = CampaignEngine("vector").transient(
            make_ram(), [scenario], script
        )
        serial = CampaignEngine("serial").transient(
            make_ram(), [scenario], script
        )
        assert records(packed) == records(serial)
        assert packed.records[0].first_detection is None
        assert packed.records[0].first_error is None

    def test_upset_beyond_stream_never_fires(self):
        scenario = TransientScenario.single(3, 2, 1000)
        result = CampaignEngine().transient(
            make_ram(), [scenario], Workload.sequential(32, 64)
        )
        assert result.records[0].first_detection is None

    def test_validation_matches_legacy(self):
        ram = BehavioralRAM(
            MemoryOrganization(16, 4, column_mux=2), with_parity=False
        )
        with pytest.raises(ValueError):
            CampaignEngine().transient(
                ram,
                [TransientScenario.single(0, 0, 0)],
                Workload.sequential(16, 4),
            )
        with pytest.raises(ValueError):
            CampaignEngine().transient(
                make_ram(),
                [TransientScenario.single(999, 0, 0)],
                Workload.sequential(32, 4),
            )
        with pytest.raises(ValueError):
            CampaignEngine().transient(
                make_ram(),
                [TransientScenario.single(0, 99, 0)],
                Workload.sequential(32, 4),
            )

    def test_rejects_preinjected_behavioural_faults(self):
        # a pre-injected fault would be honoured by the serial replay
        # but not by the event walks: refused up front
        ram = make_ram()
        ram.inject(DataLineStuckAt(0, 1))
        with pytest.raises(ValueError, match="fault-free"):
            CampaignEngine().transient(
                ram,
                [TransientScenario.single(5, 2, 50)],
                Workload.sequential(32, 64),
            )

    def test_serial_leaves_no_stray_flips(self):
        ram = make_ram()
        CampaignEngine("serial").transient(
            ram,
            [TransientScenario.single(5, 2, 0)],
            Workload.explicit([0, 1]),  # victim never read back
        )
        assert ram.parity_ok(5)  # the upset's flip was cleaned up


# -- seeded cross-process reproducibility (satellite) ------------------------


class TestSeededReproducibility:
    def test_transient_campaign_reproducible_with_workers(self):
        """Two runs, same seed, workers=2: identical ResultSets."""

        def run():
            scenarios = [
                TransientScenario.single(a, a % 8, (a * 7) % 90)
                for a in range(0, 32, 2)
            ]
            workload = Workload.scrubbed(32, 150, scrub_period=4, seed=21)
            return CampaignEngine(workers=2).transient(
                make_ram(), scenarios, workload
            )

        assert run() == run()

    def test_workers_match_single_process(self):
        scenarios = [
            TransientScenario.single(a, 1, 5) for a in range(0, 32, 4)
        ]
        workload = Workload.uniform(32, 120, seed=3)
        sharded = CampaignEngine(workers=2).transient(
            make_ram(), scenarios, workload
        )
        solo = CampaignEngine().transient(make_ram(), scenarios, workload)
        assert records(sharded) == records(solo)

    def test_march_workers_match_single_process(self):
        scenarios = [
            MemoryScenario(faults=(CellStuckAt(a, 1, 1),))
            for a in range(0, 32, 5)
        ]
        sharded = CampaignEngine(workers=2).march(
            make_ram(), scenarios, MARCH_C_MINUS
        )
        solo = CampaignEngine().march(make_ram(), scenarios, MARCH_C_MINUS)
        assert records(sharded) == records(solo)

    def test_workload_generators_reproducible_across_pickle(self):
        # what a spawn-started worker sees is the unpickled value
        workload = Workload.bursty(64, 200, locality=5, seed=17)
        clone = pickle.loads(pickle.dumps(workload))
        assert clone.address_list() == workload.address_list()


# -- march backend bit-identity ----------------------------------------------


class _WeirdFault(MemoryFault):
    """Not a built-in class: exercises the vector backend's serial
    fallback (reads of address 0 see bit 0 inverted)."""

    def apply_read(self, address, word, memory):
        if address == 0:
            word[0] ^= 1

    def __repr__(self):
        return "_WeirdFault()"


class TestMarchEngines:
    def scenarios(self):
        faults = [
            CellStuckAt(0, 0, 1),
            CellStuckAt(13, 3, 0),
            CellStuckAt(31, 7, 1),
            CellStuckAt(5, 8, 1),  # parity bit: invisible to read_data
            DataLineStuckAt(1, 1),
            DataLineStuckAt(6, 0),
            MuxLineStuckAt(0, 2, 1),
            MuxLineStuckAt(3, 2, 0),
            CouplingFault(3, 0, 9, 0),
            CouplingFault(9, 0, 3, 0),
            CouplingFault(3, 0, 9, 0, trigger=0, forced=0),
            CouplingFault(3, 0, 9, 0, write_triggered=True),
            CouplingFault(9, 0, 3, 0, write_triggered=True),
            CouplingFault(
                9, 1, 3, 1, trigger=0, forced=0, write_triggered=True
            ),
            _WeirdFault(),
            CompositeFault([CellStuckAt(2, 1, 1), DataLineStuckAt(0, 1)]),
        ]
        return [MemoryScenario(faults=(f,)) for f in faults]

    @pytest.mark.parametrize(
        "test", [MATS_PLUS, MARCH_X, MARCH_Y, MARCH_C_MINUS]
    )
    def test_packed_matches_serial_record_by_record(self, test):
        scenarios = self.scenarios()
        packed = CampaignEngine("vector").march(
            make_ram(), scenarios, test
        )
        serial = CampaignEngine("serial").march(
            make_ram(), scenarios, test
        )
        assert records(packed) == records(serial)

    def test_rejects_preinjected_behavioural_faults(self):
        ram = make_ram()
        ram.inject(CellStuckAt(0, 0, 1))
        with pytest.raises(ValueError, match="fault-free"):
            CampaignEngine().march(
                ram,
                [MemoryScenario(faults=(DataLineStuckAt(1, 1),))],
                MATS_PLUS,
            )

    def test_first_detection_is_operation_lane(self):
        # cell 0 stuck at 1: MATS+ element 1 (up r0) reads it first;
        # lane = words writes of element 0, then the first r0
        words = 32
        scenario = MemoryScenario(faults=(CellStuckAt(0, 0, 1),))
        result = CampaignEngine().march(
            make_ram(words=words), [scenario], MATS_PLUS
        )
        assert result.records[0].first_detection == words

    def test_cycles_simulated_is_compiled_length(self):
        result = CampaignEngine().march(
            make_ram(), [MemoryScenario(faults=(CellStuckAt(0, 0, 1),))],
            MARCH_C_MINUS,
        )
        assert result.cycles_simulated == 10 * 32


# -- DesignSpec workload integration -----------------------------------------


class TestDesignSpecWorkload:
    def test_spec_round_trips_named_workload(self):
        spec = DesignSpec(words=512, bits=8, workload="bursty")
        assert DesignSpec.from_json(spec.to_json()) == spec

    def test_spec_round_trips_full_workload(self):
        workload = Workload.scrubbed(64, 128, scrub_period=4, seed=3)
        spec = DesignSpec(words=512, bits=8, workload=workload)
        clone = DesignSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.workload == workload

    def test_spec_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            DesignSpec(words=512, bits=8, workload="fancy")
        with pytest.raises(ValueError):
            DesignSpec(words=512, bits=8, workload=3.14)

    def test_empirical_uses_spec_workload(self):
        engine = DesignEngine()
        spec = DesignSpec(words=512, bits=8, workload="sequential")
        report = engine.empirical(spec, cycles=64)
        assert report.workload.startswith("sequential(")
        assert report.cycles == 64

    def test_empirical_full_workload_overrides_cycles(self):
        engine = DesignEngine()
        workload = Workload.uniform(64, 48, seed=9)
        spec = DesignSpec(words=512, bits=8, workload=workload)
        report = engine.empirical(spec, cycles=256)
        assert report.cycles == 48

    def test_empirical_rejects_oversized_addresses(self):
        engine = DesignEngine()
        spec = DesignSpec(
            words=512, bits=8, workload=Workload.uniform(1024, 16, seed=1)
        )
        with pytest.raises(ValueError):
            engine.empirical(spec)

    def test_default_workload_matches_pre13_behaviour(self):
        engine = DesignEngine()
        spec = DesignSpec(words=512, bits=8)
        default = engine.empirical(spec, cycles=64, seed=7)
        pinned = engine.empirical(
            spec.replace(workload=Workload.uniform(64, 64, seed=7)),
            cycles=64,
            seed=7,
        )
        assert default.coverage == pinned.coverage
        assert default.escape_fraction_at_c == pinned.escape_fraction_at_c
