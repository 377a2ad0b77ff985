"""The results API: ResultSet round-trips, algebra, statistics.

Covers the acceptance property of the results redesign — ResultSet ->
JSONL -> ResultSet is bit-identical (records, provenance, summary) for
decoder, scheme, transient and march campaigns — plus the statistics
edge cases, on a set a campaign driver stamped and on a bare one.
"""

import io
import json
import math

import pytest

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import select_code
from repro.faultsim.injector import decoder_fault_list, sample_faults
from repro.memory.faults import CellStuckAt
from repro.memory.march import MARCH_C_MINUS
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.results import (
    Provenance,
    ResultRecord,
    ResultSet,
    ResultSetWriter,
)
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import (
    CampaignEngine,
    MemoryScenario,
    TransientScenario,
    Workload,
)


def checked_decoder(n_bits=4):
    return CheckedDecoder(mapping_for_code(MOutOfNCode(3, 5), n_bits))


def run_decoder_campaign(engine=None):
    engine = engine or CampaignEngine()
    checked = checked_decoder()
    checker = MOutOfNChecker(3, 5, structural=False)
    return engine.decoder(
        checked,
        checker,
        decoder_fault_list(checked),
        Workload.uniform(16, 120, seed=5),
    )


def run_scheme_campaign(engine=None):
    engine = engine or CampaignEngine()
    org = MemoryOrganization(64, 8, column_mux=4)
    memory = SelfCheckingMemory.from_selection(org, select_code(10, 1e-9))
    scenarios = sample_faults(
        decoder_fault_list(memory.row), 8, seed=2
    ) + [CellStuckAt(5, 1, 1)]
    return engine.scheme(
        memory, Workload.uniform(1 << org.n, 150, seed=3), scenarios
    )


def run_transient_campaign(engine=None):
    engine = engine or CampaignEngine()
    org = MemoryOrganization(32, 8, column_mux=4)
    scenarios = [
        TransientScenario.single(a, bit=a % 9, cycle=(a * 7) % 90)
        for a in range(0, 32, 2)
    ]
    return engine.transient(
        BehavioralRAM(org),
        scenarios,
        Workload.scrubbed(32, 400, scrub_period=4, seed=1),
    )


def run_march_campaign(engine=None):
    engine = engine or CampaignEngine()
    org = MemoryOrganization(16, 4, column_mux=4)
    scenarios = [
        MemoryScenario(faults=(CellStuckAt(a, a % 4, a % 2),))
        for a in range(16)
    ]
    return engine.march(BehavioralRAM(org), scenarios, MARCH_C_MINUS)


CAMPAIGNS = {
    "decoder": run_decoder_campaign,
    "scheme": run_scheme_campaign,
    "transient": run_transient_campaign,
    "march": run_march_campaign,
}


class TestRoundTrip:
    """ResultSet -> JSONL -> ResultSet is bit-identical for every
    campaign family (the acceptance property)."""

    @pytest.mark.parametrize("family", sorted(CAMPAIGNS))
    def test_jsonl_round_trip_is_bit_identical(self, family):
        artifact = CAMPAIGNS[family]()
        assert isinstance(artifact, ResultSet)
        assert artifact.to_result_set() is artifact
        assert all(isinstance(r.fault, str) for r in artifact.records)
        assert artifact.provenance is not None
        assert artifact.provenance.campaign == family

        text = artifact.to_jsonl()
        restored = ResultSet.from_jsonl(text)
        assert restored.records == artifact.records
        assert restored.provenances == artifact.provenances
        assert restored.summary() == artifact.summary()
        assert restored == artifact
        # the serialised form itself is a fixed point
        assert restored.to_jsonl() == text

    def test_round_trip_through_file_and_stream(self, tmp_path):
        artifact = run_decoder_campaign()
        path = tmp_path / "campaign.jsonl"
        artifact.write_jsonl(path)
        assert ResultSet.read_jsonl(path) == artifact
        buffer = io.StringIO()
        artifact.write_jsonl(buffer)
        assert ResultSet.from_jsonl(buffer.getvalue()) == artifact

    def test_streaming_writer_matches_batch_serialisation(self, tmp_path):
        artifact = run_transient_campaign()
        path = tmp_path / "streamed.jsonl"
        with ResultSetWriter(
            path, artifact.provenances, artifact.cycles_simulated
        ) as writer:
            for record in artifact.records:
                writer.add(record)
        assert writer.count == artifact.total
        assert ResultSet.read_jsonl(path) == artifact

    def test_rejects_foreign_streams(self):
        with pytest.raises(ValueError, match="not a repro-results"):
            ResultSet.from_jsonl('{"hello": 1}\n')
        with pytest.raises(ValueError, match="empty"):
            ResultSet.from_jsonl("")


class TestProvenance:
    def test_every_record_knows_its_provenance(self):
        artifact = run_transient_campaign()
        for record in artifact.records:
            provenance = artifact.record_provenance(record)
            assert provenance.campaign == "transient"
            assert provenance.engine == "vector"
            assert provenance.repro_version
            assert provenance.workload.startswith("scrubbed")
            assert provenance.workload_spec["kind"] == "scrubbed"

    def test_provenance_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown Provenance"):
            Provenance.from_dict({"campaign": "x", "bogus": 1})

    def test_empty_strings_survive_the_round_trip(self):
        # a field whose default is None keeps "" (it used to read back
        # as None); fields at their defaults are still left out
        provenance = Provenance(campaign="decoder", workload="", key="")
        assert provenance.to_dict() == {
            "campaign": "decoder", "workload": "", "key": "",
        }
        assert Provenance().to_dict() == {}
        artifact = ResultSet(
            [ResultRecord("f", "sa1", 3, 1)], (provenance,), 5
        )
        restored = ResultSet.from_jsonl(artifact.to_jsonl())
        assert restored.provenances == (provenance,)
        assert restored == artifact

    def test_lines_are_compact_sorted_json(self):
        # the one reused encoder writes what json.dumps writes
        artifact = run_decoder_campaign()
        lines = artifact.to_jsonl().splitlines()
        assert lines == [
            json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
            for line in lines
        ]

    def test_spec_stamped_through_design_flow(self):
        from repro import DesignEngine, DesignSpec

        spec = DesignSpec(words=256, bits=8, c=10, pndc=1e-9)
        engine = DesignEngine()
        memory = engine.build(spec)
        driver = CampaignEngine()
        result = driver.decoder(
            memory.row,
            memory.row_checker,
            decoder_fault_list(memory.row),
            Workload.uniform(1 << spec.organization.p, 64, seed=7),
            spec=spec.to_dict(),
        )
        assert result.provenance.spec["words"] == 256


class TestAlgebra:
    def make(self, faults, kind="sa1", provenance=None):
        provenance = provenance or Provenance(
            campaign="decoder", engine="packed", repro_version="1.4.0"
        )
        return ResultSet(
            records=[
                ResultRecord(fault=f, kind=kind, first_detection=d)
                for f, d in faults
            ],
            provenances=(provenance,),
            cycles_simulated=100,
        )

    def test_merge_preserves_lineage_and_dedupes_provenance(self):
        shared = Provenance(campaign="decoder", engine="packed")
        other = Provenance(campaign="decoder", engine="serial")
        a = self.make([("f1", 1)], provenance=shared)
        b = self.make([("f2", 2)], provenance=shared)
        c = self.make([("f3", None)], provenance=other)
        merged = a.merge(b, c)
        assert merged.total == 3
        assert len(merged.provenances) == 2
        assert merged.record_provenance(merged.records[0]) is shared
        assert merged.record_provenance(merged.records[2]) == other

    def test_filter_by_kind_detected_and_predicate(self):
        artifact = run_decoder_campaign()
        sa1 = artifact.filter(kind="sa1")
        assert sa1.total > 0
        assert all(r.kind == "sa1" for r in sa1.records)
        undetected = artifact.filter(detected=False)
        assert undetected.total == artifact.total - artifact.detected
        early = artifact.filter(
            lambda r: r.detected and r.first_detection < 5
        )
        assert all(r.first_detection < 5 for r in early.records)
        # filters share provenance with the parent
        assert sa1.provenances == artifact.provenances

    def test_group_by_field_and_callable(self):
        artifact = run_decoder_campaign()
        by_kind = artifact.group_by("kind")
        assert sum(g.total for g in by_kind.values()) == artifact.total
        by_parity = artifact.group_by(
            lambda r: (r.first_detection or 0) % 2
        )
        assert set(by_parity) <= {0, 1}

    def test_diff_identical_runs(self):
        left = run_march_campaign()
        right = run_march_campaign()
        diff = left.diff(right)
        assert diff.identical
        assert diff.matched == left.total
        assert diff.coverage_delta == 0.0

    def test_diff_reports_outcome_changes(self):
        left = self.make([("f1", 3), ("f2", None), ("f3", 5), ("gone", 1)])
        right = self.make([("f1", 7), ("f2", 2), ("f3", None), ("new", 0)])
        diff = left.diff(right)
        assert not diff.identical
        assert diff.only_left == ["gone"]
        assert diff.only_right == ["new"]
        assert diff.newly_detected == ["f2"]
        assert diff.newly_undetected == ["f3"]
        assert diff.detection_moved == [("f1", 3, 7)]
        assert json.loads(json.dumps(diff.to_dict()))["identical"] is False
        assert "newly detected" in diff.render()

    def test_diff_matches_duplicate_faults_by_occurrence(self):
        left = self.make([("dup", 1), ("dup", 2)])
        right = self.make([("dup", 1), ("dup", 9)])
        diff = left.diff(right)
        assert diff.matched == 2
        assert not diff.identical
        assert diff.detection_moved == [("dup", 2, 9)]
        assert left.diff(self.make([("dup", 1), ("dup", 2)])).identical

    def test_diff_cross_engine_is_identical(self):
        vector = run_transient_campaign(CampaignEngine(engine="vector"))
        serial = run_transient_campaign(CampaignEngine(engine="serial"))
        assert vector.diff(serial).identical


@pytest.mark.parametrize(
    "container",
    ["campaign", "resultset"],
)
class TestStatisticsEdgeCases:
    """Satellite coverage: latency_histogram custom bins and
    escape_fraction_at edge cases, identical on a set stamped and built
    record by record the way a campaign driver builds it, and on a bare
    set."""

    def build(self, container, outcomes):
        if container == "campaign":
            result = ResultSet(
                provenances=(Provenance(campaign="decoder", engine="serial"),),
                cycles_simulated=50,
            )
            for index, detection in enumerate(outcomes):
                result.add(ResultRecord(f"f{index}", "sa1", detection))
            return result
        return ResultSet(
            records=[
                ResultRecord(f"f{index}", "sa1", detection)
                for index, detection in enumerate(outcomes)
            ],
            cycles_simulated=50,
        )

    def test_empty_records(self, container):
        empty = self.build(container, [])
        assert empty.coverage == 1.0
        assert empty.escape_fraction_at(10) == 0.0
        assert empty.max_detection_cycle() is None
        assert math.isnan(empty.mean_detection_cycle())
        hist = empty.latency_histogram([2, 4])
        assert hist == {"[0,2)": 0, "[2,4)": 0, "[4,inf)": 0,
                        "undetected": 0}

    def test_all_undetected(self, container):
        result = self.build(container, [None, None, None])
        assert result.coverage == 0.0
        assert result.escape_fraction_at(1) == 1.0
        assert result.escape_fraction_at(10 ** 9) == 1.0
        hist = result.latency_histogram([5])
        assert hist["undetected"] == 3
        assert hist["[0,5)"] == 0 and hist["[5,inf)"] == 0

    def test_custom_bins_partition_everything(self, container):
        result = self.build(container, [0, 1, 2, 6, 30, None])
        hist = result.latency_histogram([3, 7])
        assert hist == {
            "[0,3)": 3, "[3,7)": 1, "[7,inf)": 1, "undetected": 1,
        }
        assert sum(hist.values()) == result.total
        # unsorted bins are sorted, single-bin works
        assert result.latency_histogram([7, 3]) == hist
        single = result.latency_histogram([1])
        assert single == {"[0,1)": 1, "[1,inf)": 4, "undetected": 1}

    def test_escape_fraction_boundaries(self, container):
        result = self.build(container, [0, 7, None])
        # detection at cycle 7 counts only for c > 7 (cycle < c)
        assert result.escape_fraction_at(7) == pytest.approx(2 / 3)
        assert result.escape_fraction_at(8) == pytest.approx(1 / 3)
        assert result.escape_fraction_at(0) == 1.0


class TestSummaryJsonSafety:
    """Satellite: summary() must be strict-JSON (no NaN) even with zero
    detections."""

    def test_zero_detection_summary_is_null_not_nan(self):
        result = ResultSet(cycles_simulated=10)
        result.add(ResultRecord("f", "sa1", None))
        summary = result.summary()
        assert summary["mean_detection_cycle"] is None
        # strict parse: json.loads with NaN forbidden must accept it
        text = json.dumps(summary)
        parsed = json.loads(
            text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}")
        )
        assert parsed["mean_detection_cycle"] is None
        assert "NaN" not in text

    def test_resultset_summary_matches(self):
        """The stored (JSONL) form reports the same summary."""
        result = ResultSet(cycles_simulated=10)
        result.add(ResultRecord("f", "sa1", None))
        restored = ResultSet.from_jsonl(result.to_jsonl())
        assert restored.summary() == result.summary()

    def test_mean_detection_cycle_stays_nan_for_api_compat(self):
        result = ResultSet()
        assert math.isnan(result.mean_detection_cycle())
